"""Cooperative Q-learning for trajectory and antenna-port control.

Five agents (one active, four passive UAVs) each run a recurrent local
Q-network over their own observations.  A ground-station side attention
block summarizes the joint recent history into a context vector, and a
hypernetwork mixer folds the five chosen-action Q-values plus that
context into one global Q-value trained against a sign-weighted TD
loss.  Baselines strip individual pieces: plain-sum mixing, random
ports, feedforward-only locals, context-free mixing, and a uniform
random policy.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import SCHEME_TRAITS, ExperimentConfig, apply_overrides
from .env import N_AGENTS, N_ANGLE, N_STEER, EpisodeData, PositioningEnv
from .nn import (MLP, AttentionUnit, GRUCell, Linear, Module, Param,
                 stack_agents)

# the training recipe, shared by every trained scheme and seed
DISCOUNT = 0.9
DELTA = 0.5                 # weight on nonnegative TD errors
LEARNING_RATE = 0.05
LR_FINAL_FRACTION = 0.2     # linear decay floor as a share of the rate
GRAD_CLIP = 5.0
TARGET_SYNC = 10            # updates between target-copy refreshes
EPS_START = 1.0
EPS_END = 0.05
PORT_EPS_FLOOR = 0.2        # ports keep exploring after the anneal
PORT_LR_MULTIPLIER = 5.0    # faster port-head updates; the port pathway is
                            # decoupled, so this cannot destabilize the
                            # value fit
ANNEAL_FRACTION = 0.6
PENALTY_CLIP = 200.0        # an infeasible slot's reward is minus this, and
                            # no slot's reward falls below it
REWARD_SCALE = 100.0


class TrainingDiverged(RuntimeError):
    """A non-finite loss.  MarlTrainer.run sets log to the TrainingLog of
    the epochs completed before it."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.log = None


def encode_actions(steer: np.ndarray, ports: np.ndarray,
                   n_ports: int) -> list[np.ndarray]:
    """The team's actions as each local net's (A, ..., 2 or 3) [-1, 1]
    action features, in PolicyNets.local_agents() order.  steer
    (N_AGENTS, ...) holds the steering combos, yaw * N_ANGLE + pitch
    indices into env.ANGLE_CHOICES, and ports (4, ...) the passive UAVs'
    1-based ports.  Every agent's features are its yaw and pitch index; a
    passive UAV's add its port's place on the grid (the config rejects
    channel.n_ports below 2, so the grid has two ends)."""
    yaw, pitch = np.divmod(steer, N_ANGLE)
    centre = (N_ANGLE - 1) / 2
    angles = (np.stack([yaw, pitch], axis=-1) - centre) / centre
    port = 2.0 * (ports - 1) / (n_ports - 1) - 1.0
    return [angles[:1], np.concatenate([angles[1:], port[..., None]], axis=-1)]


def slot_rewards(episode: EpisodeData) -> np.ndarray:
    """The (T,) shared team reward of each slot, unscaled: the negative
    position error, floored at -PENALTY_CLIP, or -PENALTY_CLIP whenever
    any feasibility constraint is broken."""
    floor = -PENALTY_CLIP
    return np.maximum(np.where(episode.feasible, -episode.errors, floor), floor)


def training_rewards(episode: EpisodeData) -> np.ndarray:
    """The (T,) rewards the learner trains on: slot_rewards / REWARD_SCALE."""
    return slot_rewards(episode) / REWARD_SCALE


def difference_credit(episode: EpisodeData) -> np.ndarray:
    """Per slot and passive UAV (T, 4), the credit for its port choice.

    A difference reward (Wolpert and Tumer): the shared training reward
    minus the reward had that agent's report met the latency deadline,
    everything else held fixed.  That counterfactual changes the slot
    only when agent k's is the one late report and every other
    constraint holds: the slot then turns feasible, with its reward taken
    at the realised fix.  Elsewhere the credit is 0, so the other
    uplinks' deadline misses, which a port cannot change, add no noise to
    an agent's port signal.
    """
    feasible_reward = -episode.errors / REWARD_SCALE   # at the realised fix
    margin = training_rewards(episode) - feasible_reward
    sole = (episode.late.sum(axis=1) == 1) & episode.range_ok.all(axis=1)
    return np.where(episode.late & sole[:, None], margin[:, None], 0.0)


def select_action(q_values: np.ndarray, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy over a Q-vector; ties break to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0.0 and rng.uniform() < epsilon:
        return int(rng.integers(0, len(q_values)))
    return int(np.argmax(q_values))


def build_td_targets(rewards: np.ndarray, next_values: np.ndarray,
                     discount: float) -> np.ndarray:
    """Bootstrapped targets: r_t + discount * V(t+1); terminal uses r alone.

    next_values[t] is the target-network value for slot t+1 and must have
    length len(rewards) - 1 (empty for single-slot episodes).
    """
    rewards = np.asarray(rewards, float)
    next_values = np.asarray(next_values, float)
    if len(next_values) != len(rewards) - 1:
        raise ValueError("need one bootstrap value per non-terminal slot")
    targets = rewards.copy()
    if len(next_values):
        targets[:-1] += discount * next_values
    return targets


def weighted_td_loss(q_global: np.ndarray, q_target: np.ndarray,
                     delta: float,
                     weights: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Sign-weighted squared TD error: weight 1 where the TD error is
    negative, delta otherwise, unless per-slot weights are given (held
    fixed, as across a finite-difference stencil).  Returns (loss,
    per-slot weights)."""
    q_global = np.asarray(q_global, float)
    q_target = np.asarray(q_target, float)
    if q_global.shape != q_target.shape:
        raise ValueError("sequence length mismatch")
    diff = q_global - q_target
    if weights is None:
        weights = np.where(diff < 0.0, 1.0, delta)
    return float(np.sum(weights * diff * diff)), weights


# ---------------------------------------------------------------------------
# network blocks


class LocalQNet(Module):
    """Observation embed -> GRU -> additive heads over the action factors.

    An action is a steering combo plus, for a passive UAV, a port, and
    the net scores the two factors separately (action branching): it
    returns (q, port), the N_STEER steering Q-values and the N centered
    port advantages (None for a net without a port head), and action
    (s, p) is worth q[s] + port[p - 1].  Steering affects future geometry
    while the port decides this slot's uplink, so the additive form is
    the natural inductive bias and every slot trains all of both heads'
    outputs instead of one cell of a 25*N table.

    The decomposition is dueling-style.  A scalar state-value output
    carries the level of the Q function and receives the full TD gradient
    densely on every sample; the steering and port heads are mean-centered
    advantages, so only the differential part of the TD signal shapes the
    action ranking.  Without this split, bootstrapped targets sitting far
    from zero must be absorbed through one-hot updates, a transient that
    saturates the gradient clip and buries the small per-port differences.
    The steering advantage reads the recurrent state; the port advantage
    reads the embedded current observation directly, because the port
    decision is a reaction to this slot's departure angles.  Advantage
    output layers start at zero so initial Q-values are flat and greedy
    maximization is unbiased from the first update.

    A port acts on this slot's uplink only, so in training the port head
    does not learn from the TD signal: it regresses its agent's own credit
    for the chosen port (difference_credit, via backward's port_fit).

    A net is built for one agent; nn.stack_agents joins same-shaped nets
    into one with a leading agent axis, which runs all its agents in each
    call: inputs, states, Q-values and gradients are (A, ...) stacks.
    """

    def __init__(self, n_in: int, n_ports: int, aod_slice: tuple, cfg, rng,
                 recurrent=True, name="local"):
        # n_ports 0 -> no port head: steering-only actions
        self.aod_slice = aod_slice   # (lo, hi) of the input's departure angles
        self.embed = Linear(n_in, cfg.embed_width, rng, f"{name}.embed")
        self.gru = GRUCell(cfg.embed_width, cfg.gru_hidden, rng, f"{name}.gru") \
            if recurrent else None
        head_in = cfg.gru_hidden if recurrent else cfg.embed_width
        self.value_head = Linear(head_in, 1, rng, f"{name}.value")
        self.value_head.w.value[...] = 0.0
        self.value_head.b.value[...] = 0.0
        self.angle_head = MLP([head_in, cfg.mlp_hidden, N_STEER], rng,
                              f"{name}.angle")
        # the port pathway owns its embedding and reads only the departure
        # angles, as their cosines: the port response depends on the angles
        # exclusively through cos, and a pathway shared with the steering
        # objective washes those features out before the port ranking forms
        n_aod = aod_slice[1] - aod_slice[0]
        self.port_head = (MLP([n_aod, cfg.embed_width, cfg.mlp_hidden, n_ports],
                              rng, f"{name}.port") if n_ports else None)
        for head in filter(None, (self.angle_head, self.port_head)):
            head.layers[-1].w.value[...] = 0.0
            head.layers[-1].b.value[...] = 0.0
        self.hidden_size = cfg.gru_hidden if recurrent else 0

    def stacks(self):
        ss = self.embed.stacks() + self.value_head.stacks() + self.angle_head.stacks()
        if self.port_head is not None:
            ss += self.port_head.stacks()
        if self.gru is not None:
            ss += self.gru.stacks()
        return ss

    @property
    def n_agents(self) -> int:
        return len(self.embed.w.params)

    def initial_state(self, rows: int = 1) -> np.ndarray:
        """The agents' (A, rows, hidden) recurrent states before the first
        slot, one row per episode."""
        return np.zeros((self.n_agents, rows, max(self.hidden_size, 1)))

    def _embed(self, x):
        e_pre, c_embed = self.embed.forward(x)
        return np.maximum(e_pre, 0.0), e_pre > 0.0, c_embed

    def _heads(self, trunk, x):
        """The steering Q-values and port advantages (q, port) from the
        trunk features and the raw input, for one slot or a stack of
        them, and the heads' caches."""
        value, c_value = self.value_head.forward(trunk)
        adv_angle, c_angle = self.angle_head.forward(trunk)
        q = value + (adv_angle - adv_angle.mean(axis=-1, keepdims=True))
        port = port_raw = c_port = None
        if self.port_head is not None:
            lo, hi = self.aod_slice
            port_raw, c_port = self.port_head.forward(
                np.cos(math.pi * x[..., lo:hi]))
            port = port_raw - port_raw.mean(axis=-1, keepdims=True)
        return (q, port), (c_value, c_angle, c_port, port_raw)

    def step(self, x: np.ndarray, h: np.ndarray):
        """One slot of B episodes played in lockstep, for acting: (q, port),
        the (A, B, N_STEER) steering Q-values and (A, B, n_ports) port
        advantages or None, and the (A, B, hidden) next recurrent states,
        from the agents' (A, B, n_in) inputs and (A, B, hidden) states, one
        row per episode.  Each (agent, episode) is a one-row block of the
        (A, B, 1, ·) stacks the layers see, not a row of an (A, B, ·)
        matrix, whose product rounds differently; so a row gives the values
        a call with B = 1 gives, and forward gives them too, bit for bit.
        No cache is kept."""
        x = np.asarray(x, float)[:, :, None, :]
        trunk, _, _ = self._embed(x)
        if self.gru is not None:
            trunk, _ = self.gru.step(self.gru.project(trunk), h[:, :, None, :])
            h = trunk[:, :, 0]
        (q, port), _ = self._heads(trunk, x)
        return (q[:, :, 0], None if port is None else port[:, :, 0]), h

    def forward(self, xs: np.ndarray):
        """(q, port), the steering Q-values (A, T, N_STEER) and the port
        advantages (A, T, n_ports) or None, of the agents' (A, T, n_in)
        input sequences from the initial recurrent states, and the cache
        for backward.  Each (agent, slot) is a one-row block of the
        (A, T, 1, ·) stacks the layers see."""
        xs = np.asarray(xs, float)[:, :, None, :]
        trunk, mask, c_embed = self._embed(xs)
        c_gru = None
        if self.gru is not None:
            trunk, c_gru = self.gru.forward(trunk, self.initial_state())
        (q, port), c_heads = self._heads(trunk, xs)
        port = None if port is None else port[:, :, 0]
        return (q[:, :, 0], port), (c_embed, mask, c_gru, c_heads)

    def backward(self, dq: np.ndarray, cache, port_fit=None):
        """Backprop through time of the loss gradient dq (A, T, N_STEER)
        on forward's steering Q-values, and into the port head: a net with
        one needs port_fit = (ports, targets), an (A, T) port index and
        target per agent and slot.

        The port head receives the gradient of (raw_score[port] - target)^2
        on its uncentered output and nothing from dq: the trainer fits it
        to the agent's own credit for the port it chose (see
        difference_credit), while dq trains the value, steering and
        recurrent stack.
        """
        c_embed, mask, c_gru, (c_value, c_angle, c_port, port_raw) = cache
        dangle = dq[:, :, None, :]
        if self.port_head is not None:
            ports, targets = port_fit
            agents, slots = np.indices(ports.shape)
            dport = np.zeros_like(port_raw)
            dport[agents, slots, 0, ports] = 2.0 * (
                port_raw[agents, slots, 0, ports] - targets)
            # reaches only its own stack
            self.port_head.backward(dport, c_port)
        dvalue = dangle.sum(axis=-1, keepdims=True)        # dense value gradient
        dangle = dangle - dangle.mean(axis=-1, keepdims=True)  # centering Jacobian
        dhid = self.angle_head.backward(dangle, c_angle)
        dhid = dhid + self.value_head.backward(dvalue, c_value)
        if self.gru is not None:
            dhid, _ = self.gru.backward(dhid, c_gru)
        self.embed.backward(dhid * mask, c_embed)

    def port_fit_loss(self, cache, port_fit) -> np.ndarray:
        """Per agent and slot (A, T), the regression loss whose gradient
        backward's port_fit applies to the port head."""
        ports, targets = port_fit
        port_raw = cache[-1][-1]
        agents, slots = np.indices(ports.shape)
        return (port_raw[agents, slots, 0, ports] - targets) ** 2


class Coordinator(Module):
    """Attention summary of the joint recent state-action history: one
    stacked block of attn_units heads attends over the embedded rows."""

    def __init__(self, row_dim: int, cfg, rng, name="coord"):
        self.row_embed = Linear(row_dim, cfg.embed_width, rng, f"{name}.embed")
        self.heads = stack_agents([AttentionUnit(cfg.embed_width, cfg.attn_width,
                                                 rng, f"{name}.att{i}")
                                   for i in range(cfg.attn_units)])
        self.out_mlp = MLP([cfg.attn_units * cfg.attn_width, cfg.mlp_hidden,
                            cfg.omega_width], rng, f"{name}.out")

    def params(self):
        return self.row_embed.params() + self.heads.params() + self.out_mlp.params()

    def forward(self, rows: np.ndarray, mask: np.ndarray):
        """Context vectors (T, omega_width) of a (T, window, row_dim) stack
        of history windows, each with its row of the (T, window) mask of
        real rows."""
        if not mask.any(axis=-1).all():
            raise ValueError("history window has no valid rows")
        # the dense layers see one agent: a unit agent axis leads
        e_pre, c_embed = self.row_embed.forward(rows[None])
        e_pre = e_pre[0]
        act_mask = e_pre > 0.0
        e = np.maximum(e_pre, 0.0)
        keep = mask[..., None]
        n_valid = mask.sum(axis=-1, keepdims=True)
        out, c_heads = self.heads.forward(e, mask)
        pooled = np.where(keep, out, 0.0).sum(axis=-2) / n_valid   # (A, T, width)
        # one row per slot, as a copy: a strided view rounds the products differently
        concat = np.concatenate(pooled, axis=-1)[None, :, None]
        omega, c_out = self.out_mlp.forward(concat)
        return omega[0, :, 0], (c_embed, act_mask, keep, n_valid, c_heads, c_out)

    def backward(self, domega: np.ndarray, cache):
        c_embed, act_mask, keep, n_valid, c_heads, c_out = cache
        dconcat = self.out_mlp.backward(domega[None, :, None], c_out)[0, :, 0]
        dpool = dconcat.reshape(len(dconcat), -1, self.heads.n_att).swapaxes(0, 1)
        dpooled = dpool / n_valid
        de = self.heads.backward(np.where(keep, dpooled[..., None, :], 0.0), c_heads)
        self.row_embed.backward((de * act_mask)[None], c_embed)


MIX_LEAK = 0.2   # hidden-layer slope for negative inputs; Q sums are
                 # negative almost always, a saturating unit would cut the
                 # gradient path to every local network


class Mixer(Module):
    """Hypernetwork mixer: weights for combining the local Q-values are
    produced from the context vector; absolute values keep the global
    Q monotone in every local Q (QMIX).

    Hypernetwork output biases start at plain-sum mixing so the local
    networks receive full-strength gradients from the first update.
    """

    def __init__(self, n_agents: int, cfg, rng, mode="hyper", name="mixer"):
        self.mode = mode
        self.n_agents = n_agents
        self.hidden = cfg.mixing_hidden
        if mode == "hyper":
            self.h_w1 = Linear(cfg.omega_width, n_agents * self.hidden, rng,
                               f"{name}.h_w1")
            self.h_b1 = Linear(cfg.omega_width, self.hidden, rng, f"{name}.h_b1")
            self.h_w2 = Linear(cfg.omega_width, self.hidden, rng, f"{name}.h_w2")
            self.h_b2 = Linear(cfg.omega_width, 1, rng, f"{name}.h_b2")
            self.h_w1.b.value[...] = 1.0
            self.h_w2.b.value[...] = 1.0 / self.hidden

    def params(self):
        if self.mode != "hyper":
            return []
        return (self.h_w1.params() + self.h_b1.params() + self.h_w2.params()
                + self.h_b2.params())

    def forward(self, q_locals: np.ndarray, omega: np.ndarray):
        """Global Q-values (T,) of the (T, n_agents) chosen local Q-values
        and the (T, omega_width) contexts."""
        if self.mode == "sum":
            return q_locals.sum(axis=-1), None
        omega = omega[None, :, None]   # one agent, one row per slot
        w1_raw, c_w1 = self.h_w1.forward(omega)
        w1_raw = w1_raw[0].reshape(-1, self.n_agents, self.hidden)
        b1, c_b1 = self.h_b1.forward(omega)
        w2_raw, c_w2 = self.h_w2.forward(omega)
        b2, c_b2 = self.h_b2.forward(omega)
        b1, w2_raw, b2 = b1[0], w2_raw[0], b2[0]
        w1 = np.abs(w1_raw)
        w2 = np.abs(w2_raw)
        q = q_locals[:, None]
        pre = q @ w1 + b1
        hid = np.where(pre > 0.0, pre, MIX_LEAK * pre)
        out = hid @ w2.swapaxes(-1, -2) + b2
        cache = (q, w1_raw, w1, pre, hid, w2_raw, w2, c_w1, c_b1, c_w2, c_b2)
        return out[:, 0, 0], cache

    def backward(self, dout, cache):
        """(dq_locals, domega) for the (T,) gradient dout on forward's
        output; domega is None in sum mode."""
        if self.mode == "sum":
            return np.repeat(dout[:, None], self.n_agents, axis=-1), None
        (q, w1_raw, w1, pre, hid, w2_raw, w2, c_w1, c_b1, c_w2, c_b2) = cache
        dout = dout[:, None, None]
        dhid = dout * w2
        dw2 = dout * hid
        dpre = dhid * np.where(pre > 0.0, 1.0, MIX_LEAK)
        dq = (w1 @ dpre.swapaxes(-1, -2))[:, :, 0]
        dw1 = q.swapaxes(-1, -2) * dpre * np.sign(w1_raw)
        dw2 = dw2 * np.sign(w2_raw)
        domega = self.h_w1.backward(dw1.reshape(len(dout), 1, -1)[None], c_w1)
        domega = domega + self.h_b1.backward(dpre[None], c_b1)
        domega = domega + self.h_w2.backward(dw2[None], c_w2)
        domega = domega + self.h_b2.backward(dout[None], c_b2)
        return dq, domega[0, :, 0]


def _team_columns(rows: list[np.ndarray]) -> np.ndarray:
    """The local nets' (A, T) per-agent rows as one C-contiguous (T,
    agents) array, one column per agent in team order: the layout the
    mixer's per-slot products need."""
    return np.ascontiguousarray(np.concatenate(rows).T)


# ---------------------------------------------------------------------------
# policy container


class PolicyNets(Module):
    """All trainable pieces for one scheme, plus shape bookkeeping.  A
    scheme that does not train has none."""

    def __init__(self, cfg: ExperimentConfig, scheme: str,
                 rng: np.random.Generator):
        trains, ports, recurrent, coord, mixer_mode = SCHEME_TRAITS[scheme]
        mcfg = cfg.marl
        n_ports = cfg.channel.n_ports
        # a net's inputs: observations (PositioningEnv.observations), then
        # previous actions (encode_actions); a passive UAV's departure angles
        # sit between its position (the active UAV's observation) and range
        observed = PositioningEnv(cfg, None).observations()
        self.input_widths = [obs.shape[-1] + act.shape[-1] for obs, act in zip(
            observed,
            encode_actions(np.zeros(N_AGENTS, int), np.ones(4, int), n_ports))]
        aod_slice = (observed[0].shape[-1], observed[1].shape[-1] - 1)
        active_in, passive_in = self.input_widths

        def local_net(k, n_in):
            head_ports = n_ports if (k > 0 and ports) else 0
            return LocalQNet(n_in, head_ports, aod_slice, mcfg, rng,
                             recurrent=recurrent, name=f"local{k}")

        # the active UAV's net, then one net stacking the four passive
        # UAVs' on a leading agent axis; the agents' initial weights are
        # drawn agent by agent, in team order
        self.local: list[LocalQNet] = []
        if trains:
            self.local = [local_net(0, active_in),
                          stack_agents([local_net(k, passive_in)
                                        for k in range(1, N_AGENTS)])]
        # the team agents each local net runs
        self.agent_slices = [slice(0, 1), slice(1, N_AGENTS)]
        self.row_dim = active_in + 4 * passive_in
        self.coordinator = (Coordinator(self.row_dim, mcfg, rng)
                            if trains and coord else None)
        self.mixer = Mixer(N_AGENTS, mcfg, rng, mode=mixer_mode) if trains else None
        self.omega_width = mcfg.omega_width

    def local_agents(self):
        """Each local net with the slice of team agents (0 active, 1-4
        passive) that it runs."""
        return zip(self.local, self.agent_slices)

    def modules(self) -> list[Module]:
        mods: list[Module] = list(self.local)
        if self.coordinator is not None:
            mods.append(self.coordinator)
        if self.mixer is not None:
            mods.append(self.mixer)
        return mods

    def params(self) -> list[Param]:
        return [p for m in self.modules() for p in m.params()]


# ---------------------------------------------------------------------------
# training log


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_error: float
    mean_reward: float
    loss: float
    violations: int
    epsilon: float


@dataclass
class TrainingLog:
    scheme: str
    seed: int
    records: list = field(default_factory=list)

    def final_mean_error(self, last_n: int = 20) -> float:
        tail = self.records[-last_n:]
        return float(np.mean([r.mean_error for r in tail]))

    def to_jsonl(self) -> str:
        lines = [json.dumps({"scheme": self.scheme, "seed": self.seed},
                            sort_keys=True)]
        lines += [json.dumps(dataclasses.asdict(r), sort_keys=True)
                  for r in self.records]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trainer


class MarlTrainer:
    """Rollout, loss, explicit backprop and parameter updates for the
    scheme cfg.run.scheme.  Baselines reuse the same machinery with pieces
    disabled."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.scheme = cfg.run.scheme
        seq = np.random.SeedSequence(cfg.run.seed)
        init_ss, env_ss, pol_ss = seq.spawn(3)
        self.init_rng = np.random.Generator(np.random.PCG64(init_ss))
        self.env_rng = np.random.Generator(np.random.PCG64(env_ss))
        self.policy_rng = np.random.Generator(np.random.PCG64(pol_ss))

        self.trains = SCHEME_TRAITS[self.scheme][0]
        self.nets = PolicyNets(cfg, self.scheme, self.init_rng)
        self.target_nets = PolicyNets(cfg, self.scheme, self.init_rng)
        self.target_nets.copy_from(self.nets)
        self.updates = 0
        self.n_ports = cfg.channel.n_ports
        # process time run() has spent playing episodes and learning, that
        # run()'s env has spent in PositioningEnv.step (and in its solver),
        # and that every td_targets call has taken; in run() env_s and
        # target_s are parts of the first two
        self.rollout_s = 0.0
        self.env_s = 0.0
        self.solver_s = 0.0
        self.learn_s = 0.0
        self.target_s = 0.0

    # -- schedules ------------------------------------------------------------

    def schedule(self, episode: int, total: int) -> tuple[float, float, float]:
        """(epsilon, port exploration rate, learning-rate scale) for training
        episode `episode` of `total`.  Epsilon anneals linearly from EPS_START
        to EPS_END over the first ANNEAL_FRACTION of the episodes (1 for a
        scheme that does not train).  The port rate is epsilon, but at least
        a floor that holds at PORT_EPS_FLOOR and fades out over the last
        sixth of training, so late rollouts reflect the learned ports.  The
        rate decays linearly to LR_FINAL_FRACTION."""
        horizon = max(int(ANNEAL_FRACTION * total), 1)
        frac = min(episode / horizon, 1.0)
        epsilon = (EPS_START + frac * (EPS_END - EPS_START)
                   if self.trains else 1.0)
        progress = episode / max(total - 1, 1)
        port_floor = PORT_EPS_FLOOR * min(1.0, 6.0 * max(1.0 - progress, 0.0))
        lr_scale = 1.0 - (1.0 - LR_FINAL_FRACTION) * progress
        return epsilon, max(epsilon, port_floor), lr_scale

    # -- per-slot plumbing ----------------------------------------------------

    def _agent_inputs(self, episode: EpisodeData, previous: bool) -> list:
        """Per local net, its agents' (A, T, n_in) inputs: each slot's
        observations and the features (encode_actions) of the actions taken
        in the slot before, zero at the first slot, as the net read them to
        act (previous), or of the slot's own actions."""
        encoded = encode_actions(episode.steer.T, episode.ports.T, self.n_ports)
        if previous:
            encoded = [np.concatenate([np.zeros_like(enc[:, :1]), enc[:, :-1]],
                                      axis=1) for enc in encoded]
        return [np.concatenate([obs, enc], axis=-1)
                for obs, enc in zip(episode.observations, encoded)]

    def _windows(self, episode: EpisodeData):
        """Every slot's history window as one (T, history_window, row_dim)
        stack of the latest joint rows, zero rows before the first slot,
        and the (T, history_window) mask of real rows.  A slot's joint row
        holds every agent's observation and the action taken on it, in team
        order."""
        t_h = self.cfg.marl.history_window
        inputs = self._agent_inputs(episode, previous=False)
        rows = np.concatenate([xs.swapaxes(0, 1).reshape(len(episode), -1)
                               for xs in inputs], axis=1)
        padded = np.concatenate([np.zeros((t_h - 1, rows.shape[1])), rows])
        index = np.arange(len(rows))[:, None] + np.arange(t_h)
        return padded[index], index >= t_h - 1

    def act(self, values, epsilon: float, port_eps: float,
            rng: np.random.Generator, ports: np.ndarray):
        """The team's actions for one slot, (steer, ports): the (N_AGENTS,)
        steering combos and the passive UAVs' (4,) 1-based ports, as
        PositioningEnv.step takes them.  values holds each local net's
        (q, port) as LocalQNet.step returns them for this episode alone
        (B = 1), in PolicyNets.local_agents() order (none for the random
        scheme).

        ports are the selectable ports, in ascending order.  The random
        scheme draws each agent's action uniformly: one draw over the
        steering combos for the active UAV, and one over the steering
        combos times ports for each passive UAV.  Otherwise the active UAV
        is epsilon-greedy over steering, and so are passive UAVs without
        learned ports, which take uniform ports drawn for all four at the
        start of the slot.  With learned ports the greedy action is the
        first maximum of q and the selectable port with the first maximum
        advantage, and each factor draws its own exploration coin, the
        port's with port_eps: a single epsilon-greedy over the joint
        actions stops producing counterfactual port data the moment the
        policy goes greedy, and the port ranking then freezes at whatever
        the anneal phase reached.
        """
        steer = np.zeros(N_AGENTS, int)
        if not self.trains:
            chosen = np.zeros(4, int)
            steer[0] = rng.integers(N_STEER)
            for k in range(1, N_AGENTS):
                steer[k], i = divmod(int(rng.integers(N_STEER * len(ports))),
                                     len(ports))
                chosen[k - 1] = ports[i]
            return steer, chosen
        q = np.concatenate([q for q, _ in values])[:, 0]
        _, port_adv = values[1]   # the passive UAVs'; None: no port head
        if port_adv is None:
            chosen = ports[rng.integers(len(ports), size=4)]
        else:
            chosen = ports[np.argmax(port_adv[:, 0, ports - 1], axis=-1)]
        for k in range(N_AGENTS):
            if k == 0 or port_adv is None:
                steer[k] = select_action(q[k], epsilon, rng)
                continue
            steer[k] = np.argmax(q[k])
            if epsilon > 0.0 and rng.uniform() < epsilon:
                yaw = rng.integers(N_ANGLE)
                steer[k] = yaw * N_ANGLE + rng.integers(N_ANGLE)
            if port_eps > 0.0 and rng.uniform() < port_eps:
                chosen[k - 1] = ports[rng.integers(len(ports))]
        return steer, chosen

    # -- rollout --------------------------------------------------------------

    def rollout(self, envs: list[PositioningEnv], epsilon: float,
                port_eps: float | None = None,
                rngs: list[np.random.Generator] | None = None,
                port_menu=None) -> list[EpisodeData]:
        """Play one episode of each of envs in lockstep and return each
        env's record of it (PositioningEnv.episode), in envs order.

        Steering explores with probability epsilon, ports with port_eps
        (default: epsilon); episode b draws from rngs[b] (default: every
        episode from the trainer's policy stream).  port_menu restricts the
        passive UAVs to those ports of the grid (ValueError if it is empty
        or holds anything else).  Each slot, each local net makes one
        LocalQNet.step call for all its agents in all episodes, and each
        episode then acts and steps its own env, so an episode with its own
        env and rng is recorded bit for bit as when played alone.  The nets
        keep no caches: the learner derives their inputs from the record
        and replays them in one sequence pass.  rollout only picks the
        actions: each env keeps its own record and times its own step.
        """
        rngs = [self.policy_rng] * len(envs) if rngs is None else rngs
        port_eps = epsilon if port_eps is None else port_eps
        ports = np.arange(1, self.n_ports + 1)
        if port_menu is not None:
            if not (np.size(port_menu) and np.isin(port_menu, ports).all()):
                raise ValueError(f"port menu {np.asarray(port_menu).tolist()} "
                                 f"is not a nonempty set of ports in "
                                 f"1..{self.n_ports}")
            ports = np.unique(np.asarray(port_menu, dtype=int))
        slots = {env.cfg.world.slots_per_episode for env in envs}
        if len(slots) != 1 or len(rngs) != len(envs):
            raise ValueError("rollout needs at least one env, one rng per "
                             "env and one episode length")
        observations = [env.reset() for env in envs]
        # each episode's nets' agents' previous-action features: none
        # before slot 0
        previous = [[np.zeros((len(obs), width - obs.shape[-1])) for obs, width
                     in zip(first, self.nets.input_widths)]
                    for first in observations]
        hidden = [net.initial_state(len(envs)) for net in self.nets.local]
        for _ in range(slots.pop()):
            values = []     # [i] -> net i's (q, port) over the episodes
            for i, net in enumerate(self.nets.local):
                x = np.stack([np.concatenate([obs[i], prev[i]], axis=-1)
                              for obs, prev in zip(observations, previous)],
                             axis=1)
                value, hidden[i] = net.step(x, hidden[i])
                values.append(value)
            for b, (env, rng) in enumerate(zip(envs, rngs)):
                steer, chosen = self.act(
                    [tuple(None if v is None else v[:, b:b + 1] for v in value)
                     for value in values], epsilon, port_eps, rng, ports)
                previous[b] = encode_actions(steer, chosen, self.n_ports)
                observations[b], _ = env.step(steer, chosen)
        return [env.episode() for env in envs]

    # -- targets and loss -----------------------------------------------------

    def _replay(self, nets: PolicyNets, episode: EpisodeData):
        """Each of nets' local Q-nets run once over its agents' recorded
        inputs from fresh recurrent states: [i] -> ((q, port), cache), as
        LocalQNet.forward returns them."""
        return [net.forward(xs) for net, xs
                in zip(nets.local, self._agent_inputs(episode, previous=True))]

    def _mix(self, nets: PolicyNets, q_chosen: np.ndarray, windows):
        """Global Q (T,) of the chosen local Q-values (T, N_AGENTS): the
        coordinator's context over each slot's recent joint history
        (_windows) drives the mixer."""
        if nets.coordinator is not None:
            omega, c_coord = nets.coordinator.forward(*windows)
        else:
            omega, c_coord = np.zeros((len(q_chosen), nets.omega_width)), None
        q_total, c_mix = nets.mixer.forward(q_chosen, omega)
        return q_total, (c_coord, c_mix)

    def td_targets(self, episode: EpisodeData) -> np.ndarray:
        """Bootstrapped TD targets (T,) for the mixed global Q: the target
        networks' mixed value at per-agent greedy actions."""
        started = time.process_time()
        tnets = self.target_nets
        # the greedy action's value q[s] + port[p] is the sum of the
        # maxima: rounded addition is monotone in each argument
        greedy = _team_columns([q.max(axis=-1) if port is None
                                else q.max(axis=-1) + port.max(axis=-1)
                                for (q, port), _ in self._replay(tnets, episode)])
        boot = self._mix(tnets, greedy, self._windows(episode))[0]
        targets = build_td_targets(training_rewards(episode), boot[1:],
                                   DISCOUNT)
        self.target_s += time.process_time() - started
        return targets

    def episode_loss(self, episode: EpisodeData, targets: np.ndarray,
                     weights: np.ndarray | None = None, backward: bool = True):
        """The loss training applies for one episode, and its gradient.

        The live nets run once over the whole episode: the local nets over
        their recorded inputs, the coordinator over every history window,
        the mixer over every slot.  The TD loss compares the mixed global Q
        of the chosen actions with targets (td_targets).  weights are the
        TD-sign weights (computed here when None).  With backward, gradients
        accumulate into every parameter: the TD gradient through the
        mixer, the coordinator and each local net (backprop through time),
        except that each port head receives the gradient of its
        port-credit fit (LocalQNet.backward's port_fit).  Returns (TD loss,
        port-fit loss, weights).
        """
        nets = self.nets
        T = len(episode)
        # the team's (N_AGENTS, T, 1) chosen steering combos and port
        # indices, port - 1 (the active UAV, agent 0, picks no port)
        steer = episode.steer.T[..., None]
        port_ids = np.column_stack([np.zeros(T, int),
                                    episode.ports - 1]).T[..., None]
        replay = self._replay(nets, episode)
        q_chosen = []
        for ((q, port), _), (_, agents) in zip(replay, nets.local_agents()):
            value = np.take_along_axis(q, steer[agents], axis=-1)
            if port is not None:   # action (s, p) is worth q[s] + port[p]
                value = value + np.take_along_axis(port, port_ids[agents], axis=-1)
            q_chosen.append(value[..., 0])
        q_mix, (c_coord, c_mix) = self._mix(nets, _team_columns(q_chosen),
                                            self._windows(episode))
        td_loss, weights = weighted_td_loss(q_mix, targets, DELTA, weights)
        if not math.isfinite(td_loss):
            raise TrainingDiverged(
                "TD loss is not finite",
                {"loss": td_loss, "q": q_mix.tolist(),
                 "targets": targets.tolist()})
        # each port head's targets: per agent and slot, the chosen port's
        # index and the agent's credit for it (the active UAV, column 0,
        # picks no port)
        credit = np.column_stack([np.zeros(T), difference_credit(episode)])
        fits = [None if net.port_head is None
                else (port_ids[agents, :, 0], credit[:, agents].T)
                for net, agents in nets.local_agents()]
        fit_losses = [net.port_fit_loss(cache, fit)
                      for net, (_, cache), fit in zip(nets.local, replay, fits)
                      if fit is not None]
        port_loss = float(sum(loss.sum() for loss in fit_losses))
        if not backward:
            return td_loss, port_loss, weights

        dq, domega = nets.mixer.backward(2.0 * weights * (q_mix - targets), c_mix)
        if nets.coordinator is not None:
            nets.coordinator.backward(domega, c_coord)
        for (net, agents), (_, cache), fit in zip(nets.local_agents(), replay, fits):
            dq_steer = np.zeros((net.n_agents, T, N_STEER))
            np.put_along_axis(dq_steer, steer[agents], dq[:, agents].T[..., None],
                              axis=-1)
            net.backward(dq_steer, cache, port_fit=fit)
        return td_loss, port_loss, weights

    # -- updates --------------------------------------------------------------

    def _apply_sgd(self, lr_scale: float):
        for net in self.nets.local:
            if net.port_head is not None:
                for s in net.port_head.stacks():
                    s.grad *= PORT_LR_MULTIPLIER
        params = self.nets.params()
        total = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
        scale = 1.0 if total <= GRAD_CLIP else GRAD_CLIP / total
        rate = LEARNING_RATE * lr_scale
        for p in params:
            p.value -= rate * scale * p.grad
        self.nets.zero_grads()
        self.updates += 1
        if self.updates % TARGET_SYNC == 0:
            self.target_nets.copy_from(self.nets)

    def train_on_episode(self, episode: EpisodeData,
                         lr_scale: float = 1.0) -> float:
        """One update from a played episode; returns the TD loss."""
        loss, _, _ = self.episode_loss(episode, self.td_targets(episode))
        self._apply_sgd(lr_scale)
        return loss

    # -- main loop ------------------------------------------------------------

    def run(self) -> TrainingLog:
        cfg = self.cfg
        log = TrainingLog(scheme=self.scheme, seed=cfg.run.seed)
        env = PositioningEnv(cfg, self.env_rng)
        try:
            self._run_epochs(env, log)
        except TrainingDiverged as exc:
            exc.log = log
            raise
        finally:
            self.env_s += env.step_s
            self.solver_s += env.solver_s
        return log

    def _run_epochs(self, env: PositioningEnv, log: TrainingLog):
        cfg = self.cfg
        total_eps = cfg.run.epochs * cfg.run.episodes_per_epoch
        ep_index = 0
        for epoch in range(cfg.run.epochs):
            errs, rews, losses, viols = [], [], [], 0
            eps = 0.0
            for _ in range(cfg.run.episodes_per_epoch):
                eps, port_eps, lr_scale = self.schedule(ep_index, total_eps)
                started = time.process_time()
                episode, = self.rollout([env], eps, port_eps=port_eps)
                played = time.process_time()
                loss = (self.train_on_episode(episode, lr_scale)
                        if self.trains else 0.0)
                self.rollout_s += played - started
                self.learn_s += time.process_time() - played
                ep_index += 1
                errs.extend(episode.errors)
                rews.extend(slot_rewards(episode))
                losses.append(loss)
                viols += int(np.sum(~episode.feasible))
            log.records.append(EpochRecord(
                epoch=epoch,
                mean_error=float(np.mean(errs)),
                mean_reward=float(np.mean(rews)),
                loss=float(np.mean(losses)),
                violations=viols,
                epsilon=float(eps)))

    # -- checkpoints ----------------------------------------------------------

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        return self.nets.named_values()

    def load_checkpoint_arrays(self, arrays: dict[str, np.ndarray]):
        """Load every parameter of the scheme's nets from arrays, which
        must hold no other array."""
        extra = sorted(set(arrays) - set(self.checkpoint_arrays()))
        if extra:
            raise ValueError(f"{len(extra)} checkpoint arrays are not "
                             f"{self.scheme} parameters, e.g. {extra[0]}")
        self.nets.load_values(arrays)
        self.target_nets.copy_from(self.nets)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_rollouts(cfg: ExperimentConfig, trainer: MarlTrainer,
                      episodes: int, seed: int,
                      port_menu=None) -> dict:
    """Greedy (epsilon=0) rollouts with per-episode reseeded environment
    and policy streams, (seed, ep, 0) and (seed, ep, 1), so different
    policies or port menus face identical channel, shadowing and
    measurement randomness episode for episode.  All episodes play in
    lockstep, in one MarlTrainer.rollout call."""
    if episodes < 1:
        raise ValueError("need at least one evaluation episode")
    if seed < 0:
        raise ValueError(f"evaluation seed must be non-negative, got {seed}")

    def stream(ep, which):
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, ep, which))))

    envs = [PositioningEnv(cfg, stream(ep, 0)) for ep in range(episodes)]
    rngs = [stream(ep, 1) for ep in range(episodes)]
    errors, rewards = [], []
    stale_slots = 0
    violation_slots = 0
    for played in trainer.rollout(envs, 0.0, rngs=rngs, port_menu=port_menu):
        errors.extend(played.errors)
        rewards.extend(slot_rewards(played))
        stale_slots += int(played.stales.sum())
        violation_slots += int((~played.feasible).sum())
    return {
        "episodes": episodes,
        "mean_error": float(np.mean(errors)),
        "std_error": float(np.std(errors)),
        "mean_reward": float(np.mean(rewards)),
        "stale_rate": stale_slots / len(errors),
        "violation_rate": violation_slots / len(errors),
    }


# ---------------------------------------------------------------------------
# end-to-end gradient verification


def micro_gradcheck(cfg: ExperimentConfig) -> float:
    """Finite-difference check of the gradient training applies, on one
    short episode.

    The analytic gradient comes from MarlTrainer.episode_loss, as in
    train_on_episode; the central differences, of step 1e-5, go through
    the same function, forward only, with the TD
    targets and TD-sign weights held at the base point so the loss stays
    differentiable across the stencil.  Every parameter outside the port
    heads is checked against the TD loss, and the port heads against
    their port-credit fit.  The port heads' output layers start at zero,
    which with zero credit would zero their gradient, so they are first
    perturbed from a fixed seed.  Returns the worst relative error.
    """
    from .nn import finite_diff_check

    trainer = MarlTrainer(cfg)
    if not trainer.trains:
        raise ValueError("gradient check needs a trainable scheme")
    port_params = [p for net in trainer.nets.local if net.port_head is not None
                   for p in net.port_head.params()]
    perturb = np.random.default_rng(0)
    for net in trainer.nets.local:
        if net.port_head is not None:
            for p in net.port_head.layers[-1].params():
                p.value += 0.1 * perturb.standard_normal(p.value.shape)

    env = PositioningEnv(cfg, trainer.env_rng)
    episode, = trainer.rollout([env], epsilon=0.3)
    targets = trainer.td_targets(episode)
    trainer.nets.zero_grads()
    _, _, weights = trainer.episode_loss(episode, targets)
    if port_params and not any(np.any(p.grad) for p in port_params):
        raise RuntimeError("the port heads' gradient is zero")

    def losses():
        return trainer.episode_loss(episode, targets, weights, backward=False)

    in_port_heads = {id(p) for p in port_params}
    others = [p for p in trainer.nets.params() if id(p) not in in_port_heads]
    return max(finite_diff_check(lambda: losses()[0], others, eps=1e-5),
               finite_diff_check(lambda: losses()[1], port_params, eps=1e-5))


def micro_config() -> ExperimentConfig:
    """Shrunken sizes for gradient checks: tiny nets, few ports and paths,
    two-slot episodes."""
    return apply_overrides(ExperimentConfig(), [
        "world.slots_per_episode=2", "channel.n_ports=3", "channel.n_paths=2",
        "marl.gru_hidden=6", "marl.mlp_hidden=6", "marl.embed_width=5",
        "marl.attn_units=2", "marl.attn_width=3", "marl.omega_width=4",
        "marl.history_window=2", "marl.mixing_hidden=4", "run.scheme=ar_marl"])
