"""Cooperative Q-learning for trajectory and antenna-port control.

Five agents (one active, four passive UAVs) each run a recurrent local
Q-network over their own observations.  A ground-station side attention
block summarizes the joint recent history into a context vector, and a
hypernetwork mixer folds the five chosen-action Q-values plus that
context into one global Q-value trained against a sign-weighted TD
loss.  Baselines strip individual pieces: plain-sum mixing, independent
learners, random ports, feedforward-only locals, context-free mixing,
and a uniform random policy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as ch
from . import positioning as pos
from . import world as wd
from .config import SCHEME_TRAITS, ExperimentConfig
from .nn import MLP, AttentionUnit, GRUCell, Linear, Module, Param

PENALTY_REWARD = -1.0e6
ANGLE_CHOICES = np.deg2rad([-60.0, -30.0, 0.0, 30.0, 60.0])
N_ANGLE = len(ANGLE_CHOICES)
N_AGENTS = 5
POSITION_SCALE = 1e-3
RANGE_SCALE = 1e-3


class TrainingDiverged(RuntimeError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class AgentAction:
    yaw_idx: int
    pitch_idx: int
    port: int | None = None      # 1-based; None for the active UAV

    @property
    def yaw(self) -> float:
        return float(ANGLE_CHOICES[self.yaw_idx])

    @property
    def pitch(self) -> float:
        return float(ANGLE_CHOICES[self.pitch_idx])


def active_action_count() -> int:
    return N_ANGLE * N_ANGLE


def passive_action_count(n_ports: int) -> int:
    return N_ANGLE * N_ANGLE * n_ports


def decode_action(index: int, n_ports: int | None) -> AgentAction:
    """Flat action id -> (yaw level, pitch level[, port])."""
    if n_ports is None:
        yaw, pitch = divmod(int(index), N_ANGLE)
        return AgentAction(yaw, pitch, None)
    rest, port0 = divmod(int(index), n_ports)
    yaw, pitch = divmod(rest, N_ANGLE)
    return AgentAction(yaw, pitch, port0 + 1)


def encode_action(action: AgentAction, n_ports: int | None) -> int:
    if n_ports is None:
        return action.yaw_idx * N_ANGLE + action.pitch_idx
    return ((action.yaw_idx * N_ANGLE + action.pitch_idx) * n_ports
            + (action.port - 1))


def port_menu_mask(n_actions: int, n_ports: int, menu) -> np.ndarray:
    """Boolean mask over passive action ids whose port is in menu."""
    ports = np.arange(n_actions) % n_ports + 1     # decode_action's port
    return np.isin(ports, [int(p) for p in menu])


def build_observation(agent: int, positions: np.ndarray, aod: np.ndarray,
                      prev_range: float) -> np.ndarray:
    """Raw per-agent observation.

    Agent 0 (active) sees only its own position.  Passive agent k sees
    position, the current departure angles of its uplink paths, and its
    previous slot's measured range sum (0 before the first measurement).
    """
    if agent == 0:
        return positions[0].copy()
    return np.concatenate([positions[agent], aod, [prev_range]])


def scale_observation(agent: int, obs: np.ndarray) -> np.ndarray:
    """Feature scaling applied before any network sees an observation."""
    if agent == 0:
        return obs * POSITION_SCALE
    scaled = obs.copy()
    scaled[:3] *= POSITION_SCALE
    scaled[3:-1] /= math.pi
    scaled[-1] *= RANGE_SCALE
    return scaled


def encode_prev_action(action: AgentAction | None, is_active: bool,
                       n_ports: int) -> np.ndarray:
    """Compact [-1, 1] encoding of the previous slot's action."""
    dim = 2 if is_active else 3
    if action is None:
        return np.zeros(dim)
    enc = [(action.yaw_idx - 2) / 2.0, (action.pitch_idx - 2) / 2.0]
    if not is_active:
        port = action.port if action.port is not None else 1
        enc.append(2.0 * (port - 1) / max(n_ports - 1, 1) - 1.0)
    return np.array(enc)


def reward(estimate, truth, report: wd.ConstraintReport) -> float:
    """Shared slot reward: negative position error, or the flat penalty
    whenever any feasibility constraint is broken."""
    if not report.feasible:
        return PENALTY_REWARD
    return -pos.position_error(estimate, truth)


def slot_port_credit(late: np.ndarray, report: wd.ConstraintReport,
                     train_reward: float, feasible_reward: float) -> np.ndarray:
    """Per-agent credit for the passive UAVs' port choices in one slot.

    A difference reward (Wolpert and Tumer): the shared training reward
    minus the reward had that agent's report met the latency deadline,
    everything else held fixed.  That counterfactual changes the slot
    only when agent k's is the one late report and every other
    constraint holds: the slot then turns feasible, with its reward taken
    at the realised fix (feasible_reward).  Elsewhere the credit is 0, so
    the other uplinks' deadline misses, which a port cannot change, add
    no noise to an agent's port signal.
    """
    late = np.asarray(late, dtype=bool)
    credit = np.zeros(len(late))
    if late.sum() == 1 and all(report.flags()[1:]):   # flags()[0]: latency
        credit[late] = train_reward - feasible_reward
    return credit


def select_action(q_values: np.ndarray, epsilon: float,
                  rng: np.random.Generator,
                  allowed: np.ndarray | None = None) -> int:
    """Epsilon-greedy over a Q-vector; ties break to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if allowed is None:
        if epsilon > 0.0 and rng.uniform() < epsilon:
            return int(rng.integers(0, len(q_values)))
        return int(np.argmax(q_values))
    idx = np.flatnonzero(allowed)
    if epsilon > 0.0 and rng.uniform() < epsilon:
        return int(idx[rng.integers(0, len(idx))])
    return int(idx[np.argmax(q_values[idx])])


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

    The exposed Q-vector covers the full discrete action space.  For a
    passive UAV that space factors into (steering combo, port) and the
    value decomposes additively: one dense head scores the 25 steering
    combos, a second scores the N ports, and q[a] is their sum.  Steering
    affects future geometry while the port decides this slot's uplink, so
    the additive form is the natural inductive bias and every slot trains
    all of both heads' outputs instead of one cell of a 25*N table.

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
    for the chosen port (slot_port_credit, via backward's port_fit).
    """

    def __init__(self, n_in: int, n_angle: int, n_ports: int, cfg, rng,
                 recurrent=True, name="local", aod_slice: tuple = (3, 8)):
        self.recurrent = recurrent
        self.n_angle = n_angle
        self.n_ports = n_ports            # 0 -> steering-only action space
        self.n_actions = n_angle * max(n_ports, 1)
        self.aod_slice = aod_slice
        self.embed = Linear(n_in, cfg.embed_width, rng, f"{name}.embed")
        self.gru = GRUCell(cfg.embed_width, cfg.gru_hidden, rng, f"{name}.gru") \
            if recurrent else None
        head_in = cfg.gru_hidden if recurrent else cfg.embed_width
        self.value_head = Linear(head_in, 1, rng, f"{name}.value")
        self.value_head.w.value[...] = 0.0
        self.value_head.b.value[...] = 0.0
        self.angle_head = MLP([head_in, cfg.mlp_hidden, n_angle], rng,
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

    def params(self):
        ps = self.embed.params() + self.value_head.params() + self.angle_head.params()
        if self.port_head is not None:
            ps += self.port_head.params()
        if self.gru is not None:
            ps += self.gru.params()
        return ps

    def initial_state(self) -> np.ndarray:
        return np.zeros(max(self.hidden_size, 1))

    def forward(self, x: np.ndarray, h: np.ndarray):
        e_pre, c_embed = self.embed.forward(x)
        mask = e_pre > 0.0
        e = np.maximum(e_pre, 0.0)
        if self.gru is not None:
            h_new, c_gru = self.gru.forward(e, h)
            trunk = h_new
        else:
            h_new, c_gru = h, None
            trunk = e
        value, c_value = self.value_head.forward(trunk)
        adv_angle, c_angle = self.angle_head.forward(trunk)
        adv_angle = adv_angle - adv_angle.mean()
        q_angle = value[0] + adv_angle
        if self.port_head is not None:
            lo, hi = self.aod_slice
            port_features = np.cos(math.pi * x[lo:hi])
            port_raw, c_port = self.port_head.forward(port_features)
            q = np.add.outer(q_angle, port_raw - port_raw.mean()).ravel()
        else:
            port_raw, c_port = None, None
            q = q_angle
        return q, h_new, (c_embed, mask, c_gru, c_value, c_angle,
                          (c_port, port_raw))

    def backward(self, dq: np.ndarray, dh_next: np.ndarray, cache,
                 port_fit: tuple[int, float] | None = None):
        """Exact loss backward; port_fit = (port index, target) instead
        trains the port head on its own regression loss.

        With port_fit the port head receives the gradient of
        (raw_score[port] - target)^2 on its uncentered output and nothing
        from dq: the trainer fits it to the agent's own credit for the
        port it chose (see slot_port_credit), while dq still trains the
        value, steering and recurrent stack.
        """
        c_embed, mask, c_gru, c_value, c_angle, (c_port, port_raw) = cache
        if self.port_head is not None:
            dq_grid = dq.reshape(self.n_angle, self.n_ports)
            dangle = dq_grid.sum(axis=1)
            if port_fit is None:
                dport = dq_grid.sum(axis=0)
                dport = dport - dport.mean()          # centering Jacobian
            else:
                port, target = port_fit
                dport = np.zeros(self.n_ports)
                dport[port] = 2.0 * (port_raw[port] - target)
            self.port_head.backward(dport, c_port)  # reaches only its own stack
        else:
            dangle = dq
        dvalue = dangle.sum()                      # dense value gradient
        dangle = dangle - dangle.mean()            # centering Jacobian
        dhid = self.angle_head.backward(dangle, c_angle)
        dhid = dhid + self.value_head.backward(np.array([dvalue]), c_value)
        if self.gru is not None:
            dh_total = dhid + dh_next
            de, dh_prev = self.gru.backward(dh_total, c_gru)
        else:
            de, dh_prev = dhid, np.zeros_like(dh_next)
        self.embed.backward(de * mask, c_embed)
        return dh_prev

    def port_fit_loss(self, cache, port_fit: tuple[int, float]) -> float:
        """The regression loss whose gradient backward's port_fit applies
        to the port head."""
        port, target = port_fit
        *_, (_, port_raw) = cache
        return float((port_raw[port] - target) ** 2)


class Coordinator(Module):
    """Attention summary of the joint recent state-action history."""

    def __init__(self, row_dim: int, cfg, rng, name="coord"):
        self.row_embed = Linear(row_dim, cfg.embed_width, rng, f"{name}.embed")
        self.units = [AttentionUnit(cfg.embed_width, cfg.attn_width, rng,
                                    f"{name}.att{i}")
                      for i in range(cfg.attn_units)]
        self.out_mlp = MLP([cfg.attn_units * cfg.attn_width, cfg.mlp_hidden,
                            cfg.omega_width], rng, f"{name}.out")
        self.omega_width = cfg.omega_width

    def params(self):
        ps = self.row_embed.params()
        for u in self.units:
            ps += u.params()
        return ps + self.out_mlp.params()

    def forward(self, rows: np.ndarray, mask: np.ndarray):
        if not mask.any():
            raise ValueError("history window has no valid rows")
        e_pre, c_embed = self.row_embed.forward(rows)
        act_mask = e_pre > 0.0
        e = np.maximum(e_pre, 0.0)
        pooled, unit_caches = [], []
        n_valid = int(mask.sum())
        for unit in self.units:
            out, c = unit.forward(e, mask)
            pooled.append(out[mask].sum(axis=0) / n_valid)
            unit_caches.append(c)
        concat = np.concatenate(pooled)
        omega, c_out = self.out_mlp.forward(concat)
        width = pooled[0].shape[0]
        cache = (c_embed, act_mask, mask, n_valid, unit_caches, c_out,
                 rows.shape[0], width)
        return omega, cache

    def backward(self, domega: np.ndarray, cache):
        c_embed, act_mask, mask, n_valid, unit_caches, c_out, n_rows, width = cache
        dconcat = self.out_mlp.backward(domega, c_out)
        de = np.zeros((n_rows, act_mask.shape[1]))
        for i, unit in enumerate(self.units):
            dpooled = dconcat[i * width:(i + 1) * width]
            dout_rows = np.zeros((n_rows, width))
            dout_rows[mask] = dpooled / n_valid
            de += unit.backward(dout_rows, unit_caches[i])
        self.row_embed.backward(de * act_mask, c_embed)


MIX_LEAK = 0.2   # hidden-layer slope for negative inputs; Q sums are
                 # negative almost always, a saturating unit would cut the
                 # gradient path to every local network


class Mixer(Module):
    """Hypernetwork mixer: weights for combining the local Q-values are
    produced from the context vector; absolute values keep the global
    Q monotone in every local Q when configured.

    With monotone mixing each first-layer weight is max(|w1_raw|,
    mixing_weight_floor / mixing_hidden): a lower bound, so every agent
    keeps at least the floor's worth of mixing weight.  Where the clamp
    binds the weight does not depend on w1_raw and its gradient is zero.
    Hypernetwork output biases start at plain-sum mixing so the local
    networks receive full-strength gradients from the first update.
    """

    def __init__(self, n_agents: int, cfg, rng, mode="hyper", name="mixer"):
        self.mode = mode
        self.n_agents = n_agents
        self.monotone = cfg.monotone_mixing
        self.hidden = cfg.mixing_hidden
        self.weight_floor = cfg.mixing_weight_floor
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
        if self.mode == "sum":
            return float(q_locals.sum()), ("sum", len(q_locals))
        w1_raw, c_w1 = self.h_w1.forward(omega)
        w1_raw = w1_raw.reshape(self.n_agents, self.hidden)
        b1, c_b1 = self.h_b1.forward(omega)
        w2_raw, c_w2 = self.h_w2.forward(omega)
        b2, c_b2 = self.h_b2.forward(omega)
        w1 = (np.maximum(np.abs(w1_raw), self.weight_floor / self.hidden)
              if self.monotone else w1_raw)
        w2 = np.abs(w2_raw) if self.monotone else w2_raw
        pre = q_locals @ w1 + b1
        hid = np.where(pre > 0.0, pre, MIX_LEAK * pre)
        out = float(hid @ w2 + b2[0])
        cache = ("hyper", q_locals, w1_raw, w1, pre, hid, w2_raw, w2,
                 c_w1, c_b1, c_w2, c_b2)
        return out, cache

    def backward(self, dout: float, cache):
        if cache[0] == "sum":
            return np.full(cache[1], dout), None
        (_, q_locals, w1_raw, w1, pre, hid, w2_raw, w2,
         c_w1, c_b1, c_w2, c_b2) = cache
        dhid = dout * w2
        dw2 = dout * hid
        dpre = dhid * np.where(pre > 0.0, 1.0, MIX_LEAK)
        dq = w1 @ dpre
        dw1 = np.outer(q_locals, dpre)
        if self.monotone:
            dw1 = dw1 * np.sign(w1_raw) * (np.abs(w1_raw) > self.weight_floor
                                           / self.hidden)
            dw2 = dw2 * np.sign(w2_raw)
        domega = self.h_w1.backward(dw1.reshape(-1), c_w1)
        domega = domega + self.h_b1.backward(dpre, c_b1)
        domega = domega + self.h_w2.backward(dw2, c_w2)
        domega = domega + self.h_b2.backward(np.array([dout]), c_b2)
        return dq, domega


# ---------------------------------------------------------------------------
# policy container


class PolicyNets:
    """All trainable pieces for one scheme, plus shape bookkeeping."""

    def __init__(self, cfg: ExperimentConfig, scheme: str,
                 rng: np.random.Generator):
        self.scheme = scheme
        trains, ports, recurrent, coord, mixer_mode = SCHEME_TRAITS[scheme]
        self.learned_ports = ports
        self.recurrent = recurrent
        self.mixer_mode = mixer_mode
        mcfg = cfg.marl
        n_ports = cfg.channel.n_ports
        n_paths = cfg.channel.n_paths

        self.active_inputs = 3 + 2
        self.passive_inputs = (3 + n_paths + 1) + 3

        self.local: list[LocalQNet] = []
        if trains:
            for k in range(N_AGENTS):
                n_in = self.active_inputs if k == 0 else self.passive_inputs
                head_ports = n_ports if (k > 0 and ports) else 0
                self.local.append(LocalQNet(n_in, active_action_count(),
                                            head_ports, mcfg, rng,
                                            recurrent=recurrent,
                                            name=f"local{k}",
                                            aod_slice=(3, 3 + n_paths)))
        self.row_dim = self.active_inputs + 4 * self.passive_inputs
        self.coordinator = (Coordinator(self.row_dim, mcfg, rng)
                            if trains and coord else None)
        self.mixer = (Mixer(N_AGENTS, mcfg, rng, mode=mixer_mode)
                      if trains and mixer_mode else None)
        self.omega_width = mcfg.omega_width

    def modules(self) -> list[Module]:
        mods: list[Module] = list(self.local)
        if self.coordinator is not None:
            mods.append(self.coordinator)
        if self.mixer is not None:
            mods.append(self.mixer)
        return mods

    def params(self) -> list[Param]:
        return [p for m in self.modules() for p in m.params()]

    def zero_grads(self):
        for m in self.modules():
            m.zero_grads()

    def named_values(self) -> dict[str, np.ndarray]:
        out = {}
        for m in self.modules():
            out.update(m.named_values())
        return out

    def load_values(self, values: dict[str, np.ndarray]):
        for m in self.modules():
            m.load_values(values)

    def copy_from(self, other: "PolicyNets"):
        for dst, src in zip(self.modules(), other.modules()):
            dst.copy_from(src)


# ---------------------------------------------------------------------------
# environment


class PositioningEnv:
    """One episode of the tracking scenario.

    Each UAV keeps a persistent flight heading; an action turns it by a
    bounded yaw/pitch increment for that slot (the bounded quantity in
    the feasibility constraints is the per-slot change).  Slot order:
    agents observe (current positions, this slot's departure angles, last
    measured range sums), act, everyone moves, the bistatic ranges are
    measured at the new geometry, the passive UAVs upload through their
    chosen ports, and the ground station refreshes the fix from whichever
    reports met the latency budget.  Fewer than min_usable fresh reports
    keeps the previous fix (a stale slot).
    """

    def __init__(self, cfg: ExperimentConfig, rng: np.random.Generator):
        if cfg.world.n_controlled != N_AGENTS:
            raise ValueError("the team is fixed at 1 active + 4 passive UAVs")
        self.cfg = cfg
        self.rng = rng
        self.bs = np.array(cfg.scenario.bs_position, float)
        self.slot = 0
        self.positions = np.zeros((N_AGENTS, 3))
        self.headings = np.zeros((N_AGENTS, 2))   # persistent [yaw, pitch]
        self.traj = None
        self.estimate = np.zeros(3)
        self.prev_ranges = np.zeros(4)
        self.aods = np.zeros((4, cfg.channel.n_paths))
        self._gate_rejects = 0

    def _draw_aods(self):
        self.aods = self.rng.uniform(0.0, math.pi, size=(4, self.cfg.channel.n_paths))

    def _initial_headings(self) -> np.ndarray:
        headings = np.zeros((N_AGENTS, 2))
        if self.cfg.scenario.initial_heading == "level":
            return headings
        goal = np.array(self.cfg.target.start, float)
        wcfg = self.cfg.world
        for k in range(N_AGENTS):
            d = goal - self.positions[k]
            headings[k, 0] = math.atan2(d[1], d[0])
            pitch = math.asin(max(-1.0, min(1.0, d[2] / np.linalg.norm(d))))
            headings[k, 1] = min(max(pitch, wcfg.pitch_min), wcfg.pitch_max)
        return headings

    def reset(self) -> list[np.ndarray]:
        sc = self.cfg.scenario
        self.positions = np.vstack([np.array(sc.active_start, float),
                                    np.array(sc.passive_starts, float)])
        self.headings = self._initial_headings()
        self.traj = wd.TargetTrajectory(self.cfg.target,
                                        self.cfg.world.slot_duration)
        self.estimate = self.positions[1:].mean(axis=0)
        self.prev_ranges = np.zeros(4)
        self.slot = 0
        self._gate_rejects = 0
        self._draw_aods()
        return self.observations()

    @property
    def target_position(self) -> np.ndarray:
        return self.traj.position.copy()

    def observations(self) -> list[np.ndarray]:
        return [build_observation(k, self.positions,
                                  self.aods[k - 1] if k > 0 else None,
                                  self.prev_ranges[k - 1] if k > 0 else 0.0)
                for k in range(N_AGENTS)]

    def step(self, actions: list[AgentAction]):
        cfg = self.cfg
        wcfg = cfg.world
        params = cfg.channel

        deltas = np.zeros((N_AGENTS, 2))
        for k, act in enumerate(actions):
            deltas[k] = (act.yaw, act.pitch)
            yaw = self.headings[k, 0] + act.yaw
            yaw = (yaw + math.pi) % (2.0 * math.pi) - math.pi
            pitch = self.headings[k, 1] + act.pitch
            pitch = min(max(pitch, wcfg.pitch_min), wcfg.pitch_max)
            self.headings[k] = (yaw, pitch)
            self.positions[k] = wd.step_controlled(
                self.positions[k], wd.ControlAngles(yaw, pitch), wcfg,
                enforce_bounds=False)
        target = self.traj.step(self.rng)

        ports = np.array([a.port if a.port is not None else 1
                          for a in actions[1:]], dtype=int)

        # bistatic range measurements at the new geometry
        measurements = []
        for i in range(4):
            snr = ch.bistatic_snr(self.positions[0], self.positions[1 + i],
                                  target, params)
            m, _ = pos.true_range_sum(self.positions[0], self.positions[1 + i],
                                      target, wcfg.light_speed)
            meas = pos.sample_range(m, snr, self.rng,
                                    cfg.positioning.variance_scale,
                                    uav_index=i, light_speed=wcfg.light_speed)
            measurements.append(meas)

        # uplink through the selected ports
        gains = np.zeros(4, dtype=complex)
        for i in range(4):
            draw = ch.draw_channel(self.rng, params, aod=self.aods[i])
            r_bs = float(np.linalg.norm(self.positions[1 + i] - self.bs))
            loss = ch.path_loss_db(r_bs, params, draw.shadow_db)
            gains[i] = ch.fas_gain(draw, int(ports[i]), params, loss)
        sinrs = ch.uplink_sinr(gains, params)
        latencies = ch.uplink_latencies(sinrs, params)

        usable = [(measurements[i], self.positions[1 + i]) for i in range(4)
                  if measurements[i] is not None
                  and latencies[i] <= cfg.scenario.latency_budget]
        stale = len(usable) < cfg.positioning.min_usable
        if not stale:
            fit = pos.estimate_position(
                [m for m, _ in usable], self.positions[0],
                np.array([p for _, p in usable]), self.estimate,
                step_tol=cfg.positioning.solver_tol,
                max_iter=cfg.positioning.solver_max_iter)
            gate = cfg.positioning.innovation_gate
            if gate > 0.0:
                jump = float(np.linalg.norm(fit.position - self.estimate))
                if jump > gate * (1 + self._gate_rejects):
                    # implausible jump: treat like a missing fix
                    self._gate_rejects += 1
                    stale = True
                else:
                    self._gate_rejects = 0
                    self.estimate = fit.position
            else:
                self.estimate = fit.position

        error = pos.position_error(self.estimate, target)
        state = wd.WorldState(self.positions.copy(), target, deltas, ports,
                              self.slot)
        report = wd.check_constraints(state, latencies, wcfg,
                                      cfg.scenario.latency_budget,
                                      params.n_ports)
        reward_raw = reward(self.estimate, target, report)

        for i in range(4):
            if measurements[i] is not None:
                self.prev_ranges[i] = measurements[i].measured

        self.slot += 1
        if cfg.scenario.channel_coherence == "slot":
            self._draw_aods()

        late = latencies > cfg.scenario.latency_budget
        info = {
            "reward": reward_raw,
            "error": error,
            "stale": stale,
            "feasible": report.feasible,
            "late": late,
            "latency_violations": int(late.sum()),
            "report": report,
        }
        return self.observations(), info


# ---------------------------------------------------------------------------
# episode storage


@dataclass
class EpisodeData:
    net_inputs: list = field(default_factory=list)    # [t][k] -> np.ndarray
    action_ids: list = field(default_factory=list)    # [t][k] -> int
    actions: list = field(default_factory=list)       # [t][k] -> AgentAction
    window_rows: list = field(default_factory=list)   # [t] -> (T, row_dim)
    rewards_raw: list = field(default_factory=list)
    rewards_train: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    feasible: list = field(default_factory=list)
    stales: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    port_credit: list = field(default_factory=list)   # [t] -> (4,) credit
    live_caches: list = field(default_factory=list)   # [t][k] -> net cache
    live_q: list = field(default_factory=list)        # [t][k] -> q vector

    def __len__(self):
        return len(self.rewards_raw)


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
        for r in self.records:
            lines.append(json.dumps({
                "epoch": r.epoch, "mean_error": r.mean_error,
                "mean_reward": r.mean_reward, "loss": r.loss,
                "violations": r.violations, "epsilon": r.epsilon,
            }, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "TrainingLog":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = json.loads(lines[0])
        log = cls(scheme=head["scheme"], seed=head["seed"])
        prev_epoch = -1
        for ln in lines[1:]:
            d = json.loads(ln)
            if d["epoch"] <= prev_epoch:
                raise ValueError("epoch indices must increase")
            prev_epoch = d["epoch"]
            log.records.append(EpochRecord(**d))
        return log


# ---------------------------------------------------------------------------
# trainer


class MarlTrainer:
    """Rollout, loss, explicit backprop and parameter updates for every
    scheme.  Baselines reuse the same machinery with pieces disabled."""

    def __init__(self, cfg: ExperimentConfig, scheme: str | None = None):
        self.cfg = cfg
        self.scheme = scheme or cfg.run.scheme
        if self.scheme not in SCHEME_TRAITS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        seq = np.random.SeedSequence(cfg.run.seed)
        init_ss, env_ss, pol_ss = seq.spawn(3)
        self.init_rng = np.random.Generator(np.random.PCG64(init_ss))
        self.env_rng = np.random.Generator(np.random.PCG64(env_ss))
        self.policy_rng = np.random.Generator(np.random.PCG64(pol_ss))

        self.trains = SCHEME_TRAITS[self.scheme][0]
        self.nets = (PolicyNets(cfg, self.scheme, self.init_rng)
                     if self.trains else None)
        self.target_nets = None
        if self.trains:
            self.target_nets = PolicyNets(cfg, self.scheme, self.init_rng)
            self.target_nets.copy_from(self.nets)
        self.updates = 0
        self.inter_agent_messages = 0
        self.n_ports = cfg.channel.n_ports

    # -- schedules ------------------------------------------------------------

    def epsilon_at(self, episode_index: int, total_episodes: int) -> float:
        m = self.cfg.marl
        horizon = max(int(m.anneal_fraction * total_episodes), 1)
        frac = min(episode_index / horizon, 1.0)
        return m.eps_start + frac * (m.eps_end - m.eps_start)

    def schedule(self, progress: float) -> tuple[float, float]:
        """(learning-rate scale, port exploration floor) at a training
        progress in [0, 1].  The rate decays linearly to lr_final_fraction.
        The floor holds at port_eps_floor and fades out over the last sixth
        of training, so late rollouts reflect the learned ports."""
        m = self.cfg.marl
        lr_scale = 1.0 - (1.0 - m.lr_final_fraction) * progress
        port_floor = m.port_eps_floor * min(1.0, 6.0 * max(1.0 - progress, 0.0))
        return lr_scale, port_floor

    # -- per-slot plumbing ----------------------------------------------------

    def _window(self, episode: EpisodeData, t: int):
        t_h = self.cfg.marl.history_window
        rows = np.zeros((t_h, self.nets.row_dim))
        mask = np.zeros(t_h, dtype=bool)
        start = max(0, t + 1 - t_h)
        chunk = np.array(episode.window_rows[start:t + 1])
        rows[t_h - len(chunk):] = chunk
        mask[t_h - len(chunk):] = True
        return rows, mask

    def act(self, qs, epsilon: float, port_eps: float,
            rng: np.random.Generator, ports: np.ndarray,
            allowed: np.ndarray):
        """The team's action ids (indices into each agent's Q-vector) and
        actions for one slot.

        ports are the selectable ports; allowed masks the passive action
        ids that use them.  The random scheme draws one flat action id per
        agent.  Otherwise the active UAV is epsilon-greedy over steering,
        and so are passive UAVs without learned ports, which take uniform
        ports drawn for all four at the start of the slot.  With learned
        ports each factor draws its own exploration coin, the port's with
        port_eps: a flat epsilon-greedy over the product space stops
        producing counterfactual port data the moment the policy goes
        greedy, and the port ranking then freezes at whatever the anneal
        phase reached.
        """
        n = self.n_ports
        if self.nets is None:
            ids = [int(rng.integers(active_action_count()))]
            choices = np.flatnonzero(allowed)
            ids += [int(choices[rng.integers(len(choices))]) for _ in range(4)]
            return ids, [decode_action(a, n if k else None)
                         for k, a in enumerate(ids)]
        learned_ports = self.nets.learned_ports
        slot_ports = (None if learned_ports
                      else ports[rng.integers(len(ports), size=4)])
        ids, acts = [], []
        for k, q in enumerate(qs):
            if k == 0 or not learned_ports:
                a_id = select_action(q, epsilon, rng)
                action = decode_action(a_id, None)
                if k:
                    action = AgentAction(action.yaw_idx, action.pitch_idx,
                                         int(slot_ports[k - 1]))
            else:
                greedy = decode_action(select_action(q, 0.0, rng, allowed), n)
                yaw, pitch = greedy.yaw_idx, greedy.pitch_idx
                if epsilon > 0.0 and rng.uniform() < epsilon:
                    yaw = int(rng.integers(N_ANGLE))
                    pitch = int(rng.integers(N_ANGLE))
                port = greedy.port
                if port_eps > 0.0 and rng.uniform() < port_eps:
                    port = int(ports[rng.integers(len(ports))])
                action = AgentAction(yaw, pitch, port)
                a_id = encode_action(action, n)
            ids.append(a_id)
            acts.append(action)
        return ids, acts

    # -- rollout --------------------------------------------------------------

    def rollout(self, env: PositioningEnv, epsilon: float,
                port_eps: float | None = None,
                rng: np.random.Generator | None = None,
                port_menu=None) -> EpisodeData:
        """Play one episode of env.

        Steering explores with probability epsilon, ports with port_eps
        (default: epsilon), drawing from rng (default: the trainer's policy
        stream).  port_menu restricts the passive UAVs to those ports.  The
        local nets' per-slot Q-vectors and caches are kept for the episode
        loss.
        """
        rng = self.policy_rng if rng is None else rng
        port_eps = epsilon if port_eps is None else port_eps
        ports = np.arange(1, self.n_ports + 1)
        if port_menu is not None:
            ports = np.array(sorted(int(p) for p in port_menu), dtype=int)
        allowed = port_menu_mask(passive_action_count(self.n_ports),
                                 self.n_ports, ports)
        m = self.cfg.marl
        ep = EpisodeData()
        observations = env.reset()
        enc = [encode_prev_action(None, k == 0, self.n_ports)
               for k in range(N_AGENTS)]
        if self.nets is not None:
            hidden = [net.initial_state() for net in self.nets.local]
        for _ in range(env.cfg.world.slots_per_episode):
            scaled = [scale_observation(k, obs)
                      for k, obs in enumerate(observations)]
            inputs, qs, caches = ([None] * N_AGENTS for _ in range(3))
            if self.nets is not None:
                for k, net in enumerate(self.nets.local):
                    inputs[k] = np.concatenate([scaled[k], enc[k]])
                    qs[k], hidden[k], caches[k] = net.forward(inputs[k], hidden[k])
            ids, acts = self.act(qs, epsilon, port_eps, rng, ports, allowed)
            # an agent's input pairs its observation with its previous
            # action; the joint history row pairs it with the action taken
            enc = [encode_prev_action(a, k == 0, self.n_ports)
                   for k, a in enumerate(acts)]
            row = np.concatenate([part for pair in zip(scaled, enc)
                                  for part in pair])
            observations, info = env.step(acts)

            ep.net_inputs.append(inputs)
            ep.action_ids.append(ids)
            ep.actions.append(acts)
            ep.window_rows.append(row)
            ep.rewards_raw.append(info["reward"])
            train_reward = max(info["reward"], -m.penalty_clip) / m.reward_scale
            ep.rewards_train.append(train_reward)
            ep.port_credit.append(slot_port_credit(
                info["late"], info["report"], train_reward,
                -info["error"] / m.reward_scale))
            ep.errors.append(info["error"])
            ep.feasible.append(info["feasible"])
            ep.stales.append(info["stale"])
            ep.violations.append(info["latency_violations"])
            ep.live_caches.append(caches)
            ep.live_q.append(qs)
        return ep

    # -- targets and loss -----------------------------------------------------

    def _replay(self, nets: PolicyNets, episode: EpisodeData):
        """Forward nets' local Q-nets over the episode's recorded inputs
        from fresh recurrent states: ([t][k] -> q, [t][k] -> cache)."""
        hidden = [net.initial_state() for net in nets.local]
        qs, caches = [], []
        for inputs in episode.net_inputs:
            q_row, c_row = [], []
            for k, net in enumerate(nets.local):
                q, hidden[k], cache = net.forward(inputs[k], hidden[k])
                q_row.append(q)
                c_row.append(cache)
            qs.append(q_row)
            caches.append(c_row)
        return qs, caches

    def _mix(self, nets: PolicyNets, q_chosen: np.ndarray,
             episode: EpisodeData, t: int):
        """Global Q of slot t: the coordinator's context over the recent
        joint history drives the mixer of the chosen local Q-values."""
        if nets.coordinator is not None:
            omega, c_coord = nets.coordinator.forward(*self._window(episode, t))
        else:
            omega, c_coord = np.zeros(nets.omega_width), None
        q_total, c_mix = nets.mixer.forward(q_chosen, omega)
        return q_total, (c_coord, c_mix)

    def td_targets(self, episode: EpisodeData) -> np.ndarray:
        """Bootstrapped TD targets, one row per slot, from the target
        networks at per-agent greedy actions.  One column for the mixed
        global Q; one per agent for independent learners, which bootstrap
        from their own greedy values."""
        tnets = self.target_nets
        qs, _ = self._replay(tnets, episode)
        greedy = np.array([[float(np.max(q)) for q in row] for row in qs])
        boot = greedy
        if tnets.mixer is not None:
            boot = np.zeros((len(episode), 1))
            for t in range(len(episode)):
                boot[t, 0], _ = self._mix(tnets, greedy[t], episode, t)
        rewards = np.asarray(episode.rewards_train)
        return np.column_stack([
            build_td_targets(rewards, boot[1:, j], self.cfg.marl.discount)
            for j in range(boot.shape[1])])

    def _port_fit(self, episode: EpisodeData, t: int, k: int):
        """(port index, credit) target of agent k's port head at slot t."""
        if self.nets.local[k].port_head is None:
            return None
        return episode.actions[t][k].port - 1, episode.port_credit[t][k - 1]

    def episode_loss(self, episode: EpisodeData, qs, caches,
                     targets: np.ndarray, weights: np.ndarray | None = None,
                     backward: bool = True):
        """The loss training applies for one episode, and its gradient.

        qs and caches ([t][k]) come from the live local nets' forward pass
        over the episode: the rollout's own, or a replay.  The TD loss
        compares the mixed global Q of the chosen actions with targets
        (td_targets); independent learners have one TD column per agent.
        weights are the TD-sign weights (computed here when None).  With
        backward, gradients accumulate into every parameter: the TD
        gradient through the mixer, the coordinator and each local net
        (backprop through time), except that each port head receives the
        gradient of its port-credit fit (LocalQNet.backward's port_fit).
        Returns (TD loss, port-fit loss, weights).
        """
        nets = self.nets
        T = len(episode)
        q_chosen = np.array([[qs[t][k][episode.action_ids[t][k]]
                              for k in range(N_AGENTS)] for t in range(T)])
        q_td = q_chosen
        if nets.mixer is not None:
            q_td = np.zeros((T, 1))
            mix_caches = []
            for t in range(T):
                q_td[t, 0], cache = self._mix(nets, q_chosen[t], episode, t)
                mix_caches.append(cache)
            self.inter_agent_messages += T * N_AGENTS * (
                2 if nets.coordinator is not None else 1)
        td_loss, cols = 0.0, []
        for j in range(q_td.shape[1]):
            loss_j, w_j = weighted_td_loss(
                q_td[:, j], targets[:, j], self.cfg.marl.delta,
                None if weights is None else weights[:, j])
            td_loss += loss_j
            cols.append(w_j)
        weights = np.column_stack(cols)
        if not math.isfinite(td_loss):
            raise TrainingDiverged(
                "TD loss is not finite",
                {"loss": td_loss, "q": q_td.tolist(),
                 "targets": targets.tolist()})
        port_loss = 0.0
        for t in range(T):
            for k, net in enumerate(nets.local):
                fit = self._port_fit(episode, t, k)
                if fit is not None:
                    port_loss += net.port_fit_loss(caches[t][k], fit)
        if not backward:
            return td_loss, port_loss, weights

        dq = 2.0 * weights * (q_td - targets)
        if nets.mixer is not None:
            dq_locals = np.zeros((T, N_AGENTS))
            for t in range(T):
                c_coord, c_mix = mix_caches[t]
                dq_locals[t], domega = nets.mixer.backward(dq[t, 0], c_mix)
                if nets.coordinator is not None and domega is not None:
                    nets.coordinator.backward(domega, c_coord)
            dq = dq_locals
        for k, net in enumerate(nets.local):
            dh = np.zeros(max(net.hidden_size, 1))
            for t in reversed(range(T)):
                dq_vec = np.zeros(net.n_actions)
                dq_vec[episode.action_ids[t][k]] = dq[t, k]
                dh = net.backward(dq_vec, dh, caches[t][k],
                                  port_fit=self._port_fit(episode, t, k))
        return td_loss, port_loss, weights

    # -- updates --------------------------------------------------------------

    def _apply_sgd(self, lr_scale: float):
        m = self.cfg.marl
        for net in self.nets.local:
            if net.port_head is not None:
                for p in net.port_head.params():
                    p.grad *= m.port_lr_multiplier
        params = self.nets.params()
        total = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
        scale = 1.0 if total <= m.grad_clip else m.grad_clip / total
        rate = m.learning_rate * lr_scale
        for p in params:
            p.value -= rate * scale * p.grad
        self.nets.zero_grads()
        self.updates += 1
        if self.updates % m.target_sync == 0:
            self.target_nets.copy_from(self.nets)

    def train_on_episode(self, episode: EpisodeData,
                         lr_scale: float = 1.0) -> float:
        """One update from the rollout's own caches; returns the TD loss."""
        loss, _, _ = self.episode_loss(episode, episode.live_q,
                                       episode.live_caches,
                                       self.td_targets(episode))
        self._apply_sgd(lr_scale)
        return loss

    # -- main loop ------------------------------------------------------------

    def run(self) -> TrainingLog:
        cfg = self.cfg
        log = TrainingLog(scheme=self.scheme, seed=cfg.run.seed)
        env = PositioningEnv(cfg, self.env_rng)
        total_eps = cfg.run.epochs * cfg.run.episodes_per_epoch
        ep_index = 0
        for epoch in range(cfg.run.epochs):
            errs, rews, losses, viols = [], [], [], 0
            eps = 0.0
            for _ in range(cfg.run.episodes_per_epoch):
                eps = (self.epsilon_at(ep_index, total_eps)
                       if self.trains else 1.0)
                lr_scale, port_floor = self.schedule(
                    ep_index / max(total_eps - 1, 1))
                episode = self.rollout(env, eps, port_eps=max(eps, port_floor))
                loss = (self.train_on_episode(episode, lr_scale)
                        if self.trains else 0.0)
                ep_index += 1
                errs.extend(episode.errors)
                rews.extend(episode.rewards_raw)
                losses.append(loss)
                viols += int(np.sum(np.asarray(episode.feasible) == False))
            log.records.append(EpochRecord(
                epoch=epoch,
                mean_error=float(np.mean(errs)),
                mean_reward=float(np.mean(rews)),
                loss=float(np.mean(losses)),
                violations=viols,
                epsilon=float(eps if self.trains else 1.0)))
        return log

    # -- checkpoints ----------------------------------------------------------

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        if self.nets is None:
            return {}
        return self.nets.named_values()

    def load_checkpoint_arrays(self, arrays: dict[str, np.ndarray]):
        if self.nets is None:
            if arrays:
                raise ValueError("random policy carries no parameters")
            return
        self.nets.load_values(arrays)
        self.target_nets.copy_from(self.nets)


def train(cfg: ExperimentConfig) -> TrainingLog:
    """Train the configured scheme and return the per-epoch log."""
    return MarlTrainer(cfg).run()


def run_baseline(kind: str, cfg: ExperimentConfig) -> TrainingLog:
    """Run one of the comparison schemes under the same experiment config."""
    return MarlTrainer(cfg, scheme=kind).run()


# ---------------------------------------------------------------------------
# evaluation


def evaluate_rollouts(cfg: ExperimentConfig, trainer: MarlTrainer,
                      episodes: int, seed: int,
                      port_menu=None) -> dict:
    """Greedy (epsilon=0) rollouts with per-episode reseeded environment
    streams, so different policies or port menus face identical channel,
    shadowing and measurement randomness episode for episode."""
    if episodes < 1:
        raise ValueError("need at least one evaluation episode")
    errors, rewards = [], []
    stale_slots = 0
    violation_slots = 0
    for ep in range(episodes):
        env_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, ep, 0))))
        pol_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, ep, 1))))
        played = trainer.rollout(PositioningEnv(cfg, env_rng), 0.0,
                                 rng=pol_rng, port_menu=port_menu)
        errors += played.errors
        rewards += played.rewards_raw
        stale_slots += sum(bool(s) for s in played.stales)
        violation_slots += sum(not f for f in played.feasible)
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


def micro_gradcheck(cfg: ExperimentConfig, eps: float = 1e-5) -> float:
    """Finite-difference check of the gradient training applies, on one
    short episode.

    The analytic gradient comes from MarlTrainer.episode_loss on the
    rollout's own caches, as in train_on_episode; the finite differences
    replay the local nets and go through the same function, with the TD
    targets and TD-sign weights held at the base point so the loss stays
    differentiable across the stencil.  Every parameter outside the port
    heads is checked against the TD loss, and the port heads against
    their port-credit fit.  The port heads' output layers start at zero,
    which with zero credit would zero their gradient, so they are first
    perturbed from a fixed seed.  Returns the worst relative error.
    """
    from .nn import finite_diff_check

    trainer = MarlTrainer(cfg)
    if trainer.nets is None:
        raise ValueError("gradient check needs a trainable scheme")
    port_params = [p for net in trainer.nets.local if net.port_head is not None
                   for p in net.port_head.params()]
    perturb = np.random.default_rng(0)
    for net in trainer.nets.local:
        if net.port_head is not None:
            for p in net.port_head.layers[-1].params():
                p.value += 0.1 * perturb.standard_normal(p.value.shape)

    env = PositioningEnv(cfg, trainer.env_rng)
    episode = trainer.rollout(env, epsilon=0.3)
    targets = trainer.td_targets(episode)
    trainer.nets.zero_grads()
    _, _, weights = trainer.episode_loss(episode, episode.live_q,
                                         episode.live_caches, targets)
    if port_params and not any(np.any(p.grad) for p in port_params):
        raise RuntimeError("the port heads' gradient is zero")

    def losses():
        qs, caches = trainer._replay(trainer.nets, episode)
        return trainer.episode_loss(episode, qs, caches, targets, weights,
                                    backward=False)

    in_port_heads = {id(p) for p in port_params}
    others = [p for p in trainer.nets.params() if id(p) not in in_port_heads]
    return max(finite_diff_check(lambda: losses()[0], others, eps=eps),
               finite_diff_check(lambda: losses()[1], port_params, eps=eps))


def micro_config(base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Shrunken sizes for gradient checks: tiny nets, few ports and paths,
    two-slot episodes."""
    import dataclasses

    cfg = base or ExperimentConfig()
    return dataclasses.replace(
        cfg,
        world=dataclasses.replace(cfg.world, slots_per_episode=2),
        channel=dataclasses.replace(cfg.channel, n_ports=3, n_paths=2),
        marl=dataclasses.replace(cfg.marl, gru_hidden=6, mlp_hidden=6,
                                 embed_width=5, attn_units=2, attn_width=3,
                                 omega_width=4, history_window=2,
                                 mixing_hidden=4),
        run=dataclasses.replace(cfg.run, scheme="ar_marl"),
    )
