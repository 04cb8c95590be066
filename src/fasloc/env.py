"""The tracking scenario the agents act in: the action set, the
observation scales, one episode's slots (PositioningEnv) and their
record (EpisodeData).  The physics lives in world, channel and
positioning; scoring a slot is the learner's (marl.slot_rewards).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import positioning as pos
from . import world as wd
from .config import ExperimentConfig

ANGLE_CHOICES = np.deg2rad([-60.0, -30.0, 0.0, 30.0, 60.0])
N_ANGLE = len(ANGLE_CHOICES)
N_STEER = N_ANGLE * N_ANGLE     # the (yaw, pitch) steering combos
# (N_STEER, 2) yaw and pitch turn of each combo yaw * N_ANGLE + pitch
STEER_TURNS = ANGLE_CHOICES[np.stack(np.divmod(np.arange(N_STEER), N_ANGLE),
                                     axis=-1)]
N_AGENTS = 5
POSITION_SCALE = 1e-3
RANGE_SCALE = 1e-3

# The start geometry and the ground station, m
ACTIVE_START = (300.0, 300.0, 300.0)
PASSIVE_STARTS = ((237.0, 890.0, 744.0),
                  (310.0, 743.0, 891.0),
                  (832.0, 497.0, 328.0),
                  (548.0, 647.0, 400.0))
BS_POSITION = (0.0, 0.0, 20.0)
# The ground station's fix
VARIANCE_SCALE = 1e-3       # multiplies 1/SNR into the range variance
MIN_USABLE = 3              # fixes need at least this many fresh ranges
INNOVATION_GATE = 150.0     # m; fixes jumping further than this from the
                            # running estimate are rejected, with the gate
                            # widening after each rejection so recovery
                            # stays possible


class PositioningEnv:
    """One episode of the tracking scenario.

    Each UAV keeps a persistent flight heading; an action turns it by
    one of the ANGLE_CHOICES yaw/pitch increments, which bound the
    per-slot change, and the new pitch is clamped to the world's
    [PITCH_MIN, PITCH_MAX].  Slot order:
    agents observe (current positions, their uplinks' departure angles,
    drawn once per episode, and last measured range sums), act, everyone
    moves, the bistatic ranges are measured at the new geometry, the
    passive UAVs upload through their chosen ports, and the ground
    station refreshes the fix from whichever reports met the latency
    budget.  Fewer than MIN_USABLE fresh reports keeps the previous fix
    (a stale slot).
    """

    def __init__(self, cfg: ExperimentConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.bs = np.array(BS_POSITION, float)
        self.positions = np.zeros((N_AGENTS, 3))
        self.headings = np.zeros((N_AGENTS, 2))   # persistent [yaw, pitch]
        self.traj = None
        self.estimate = np.zeros(3)
        self.prev_ranges = np.zeros(4)
        # the passive UAVs' uplink departure angles, fixed for the episode
        self.aods = np.zeros((4, cfg.channel.n_paths))
        self._gate_rejects = 0
        self._slots = []        # per slot: what the agents saw, steer, ports, info
        self._seen = None       # the observations the next slot acts on
        self.step_s = 0.0       # process time spent in step,
        self.solver_s = 0.0     # and within it in estimate_position

    def _headings_toward_target(self) -> np.ndarray:
        """Each UAV starts headed at the target's start, pitch bounded."""
        headings = np.zeros((N_AGENTS, 2))
        goal = np.array(wd.TARGET_START, float)
        for k in range(N_AGENTS):
            d = goal - self.positions[k]
            headings[k, 0] = math.atan2(d[1], d[0])
            pitch = math.asin(max(-1.0, min(1.0, d[2] / np.linalg.norm(d))))
            headings[k, 1] = min(max(pitch, wd.PITCH_MIN), wd.PITCH_MAX)
        return headings

    def reset(self) -> list[np.ndarray]:
        self.positions = np.vstack([np.array(ACTIVE_START, float),
                                    np.array(PASSIVE_STARTS, float)])
        self.headings = self._headings_toward_target()
        self.traj = wd.TargetTrajectory(self.cfg.target.speed,
                                        self.cfg.target.uncertainty)
        self.estimate = self.positions[1:].mean(axis=0)
        self.prev_ranges = np.zeros(4)
        self._gate_rejects = 0
        self.aods = self.rng.uniform(0.0, math.pi,
                                     size=(4, self.cfg.channel.n_paths))
        self._slots = []
        self._seen = self.observations()
        return self._seen

    def observations(self) -> list[np.ndarray]:
        """Each local net's agents' scaled observations, in
        marl.PolicyNets.local_agents() order: the active UAV's (1, 3)
        position, then the passive UAVs' (4, 3 + n_paths + 1) positions,
        departure angles of their uplink paths and previous measured range
        sums (0 before the first measurement)."""
        scaled = self.positions * POSITION_SCALE
        ranges = self.prev_ranges[:, None] * RANGE_SCALE
        return [scaled[:1], np.concatenate([scaled[1:], self.aods / math.pi,
                                            ranges], axis=1)]

    def step(self, steer: np.ndarray, ports: np.ndarray):
        """Play one slot of the team's actions, all UAVs in one array pass:
        steer holds the (N_AGENTS,) steering combos (yaw * N_ANGLE + pitch),
        ports the passive UAVs' (4,) 1-based ports.  Returns the next
        observations and the slot's outcomes, which the learner scores:
        error, stale, feasible (no report late, both ranges held), late (4,)
        and range_ok (world.check_constraints).  The slot joins the record
        that episode() returns, and its process time is added to step_s."""
        started = time.process_time()
        steer, ports = np.array(steer), np.array(ports)
        if (steer.shape != (N_AGENTS,) or steer.dtype.kind not in "iu"
                or not 0 <= steer.min() <= steer.max() < N_STEER):
            raise ValueError(f"steer must be an integer ({N_AGENTS},) array in "
                             f"0..{N_STEER - 1}, got {steer!r}")
        if ports.shape != (4,) or ports.dtype.kind not in "iu":
            raise ValueError(f"ports must be an integer (4,) array, got {ports!r}")
        cfg = self.cfg
        n_ports = cfg.channel.n_ports
        if not 1 <= ports.min() <= ports.max() <= n_ports:
            # fas_gain's error, raised before the slot changes any state
            bad = ports[(ports < 1) | (ports > n_ports)][0]
            raise ch.ChannelError(f"port {bad} outside 1..{n_ports}")
        yaw, pitch = (self.headings + STEER_TURNS[steer]).T
        yaw = (yaw + math.pi) % (2.0 * math.pi) - math.pi
        pitch = np.minimum(np.maximum(pitch, wd.PITCH_MIN), wd.PITCH_MAX)
        self.headings[:, 0], self.headings[:, 1] = yaw, pitch
        self.positions = wd.step_controlled(self.positions, yaw, pitch,
                                            cfg.world.speed)
        target = self.traj.step(self.rng)
        q0, qs = self.positions[0], self.positions[1:]

        # bistatic range measurements at the new geometry, NaN without echo
        snr = ch.bistatic_snr(q0, qs, target)
        measured = pos.sample_range(pos.true_range_sum(q0, qs, target), snr,
                                    self.rng, VARIANCE_SCALE)
        echo = snr > 0.0

        # uplink through the selected ports
        draw = ch.draw_channel(self.rng, np.cos(self.aods))
        loss = ch.path_loss_db(wd.norms(qs - self.bs), draw.shadow_db)
        sinrs = ch.uplink_sinr(ch.fas_gain(draw, ports, n_ports, loss))
        # a NaN latency is no delivery either, so it counts as late
        late = ~(ch.uplink_latencies(sinrs) <= cfg.scenario.latency_budget)

        usable = echo & ~late
        stale = int(np.count_nonzero(usable)) < MIN_USABLE
        if not stale:
            solving = time.process_time()
            fit = pos.estimate_position(measured[usable], q0, qs[usable],
                                        self.estimate)
            self.solver_s += time.process_time() - solving
            jump = float(wd.norms(fit.position - self.estimate))
            if jump > INNOVATION_GATE * (1 + self._gate_rejects):
                # implausible jump: treat like a missing fix
                self._gate_rejects += 1
                stale = True
            else:
                self._gate_rejects = 0
                self.estimate = fit.position

        error = pos.position_error(self.estimate, target)
        range_ok = wd.check_constraints(self.positions, target)
        self.prev_ranges[echo] = measured[echo]

        info = {
            "error": error,
            "stale": stale,
            "feasible": not late.any() and all(range_ok),
            "late": late,
            "range_ok": range_ok,
        }
        self._slots.append((self._seen, steer, ports, info))
        self._seen = self.observations()
        self.step_s += time.process_time() - started
        return self._seen, info

    def episode(self) -> EpisodeData:
        """The record of the slots played since reset (ValueError if none)."""
        if not self._slots:
            raise ValueError("no slot played since reset")
        seen, steer, ports, infos = zip(*self._slots)

        def column(key):
            return np.array([info[key] for info in infos])

        return EpisodeData(
            observations=[np.stack(obs, axis=1) for obs in zip(*seen)],
            steer=np.array(steer), ports=np.array(ports),
            errors=column("error"), stales=column("stale"),
            feasible=column("feasible"), late=column("late"),
            range_ok=column("range_ok"))


@dataclass
class EpisodeData:
    """PositioningEnv.episode()'s record of T played slots: what the
    agents saw, their actions and each slot's outcomes (step's info).
    The learner derives its training signals from it."""
    observations: list         # [i] -> local net i's agents' (A, T, n_obs)
    steer: np.ndarray          # (T, N_AGENTS) steering combos
    ports: np.ndarray          # (T, 4) the passive UAVs' ports, 1-based
    errors: np.ndarray         # (T,) position errors
    stales: np.ndarray         # (T,) bool
    feasible: np.ndarray       # (T,) bool
    late: np.ndarray           # (T, 4) bool, info["late"]
    range_ok: np.ndarray       # (T, 2) bool, target_range_ok, pairwise_range_ok

    def __len__(self):
        return len(self.errors)
