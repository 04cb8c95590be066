"""UAV kinematics, target trajectory generation, and feasibility checks.

Controlled UAVs fly at constant speed; a slot action fixes the yaw and
pitch for that slot and the position integrates one straight segment.
The target follows one of three canned trajectory families, optionally
disturbed by random 90-degree turns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64


class WorldError(ValueError):
    """Invalid kinematic input (out-of-bound angles, bad config)."""


@dataclass(frozen=True)
class ControlAngles:
    """A slot steering command: yaw and pitch, radians."""

    yaw: float
    pitch: float


@dataclass(frozen=True)
class WorldConfig:
    speed: float = 5.0                 # m/s, all controlled UAVs
    slot_duration: float = 1.0         # s
    light_speed: float = 3.0e8         # m/s
    dist_min: float = 20.0             # m, pairwise and UAV-target floor
    dist_max: float = 1000.0           # m, pairwise and UAV-target ceiling
    yaw_min: float = -math.pi / 3.0
    yaw_max: float = math.pi / 3.0
    pitch_min: float = -math.pi / 3.0
    pitch_max: float = math.pi / 3.0
    n_controlled: int = 5              # 1 active + 4 passive
    slots_per_episode: int = 25

    def __post_init__(self):
        if self.speed <= 0 or self.slot_duration <= 0:
            raise WorldError("speed and slot_duration must be positive")
        if not 0 < self.dist_min < self.dist_max:
            raise WorldError("need 0 < dist_min < dist_max")


class TrajectoryMode(enum.Enum):
    C_LINE = "cline"
    UNIFORM_CIRCLE = "uniform_circle"
    S_LINE = "sline"


@dataclass(frozen=True)
class TargetTrajectorySpec:
    mode: TrajectoryMode = TrajectoryMode.C_LINE
    speed: float = 5.0            # m/s
    uncertainty: float = 0.0      # total probability of a 90-degree turn per slot
    start: tuple = (445.0, 615.0, 533.0)

    def __post_init__(self):
        if not 0.0 <= self.uncertainty <= 1.0:
            raise WorldError("uncertainty must lie in [0, 1]")
        if self.speed < 0:
            raise WorldError("speed must be nonnegative")


# Fixed trajectory-family geometry; chosen so all three families stay well
# inside dist_max at the configured speeds.
C_LINE_RADIUS = 400.0          # m, large smooth arc
C_LINE_TILT = math.radians(10.0)
HELIX_RADIUS = 200.0           # m
HELIX_CLIMB_RATE = 1.0         # m/s vertical
S_LINE_AMPLITUDE = math.radians(60.0)
S_LINE_PERIOD = 10.0           # slots


def heading_vector(yaw: float, pitch: float) -> Vec3:
    """Unit direction for a yaw/pitch pair."""
    cp = math.cos(pitch)
    return np.array([math.cos(yaw) * cp, math.sin(yaw) * cp, math.sin(pitch)])


def step_controlled(q: Vec3, angles: ControlAngles, cfg: WorldConfig,
                    enforce_bounds: bool = True) -> Vec3:
    """Advance a controlled UAV one slot.

    q' = q + v*dt * [cos(yaw)cos(pitch), sin(yaw)cos(pitch), sin(pitch)],
    so the displacement length is exactly v*dt for any angles.
    """
    if enforce_bounds:
        if not cfg.yaw_min <= angles.yaw <= cfg.yaw_max:
            raise WorldError(f"yaw {angles.yaw:.4f} outside "
                             f"[{cfg.yaw_min:.4f}, {cfg.yaw_max:.4f}]")
        if not cfg.pitch_min <= angles.pitch <= cfg.pitch_max:
            raise WorldError(f"pitch {angles.pitch:.4f} outside "
                             f"[{cfg.pitch_min:.4f}, {cfg.pitch_max:.4f}]")
    q = np.asarray(q, dtype=float)
    return q + cfg.speed * cfg.slot_duration * heading_vector(angles.yaw, angles.pitch)


class TargetTrajectory:
    """Stateful generator for the target path.

    The nominal path is defined through a per-slot heading law; the position
    integrates speed * dt along the chosen heading.  A turn event replaces
    that slot's heading with the nominal one rotated +-90 degrees about the
    vertical axis (yaw only, pitch kept), after which the nominal law
    resumes, translated to wherever the turn left the target.
    """

    def __init__(self, spec: TargetTrajectorySpec, slot_duration: float = 1.0):
        self.spec = spec
        self.dt = slot_duration
        self.position = np.array(spec.start, dtype=float)
        self.slot = 0
        self._phase = 0.0  # arc parameter for the circular families

    def _nominal_heading(self) -> tuple[float, float]:
        mode, v = self.spec.mode, self.spec.speed
        if mode is TrajectoryMode.C_LINE:
            # tangent of a radius-R circle in a plane tilted about the x axis
            s = self._phase
            e1 = np.array([1.0, 0.0, 0.0])
            e2 = np.array([0.0, math.cos(C_LINE_TILT), math.sin(C_LINE_TILT)])
            tangent = -math.sin(s) * e1 + math.cos(s) * e2
            yaw = math.atan2(tangent[1], tangent[0])
            pitch = math.asin(max(-1.0, min(1.0, tangent[2])))
            return yaw, pitch
        if mode is TrajectoryMode.UNIFORM_CIRCLE:
            # fixed-pitch helix: vertical rate HELIX_CLIMB_RATE, arc speed v
            h = math.sqrt(max(v * v - HELIX_CLIMB_RATE ** 2, 0.0))
            s = self._phase
            yaw = math.atan2(math.cos(s), -math.sin(s))
            pitch = math.atan2(HELIX_CLIMB_RATE, h) if h > 0 else math.pi / 2
            return yaw, pitch
        # S_LINE: sinusoidal yaw, level flight
        yaw = S_LINE_AMPLITUDE * math.sin(2.0 * math.pi * self.slot / S_LINE_PERIOD)
        return yaw, 0.0

    def _advance_phase(self):
        v = self.spec.speed
        if self.spec.mode is TrajectoryMode.C_LINE:
            self._phase += v * self.dt / C_LINE_RADIUS
        elif self.spec.mode is TrajectoryMode.UNIFORM_CIRCLE:
            h = math.sqrt(max(v * v - HELIX_CLIMB_RATE ** 2, 0.0))
            self._phase += h * self.dt / HELIX_RADIUS

    def step(self, rng: np.random.Generator) -> Vec3:
        """Advance one slot and return the new position."""
        yaw, pitch = self._nominal_heading()
        u = self.spec.uncertainty
        if u > 0.0:
            roll = rng.uniform()
            if roll < u / 2.0:
                yaw += math.pi / 2.0
            elif roll < u:
                yaw -= math.pi / 2.0
        self.position = self.position + self.spec.speed * self.dt * heading_vector(yaw, pitch)
        self._advance_phase()
        self.slot += 1
        return self.position.copy()


@dataclass
class WorldState:
    """Snapshot of the scene after a slot's movements."""

    positions: np.ndarray            # (K, 3) controlled UAVs; row 0 = active
    target: Vec3
    angles: np.ndarray               # (K, 2) applied yaw/pitch this slot
    ports: np.ndarray                # (K-1,) selected FAS ports, 1-based
    slot: int = 0


@dataclass(frozen=True)
class ConstraintReport:
    """Per-constraint feasibility flags for one slot."""

    latency_ok: bool        # every passive uplink within the latency budget
    yaw_ok: bool
    pitch_ok: bool
    ports_ok: bool          # all port indices within {1..n_ports}
    target_range_ok: bool   # dist_min <= |q_k - u| <= dist_max for all k
    pairwise_range_ok: bool  # dist_min <= |q_k - q_k'| <= dist_max, k != k'

    @property
    def feasible(self) -> bool:
        return (self.latency_ok and self.yaw_ok and self.pitch_ok
                and self.ports_ok and self.target_range_ok
                and self.pairwise_range_ok)

    def flags(self) -> tuple[bool, ...]:
        return (self.latency_ok, self.yaw_ok, self.pitch_ok, self.ports_ok,
                self.target_range_ok, self.pairwise_range_ok)


def check_constraints(world: WorldState, latencies, cfg: WorldConfig,
                      latency_budget: float, n_ports: int) -> ConstraintReport:
    """Evaluate all feasibility constraints for one slot.

    latencies: seconds, one per passive UAV (may contain inf).
    """
    lat = np.asarray(latencies, dtype=float)
    latency_ok = bool(np.all(lat <= latency_budget))

    yaw = world.angles[:, 0]
    pitch = world.angles[:, 1]
    yaw_ok = bool(np.all((yaw >= cfg.yaw_min) & (yaw <= cfg.yaw_max)))
    pitch_ok = bool(np.all((pitch >= cfg.pitch_min) & (pitch <= cfg.pitch_max)))

    ports = np.asarray(world.ports)
    ports_ok = bool(np.all((ports >= 1) & (ports <= n_ports)))

    d_target = np.linalg.norm(world.positions - world.target[None, :], axis=1)
    target_range_ok = bool(np.all((d_target >= cfg.dist_min)
                                  & (d_target <= cfg.dist_max)))

    diffs = world.positions[:, None, :] - world.positions[None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    iu = np.triu_indices(len(world.positions), k=1)
    pair = dists[iu]
    pairwise_range_ok = bool(np.all((pair >= cfg.dist_min)
                                    & (pair <= cfg.dist_max)))

    return ConstraintReport(latency_ok, yaw_ok, pitch_ok, ports_ok,
                            target_range_ok, pairwise_range_ok)
