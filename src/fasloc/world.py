"""UAV kinematics, target trajectory generation, and feasibility checks.

Controlled UAVs fly at constant speed; a slot action fixes the yaw and
pitch for that slot and the position integrates one straight segment.
The target follows a C-line, a large arc in a tilted plane, optionally
disturbed by random 90-degree turns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64


class WorldError(ValueError):
    """Invalid world or target-trajectory configuration."""


@dataclass(frozen=True)
class WorldConfig:
    """Kinematics and range limits shared by all controlled UAVs.

    The per-slot yaw/pitch change is bounded by the action set
    (``env.ANGLE_CHOICES``); pitch_min/pitch_max clamp the absolute
    pitch of every heading.
    """

    speed: float = 5.0                 # m/s, all controlled UAVs
    slot_duration: float = 1.0         # s
    dist_min: float = 20.0             # m, pairwise and UAV-target floor
    dist_max: float = 1000.0           # m, pairwise and UAV-target ceiling
    pitch_min: float = -math.pi / 3.0
    pitch_max: float = math.pi / 3.0
    slots_per_episode: int = 25

    def __post_init__(self):
        if self.speed <= 0 or self.slot_duration <= 0:
            raise WorldError("speed and slot_duration must be positive")
        if not 0 < self.dist_min < self.dist_max:
            raise WorldError("need 0 < dist_min < dist_max")
        if self.slots_per_episode < 1:
            raise WorldError("slots_per_episode must be at least 1")
        if not -math.pi / 2 <= self.pitch_min <= self.pitch_max <= math.pi / 2:
            raise WorldError("need -pi/2 <= pitch_min <= pitch_max <= pi/2")


@dataclass(frozen=True)
class TargetTrajectorySpec:
    speed: float = 5.0            # m/s
    uncertainty: float = 0.0      # total probability of a 90-degree turn per slot
    start: tuple = (445.0, 615.0, 533.0)

    def __post_init__(self):
        if not 0.0 <= self.uncertainty <= 1.0:
            raise WorldError("uncertainty must lie in [0, 1]")
        if self.speed < 0:
            raise WorldError("speed must be nonnegative")
        if len(self.start) != 3:
            raise WorldError("start must have 3 coordinates")


# Fixed C-line geometry; chosen so the path stays well inside dist_max at
# the configured speeds.
C_LINE_RADIUS = 400.0          # m, large smooth arc
C_LINE_TILT = math.radians(10.0)


def heading_vector(yaw, pitch) -> np.ndarray:
    """Unit directions (..., 3) for yaw/pitch arrays of one shape (...)."""
    cp = np.cos(pitch)
    out = np.empty((*np.shape(yaw), 3))
    out[..., 0] = np.cos(yaw) * cp
    out[..., 1] = np.sin(yaw) * cp
    out[..., 2] = np.sin(pitch)
    return out


def norms(v) -> np.ndarray:
    """Lengths over the last axis of v (..., 3), each np.linalg.norm's bits
    for its row: a BLAS dot through a stacked matmul, not a row sum."""
    v = np.asarray(v, float)
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0, 0]


def step_controlled(q, yaw, pitch, cfg: WorldConfig) -> np.ndarray:
    """Advance controlled UAVs q (..., 3) one slot along absolute headings
    yaw, pitch (...).

    q' = q + v*dt * [cos(yaw)cos(pitch), sin(yaw)cos(pitch), sin(pitch)],
    so the displacement length is exactly v*dt for any angles.  The
    heading is not bounded here: the action set bounds its per-slot
    change and the environment clamps its pitch to [pitch_min, pitch_max].
    """
    q = np.asarray(q, dtype=float)
    return q + cfg.speed * cfg.slot_duration * heading_vector(yaw, pitch)


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
        self._phase = 0.0  # arc parameter of the C-line

    def _nominal_heading(self) -> tuple[float, float]:
        # tangent of a radius-R circle in a plane tilted about the x axis
        c = math.cos(self._phase)
        yaw = math.atan2(c * math.cos(C_LINE_TILT), -math.sin(self._phase))
        pitch = math.asin(max(-1.0, min(1.0, c * math.sin(C_LINE_TILT))))
        return yaw, pitch

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
        self._phase += self.spec.speed * self.dt / C_LINE_RADIUS
        return self.position.copy()


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of the distinct pairs (i < j) of n UAVs, read-only because
    every caller shares it."""
    iu = np.triu_indices(n, k=1)
    for idx in iu:
        idx.setflags(write=False)
    return iu


def check_constraints(positions: np.ndarray, target: Vec3,
                      cfg: WorldConfig) -> tuple[bool, bool]:
    """One slot's range constraints on the (K, 3) controlled UAVs after
    their moves, (target_range_ok, pairwise_range_ok): dist_min <= |q_k -
    u| <= dist_max for every k, and dist_min <= |q_k - q_k'| <= dist_max
    for k != k'.  The action set enforces the steering and port bounds."""
    n = len(positions)
    i, j = _pairs(n)
    # np.linalg.norm(axis=1)'s arithmetic: a row sum of squares
    legs = np.concatenate([positions - target, positions[i] - positions[j]])
    dist = np.sqrt((legs * legs).sum(axis=1))
    ok = (dist >= cfg.dist_min) & (dist <= cfg.dist_max)
    return bool(ok[:n].all()), bool(ok[n:].all())
