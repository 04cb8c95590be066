"""UAV kinematics, target trajectory generation, and feasibility checks.

Controlled UAVs fly at constant speed; a slot action fixes the yaw and
pitch for that slot and the position integrates one straight segment.
The target follows a C-line, a large arc in a tilted plane, optionally
disturbed by random 90-degree turns.
"""

from __future__ import annotations

import functools
import math

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64

SLOT_DURATION = 1.0            # s
DIST_MIN = 20.0                # m, pairwise and UAV-target floor
DIST_MAX = 1000.0              # m, pairwise and UAV-target ceiling
PITCH_MIN = -math.pi / 3.0
PITCH_MAX = math.pi / 3.0
TARGET_START = (445.0, 615.0, 533.0)

# Fixed C-line geometry; chosen so the path stays well inside DIST_MAX at
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


def step_controlled(q, yaw, pitch, speed: float) -> np.ndarray:
    """Advance controlled UAVs q (..., 3) one slot at speed along absolute
    headings yaw, pitch (...).

    q' = q + v*dt * [cos(yaw)cos(pitch), sin(yaw)cos(pitch), sin(pitch)],
    so the displacement length is exactly v*dt for any angles.  The
    heading is not bounded here: the action set bounds its per-slot
    change and the environment clamps its pitch to [PITCH_MIN, PITCH_MAX].
    """
    q = np.asarray(q, dtype=float)
    return q + speed * SLOT_DURATION * heading_vector(yaw, pitch)


class TargetTrajectory:
    """Stateful generator for the target path.

    The nominal path is defined through a per-slot heading law; the position
    integrates speed * dt along the chosen heading.  A turn event replaces
    that slot's heading with the nominal one rotated +-90 degrees about the
    vertical axis (yaw only, pitch kept), after which the nominal law
    resumes, translated to wherever the turn left the target.
    """

    def __init__(self, speed: float, uncertainty: float):
        self.speed = speed              # m/s
        self.uncertainty = uncertainty  # total probability of a turn per slot
        self.position = np.array(TARGET_START, dtype=float)
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
        u = self.uncertainty
        if u > 0.0:
            roll = rng.uniform()
            if roll < u / 2.0:
                yaw += math.pi / 2.0
            elif roll < u:
                yaw -= math.pi / 2.0
        self.position = self.position + self.speed * SLOT_DURATION * heading_vector(yaw, pitch)
        self._phase += self.speed * SLOT_DURATION / C_LINE_RADIUS
        return self.position.copy()


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of the distinct pairs (i < j) of n UAVs, read-only because
    every caller shares it."""
    iu = np.triu_indices(n, k=1)
    for idx in iu:
        idx.setflags(write=False)
    return iu


def check_constraints(positions: np.ndarray,
                      target: Vec3) -> tuple[bool, bool]:
    """One slot's range constraints on the (K, 3) controlled UAVs after
    their moves, (target_range_ok, pairwise_range_ok): DIST_MIN <= |q_k -
    u| <= DIST_MAX for every k, and DIST_MIN <= |q_k - q_k'| <= DIST_MAX
    for k != k'.  The action set enforces the steering and port bounds."""
    n = len(positions)
    i, j = _pairs(n)
    # np.linalg.norm(axis=1)'s arithmetic: a row sum of squares
    legs = np.concatenate([positions - target, positions[i] - positions[j]])
    dist = np.sqrt((legs * legs).sum(axis=1))
    ok = (dist >= DIST_MIN) & (dist <= DIST_MAX)
    return bool(ok[:n].all()), bool(ok[n:].all())
