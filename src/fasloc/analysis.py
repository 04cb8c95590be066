"""Closed-form positioning-error analysis and its Monte Carlo oracle.

Linearizing the range-sum equations around the true target position
gives d_m = W d_u with a 4x3 geometry matrix W.  Under equal per-link
measurement variance the RMS position error is
sqrt(var * trace((W^T W)^-1)), the range-sum analogue of geometric
dilution of precision.  For equal passive distances held at the range
floor there is a closed-form minimum; both quantities are cross-checked
here by direct simulation of the linearized system.
"""

from __future__ import annotations

import math

import numpy as np


class GeometryDegenerateError(ValueError):
    """W^T W is singular: passive UAVs and target nearly collinear."""


def error_gain_ratio(noise_std: float, unit_gain: float, reflect: float,
                     power: float, error_coeff: float) -> float:
    """Slope of the measurement-error term relative to the geometry term."""
    return error_coeff * noise_std / (unit_gain * reflect * math.sqrt(power))


def build_geometry_matrix(u, q0, passive_positions, mode: str = "zero",
                          noise_std: float = 0.0, unit_gain: float = 1.0,
                          reflect: float = 1.0, power: float = 1.0,
                          error_coeff: float = 0.0) -> np.ndarray:
    """Linearization matrix W of the range-sum map, (rows, 3); row k
    belongs to passive UAV k.

    mode "zero": rows are (u - q_k)/d_k + (u - q0)/d0 (the error term's
    gradient treated as zero mean and dropped).
    mode "deterministic": the measurement error is replaced by its
    SNR-proportional deterministic value with the active-UAV distance held
    constant, which scales each passive-leg term by
    1 + error_coeff * noise_std / (unit_gain * reflect * sqrt(power)).
    """
    u = np.asarray(u, float)
    q0 = np.asarray(q0, float)
    qs = np.asarray(passive_positions, float).reshape(-1, 3)
    d0 = np.linalg.norm(u - q0)
    dk = np.linalg.norm(u[None, :] - qs, axis=1)
    if d0 == 0.0 or np.any(dk == 0.0):
        raise GeometryDegenerateError("coincident positions")

    passive_terms = (u[None, :] - qs) / dk[:, None]
    if mode == "zero":
        active_term = (u - q0) / d0
        w = passive_terms + active_term[None, :]
    elif mode == "deterministic":
        ratio = error_gain_ratio(noise_std, unit_gain, reflect, power, error_coeff)
        w = (1.0 + ratio) * passive_terms
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return w


def _full_rank_matrix(geometry: np.ndarray) -> np.ndarray:
    """W as a float array; raises GeometryDegenerateError if it is
    rank-deficient."""
    w = np.asarray(geometry, float)
    s = np.linalg.svd(w, compute_uv=False)
    if s[-1] < 1e-12 * max(s[0], 1.0):
        raise GeometryDegenerateError("rank-deficient geometry matrix")
    return w


def linearized_rms_error(geometry: np.ndarray, variance: float) -> float:
    """sqrt(var * trace((W^T W)^-1)); raises on degenerate geometry."""
    w = _full_rank_matrix(geometry)
    return math.sqrt(variance * float(np.trace(np.linalg.inv(w.T @ w))))


def min_error_closed_form(d0: float, dist_min: float, noise_std: float,
                          unit_gain: float, reflect: float, power: float,
                          error_coeff: float) -> float:
    """Best achievable RMS error with all passive UAVs at the range floor.

    3 * d0 * dist_min * noise_std / (2 * (unit_gain * reflect * sqrt(power)
    + error_coeff * noise_std)).
    """
    if min(d0, dist_min, noise_std, unit_gain, reflect, power) <= 0:
        raise ValueError("all geometry and radio arguments must be positive")
    denom = 2.0 * (unit_gain * reflect * math.sqrt(power) + error_coeff * noise_std)
    return 3.0 * d0 * dist_min * noise_std / denom


def monte_carlo_rms_error(geometry: np.ndarray, variance: float,
                          samples: int, rng: np.random.Generator) -> float:
    """Simulate the linearized system du = (W^T W)^-1 W^T e directly."""
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    w = _full_rank_matrix(geometry)
    solve_mat = np.linalg.solve(w.T @ w, w.T)          # (3, 4)
    errors = rng.normal(0.0, math.sqrt(variance), size=(w.shape[0], samples))
    du = solve_mat @ errors                            # (3, samples)
    return float(np.sqrt(np.mean(np.sum(du * du, axis=0))))


def isotropic_directions() -> np.ndarray:
    """Four unit vectors of a regular tetrahedron: sum v v^T = (4/3) I."""
    v = np.array([[1.0, 1.0, 1.0],
                  [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0],
                  [-1.0, -1.0, 1.0]]) / math.sqrt(3.0)
    return v


def tetrahedral_geometry(u, d0_direction, d0: float, dk: float,
                         rotation: np.ndarray | None = None):
    """Place four passive UAVs at distance dk from u along isotropic
    directions (optionally rotated) and the active UAV at distance d0.

    Returns (q0, passive_positions).
    """
    u = np.asarray(u, float)
    dirs = isotropic_directions()
    if rotation is not None:
        dirs = dirs @ np.asarray(rotation, float).T
    q0 = u + d0 * np.asarray(d0_direction, float) / np.linalg.norm(d0_direction)
    qs = u[None, :] - dk * dirs
    return q0, qs
