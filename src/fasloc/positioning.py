"""Range-sum measurement generation and target position estimation.

Each passive UAV measures the total path length active -> target ->
passive.  The ground station stacks those range sums and solves a small
nonlinear least-squares problem for the target coordinates with a
damped Gauss-Newton (Levenberg-Marquardt) iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .world import Vec3, norms


class PositioningError(ValueError):
    pass


@dataclass
class PositionEstimate:
    position: Vec3
    residual_norm: float
    iterations: int
    converged: bool
    degenerate: bool = False


def true_range_sum(q0, qk, u) -> np.ndarray:
    """Total two-leg path lengths active -> target -> passive UAVs qk
    (..., 3)."""
    d0 = norms(np.asarray(q0, float) - u)
    dk = norms(np.asarray(u, float) - qk)
    if ((d0 == 0.0) | (dk == 0.0)).any():
        raise PositioningError("coincident points give a degenerate range sum")
    return (d0 + dk)[()]


def sample_range(m, snr, rng: np.random.Generator,
                 variance_scale: float = 1.0) -> np.ndarray:
    """The measured range sums: the true sums m (...) plus Gaussian noise
    of variance variance_scale / snr, one draw per positive SNR in order.

    NaN where the SNR is zero (no usable echo this slot).
    """
    m, snr = np.broadcast_arrays(np.asarray(m, float), np.asarray(snr, float))
    if (snr < 0).any():
        raise PositioningError("snr must be nonnegative")
    echo = snr > 0.0
    z = np.full(snr.shape, np.nan)
    z[echo] = rng.standard_normal(np.count_nonzero(echo))
    return (m + np.sqrt(variance_scale / np.where(echo, snr, np.nan)) * z)[()]


_EYE3 = np.eye(3)


def _residual_and_jacobian(u: Vec3, measured: np.ndarray, q0: Vec3,
                           qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual r = measured - (|q0 - u| + |qs_k - u|) and its Jacobian
    dr/du = (q0 - u)/|q0 - u| + (qs_k - u)/|qs_k - u|, from one pass over
    the leg vectors.  The norms are numpy's own arithmetic for
    ``np.linalg.norm`` (a dot product, or a row sum of squares), without
    its call overhead.
    """
    e0 = q0 - u
    ek = qs - u
    d0 = math.sqrt(e0 @ e0)
    dk = np.sqrt((ek * ek).sum(axis=1))
    return measured - (d0 + dk), e0 / d0 + ek / dk[:, None]


def linear_bootstrap(measured: np.ndarray, q0: Vec3,
                     qs: np.ndarray) -> Vec3 | None:
    """Closed-form start point: subtracting the active-leg equation from
    each squared range sum leaves equations linear in (u, d0).

    Returns None when the system is too ill-conditioned to trust.
    """
    n = len(measured)
    if n < 4:
        return None
    a = np.empty((n, 4))
    a[:, :3] = 2.0 * (q0 - qs)
    a[:, 3] = 2.0 * measured
    # scalar squares and BLAS dots, not an array power or a row sum
    squares = np.array([m ** 2 for m in measured.tolist()])
    b = squares - np.matmul(qs[:, None, :], qs[:, :, None])[:, 0, 0] + q0 @ q0
    try:
        sol, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if rank < 4 or sv[-1] < 1e-9 * sv[0]:
        return None
    return sol[:3]


def _lm_descend(measured, q0, qs, start, step_tol, max_iter, rank_tol):
    u = np.asarray(start, float).copy()
    lam = 1e-3
    r, jac = _residual_and_jacobian(u, measured, q0, qs)
    cost = float(r @ r)
    jacs = []           # the Jacobian at every iterate the loop steps from
    converged = False
    degenerate = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if not jacs or jacs[-1] is not jac:
            jacs.append(jac)
        hess = jac.T @ jac + lam * _EYE3
        grad = jac.T @ r
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            degenerate = True
            break
        if math.sqrt(step @ step) < step_tol:
            converged = True
            break
        trial = u + step
        r_trial, jac_trial = _residual_and_jacobian(trial, measured, q0, qs)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost:
            u, r, jac, cost = trial, r_trial, jac_trial, cost_trial
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 3.0
            if lam > 1e12:
                break
    # One batched SVD gives every iterate's singular values; the descent
    # is degenerate when any iterate's Jacobian has rank below 3, as
    # np.linalg.matrix_rank(jac, tol=rank_tol) counts it.  It runs even
    # after a singular solve so that a non-finite Jacobian still raises.
    if jacs:
        sv = np.linalg.svd(np.stack(jacs), compute_uv=False)
        degenerate = degenerate or bool(np.any((sv > rank_tol).sum(axis=-1) < 3))
    return PositionEstimate(position=u, residual_norm=math.sqrt(cost),
                            iterations=iterations, converged=converged,
                            degenerate=degenerate)


def estimate_position(measurements, q0, passive_positions, prior,
                      step_tol: float = 1e-9, max_iter: int = 100,
                      rank_tol: float = 1e-8) -> PositionEstimate:
    """Least-squares target fix from range-sum measurements.

    measurements are the measured range sums; passive_positions rows
    must align with them.  Damped
    Gauss-Newton runs from the prior and, because the range-sum cost has
    local minima when the prior is far off, also from the linear
    bootstrap when four measurements allow one; the lower final cost
    wins.  A prior on a UAV is rejected: its zero leg has no direction.
    """
    measured = np.array(measurements, dtype=float).reshape(-1)
    if len(measured) < 1:
        raise PositioningError("need at least one measurement")
    qs = np.asarray(passive_positions, float)
    if qs.size != 3 * len(measured):
        raise PositioningError(
            f"passive_positions hold {qs.size} coordinates, expected 3 for "
            f"each of the {len(measured)} measurements")
    qs = qs.reshape(len(measured), 3)
    q0 = np.asarray(q0, float)
    prior = np.asarray(prior, float)
    if prior.tolist() in [q0.tolist(), *qs.tolist()]:
        raise PositioningError("the prior sits on a UAV")

    starts = [prior]
    boot = linear_bootstrap(measured, q0, qs)
    if boot is not None and np.all(np.isfinite(boot)):
        starts.append(boot)
    best = None
    for start in starts:
        est = _lm_descend(measured, q0, qs, start, step_tol, max_iter, rank_tol)
        if best is None or est.residual_norm < best.residual_norm:
            best = est
    return best


def position_error(estimate, truth) -> float:
    """Euclidean distance between estimated and true target positions."""
    e = np.asarray(estimate, float) - np.asarray(truth, float)
    return float(np.sqrt(e @ e))
