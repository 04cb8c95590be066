"""Range-sum measurement generation and target position estimation.

Each passive UAV measures the total path length active -> target ->
passive.  The ground station stacks those range sums and solves a small
nonlinear least-squares problem for the target coordinates with a
damped Gauss-Newton (Levenberg-Marquardt) iteration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .world import Vec3, norms


class PositioningError(ValueError):
    pass


STEP_TOL = 1e-9     # the descent has converged once a step is this short
RANK_TOL = 1e-8     # singular values of the Jacobian at or below this are 0


@dataclass
class PositionEstimate:
    """A descent's fix, with the Jacobian dr/du at it."""
    position: Vec3
    residual_norm: float
    iterations: int
    converged: bool
    jacobian: np.ndarray

    @property
    def degenerate(self) -> bool:
        """Whether the fix is ill-posed: the Jacobian at the fix has rank
        below 3 (np.linalg.matrix_rank with tol=RANK_TOL).  Computed when
        read; the simulator never reads it."""
        return bool(np.linalg.matrix_rank(self.jacobian, tol=RANK_TOL) < 3)


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


# np.linalg.solve's LAPACK gufunc without its wrapper (most of a 3x3
# solve's cost) or error handler: no JtJ + lam*I the descent builds is
# singular (README), and a NaN step is just a rejected trial
_solve = functools.partial(_umath_linalg.solve1, signature="dd->d")
_EYE3 = np.eye(3)


def linear_bootstrap(measured: np.ndarray, q0: Vec3,
                     qs: np.ndarray) -> Vec3 | None:
    """Closed-form start point: subtracting the active-leg equation from
    each squared range sum leaves equations linear in (u, d0).  None when
    the system is too ill-conditioned to trust.
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
        sol, _, rank, sv = np.linalg.lstsq(a, b[:, None], rcond=None)
    except LinAlgError:
        return None
    if rank < 4 or sv[-1] < 1e-9 * sv[0]:
        return None
    return sol[:3, 0]


def _evaluate(u, measured, legs):
    """u, its legs e = legs - u (active UAV first), their lengths as norm
    takes them (a BLAS dot, row sums of squares), residual r and cost."""
    e = legs - u
    ek = e[1:]
    d0 = math.sqrt(e[0] @ e[0])
    dk = np.sqrt(np.add.reduce(ek * ek, axis=1))
    r = measured - (d0 + dk)
    return u, e, d0, dk, r, float(r @ r)


def _jacobian(e, d0, dk):
    """dr/du at the point whose legs and lengths _evaluate gave."""
    return e[0] / d0 + e[1:] / dk[:, None]


def _lm_descend(measured, legs, start, max_iter):
    """Levenberg-Marquardt from start, _evaluate's tuple at the start point."""
    u, e, d0, dk, r, cost = start
    lam = 1e-3
    jac = None          # None until u's Jacobian is built
    iterations, converged = 0, False
    for iterations in range(1, max_iter + 1):
        if jac is None:
            # the normal equations every trial from u shares
            jac = _jacobian(e, d0, dk)
            jtj, neg_grad = jac.T @ jac, -(jac.T @ r)
        step = _solve(jtj + lam * _EYE3, neg_grad)
        if math.sqrt(step @ step) < STEP_TOL:
            converged = True
            break
        trial = _evaluate(u + step, measured, legs)
        if trial[-1] < cost:
            u, e, d0, dk, r, cost = trial
            jac = None
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 3.0
            if lam > 1e12:
                break
    if jac is None:     # max_iter ran out on an accepted step, or was 0
        jac = _jacobian(e, d0, dk)
    return PositionEstimate(u, math.sqrt(cost), iterations, converged, jac)


def estimate_position(measurements, q0, passive_positions, prior,
                      max_iter: int = 100) -> PositionEstimate:
    """Least-squares target fix from range-sum measurements.

    passive_positions rows align with the range sums.  The descent runs
    from the prior and, as the cost has local minima when the prior is
    far off, from the linear bootstrap when four measurements allow one;
    the lower final cost wins.  A prior that is not finite is rejected,
    and so is one on a UAV, or so close to one that a leg's length
    underflows to 0: a zero leg has no direction.  The returned fix's
    degenerate flag rank-tests its own Jacobian, and only when read.
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
    legs = np.concatenate([q0[None], qs])
    prior = np.array(prior, float)
    if not np.isfinite(prior).all():
        raise PositioningError("the prior is not finite")
    start = _evaluate(prior, measured, legs)
    if start[2] == 0.0 or 0.0 in start[3].tolist():
        raise PositioningError("the prior sits on a UAV")

    best = _lm_descend(measured, legs, start, max_iter)
    boot = linear_bootstrap(measured, q0, qs)
    if boot is not None and np.isfinite(boot).all():
        est = _lm_descend(measured, legs,
                          _evaluate(np.array(boot), measured, legs), max_iter)
        if est.residual_norm < best.residual_norm:
            best = est
    return best


def position_error(estimate, truth) -> float:
    """Euclidean distance between estimated and true target positions."""
    e = np.asarray(estimate, float) - np.asarray(truth, float)
    return float(np.sqrt(e @ e))
