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
from numpy.linalg import LinAlgError, _linalg, _umath_linalg

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


def _lapack(gufunc, on_error, signature: str):
    """The numpy.linalg gufunc as its np.linalg wrapper calls it, under the
    same error handlers, minus the wrapper (most of a 3x3 solve's cost)."""
    return np.errstate(call=on_error, all="ignore", invalid="call")(
        functools.partial(gufunc, signature=signature))


_solve = _lapack(_umath_linalg.solve1, _linalg._raise_linalgerror_singular, "dd->d")
_singular_values = _lapack(_umath_linalg.svd,
                           _linalg._raise_linalgerror_svd_nonconvergence, "d->d")
_lstsq = _lapack(_umath_linalg.lstsq, _linalg._raise_linalgerror_lstsq, "ddd->ddid")
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
        # np.linalg.lstsq's rcond=None, eps * max(a.shape), as a has n >= 4 rows
        sol, _, rank, sv = _lstsq(a, b[:, None], np.finfo(float).eps * n)
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


def _full_rank(jtj: np.ndarray, rank_tol: float) -> bool:
    """Whether the normal matrix jtj = J^T J proves that the Jacobian J
    has three singular values above rank_tol, as the SVD that
    np.linalg.matrix_rank(J, tol=rank_tol) runs computes them.

    Proof.  Let l1 >= l2 >= l3 >= 0 be the eigenvalues of J^T J, the
    squared singular values of J, with trace tr and determinant det.  As
    l1 * l2 <= ((l1 + l2) / 2)^2 <= tr^2 / 4, l3 = det / (l1 * l2) >=
    4 * det / tr^2.  The test asks det > 1e-6 * tr^3, so l3 > 4e-6 * tr,
    and tr > (1e3 * rank_tol)^2, so l3 > 4 * rank_tol^2: the smallest
    singular value exceeds 2 * rank_tol, and 2e-3 * sqrt(tr) >= 2e-3 times
    the largest.  Rounding moves none of this: jtj's entries and the
    cofactor expansion below are off by a few eps * tr and eps * tr^3,
    and LAPACK's singular values by a few eps times the largest, each
    some 1e9 times below the margins.  A NaN fails every comparison, and
    no determinant exceeds the infinite bound of an infinite trace, so
    such a Jacobian is never certified and goes to the SVD, which raises.
    The determinant and trace are taken in Python floats, a fraction of
    the cost of one stacked SVD call.
    """
    (a, b, c), (d, e, f), (g, h, i) = jtj.tolist()
    tr = a + e + i
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # tr * tr * tr overflows to inf, where tr ** 3 would raise
    return det > 1e-6 * (tr * tr * tr) and tr > (1e3 * rank_tol) ** 2


def _lm_descend(measured, legs, start, step_tol, max_iter, rank_tol):
    """Levenberg-Marquardt from start, _evaluate's tuple at the start point."""
    u, e, d0, dk, r, cost = start
    lam = 1e-3
    jac = None          # None until u's Jacobian is built
    unproven = []       # the Jacobians of the iterates the loop steps from
                        # whose rank _full_rank does not prove
    iterations, converged, degenerate = 0, False, False
    for iterations in range(1, max_iter + 1):
        if jac is None:
            # dr/du, and the normal equations every trial from u shares
            jac = e[0] / d0 + e[1:] / dk[:, None]
            jtj, neg_grad = jac.T @ jac, -(jac.T @ r)
            if not _full_rank(jtj, rank_tol):
                unproven.append(jac)
        try:
            step = _solve(jtj + lam * _EYE3, neg_grad)
        except LinAlgError:
            degenerate = True
            break
        if math.sqrt(step @ step) < step_tol:
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
    # Degenerate when any iterate's Jacobian has rank below 3, as
    # np.linalg.matrix_rank(jac, tol=rank_tol) counts it; even after a
    # singular solve, so that a NaN Jacobian still raises.  Only the
    # Jacobians _full_rank leaves unproven need the SVD.
    if unproven:
        sv = _singular_values(np.stack(unproven))
        degenerate = degenerate or bool(np.any((sv > rank_tol).sum(axis=-1) < 3))
    return PositionEstimate(u, math.sqrt(cost), iterations, converged, degenerate)


def estimate_position(measurements, q0, passive_positions, prior,
                      step_tol: float = 1e-9, max_iter: int = 100,
                      rank_tol: float = 1e-8) -> PositionEstimate:
    """Least-squares target fix from range-sum measurements.

    passive_positions rows align with the range sums.  The descent runs
    from the prior and, as the cost has local minima when the prior is
    far off, from the linear bootstrap when four measurements allow one;
    the lower final cost wins.  A prior on a UAV, or so close to one that
    a leg's length underflows to 0, is rejected: a zero leg has no
    direction.
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
    start = _evaluate(np.array(prior, float), measured, legs)
    if start[2] == 0.0 or 0.0 in start[3].tolist():
        raise PositioningError("the prior sits on a UAV")

    best = _lm_descend(measured, legs, start, step_tol, max_iter, rank_tol)
    boot = linear_bootstrap(measured, q0, qs)
    if boot is not None and np.isfinite(boot).all():
        est = _lm_descend(measured, legs,
                          _evaluate(np.array(boot), measured, legs),
                          step_tol, max_iter, rank_tol)
        if est.residual_norm < best.residual_norm:
            best = est
    return best


def position_error(estimate, truth) -> float:
    """Euclidean distance between estimated and true target positions."""
    e = np.asarray(estimate, float) - np.asarray(truth, float)
    return float(np.sqrt(e @ e))
