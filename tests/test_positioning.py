import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fasloc import positioning
from fasloc.analysis import (build_geometry_matrix, linearized_rms_error,
                             tetrahedral_geometry)
from fasloc.config import default_config
from fasloc.env import PositioningEnv
from fasloc.marl import MarlTrainer
from fasloc.positioning import (PositioningError, estimate_position,
                                linear_bootstrap, position_error,
                                sample_range, true_range_sum)


class TestTrueRangeSum:
    def test_collinear_geometry(self):
        m = true_range_sum([0, 0, 0], [0, 0, 200], [0, 0, 100])
        assert m == pytest.approx(200.0, rel=1e-14)

    def test_mirror_symmetry(self):
        q0 = np.array([10.0, 20.0, 30.0])
        u = np.array([100.0, 50.0, 80.0])
        qk = 2 * u - q0  # reflection of q0 through u
        m = true_range_sum(q0, qk, u)
        assert m == pytest.approx(2 * np.linalg.norm(q0 - u), rel=1e-12)

    def test_against_alternative_norm_routine(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            q0, qk, u = rng.uniform(-500, 500, (3, 3))
            m = true_range_sum(q0, qk, u)
            expected = (math.dist(tuple(q0), tuple(u))
                        + math.dist(tuple(u), tuple(qk)))
            assert m == pytest.approx(expected, rel=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(PositioningError):
            true_range_sum([0, 0, 0], [1, 1, 1], [0, 0, 0])


class TestSampleRange:
    def test_noiseless_limit(self):
        rng = np.random.default_rng(0)
        meas = sample_range(500.0, 1e30, rng)
        assert meas == pytest.approx(500.0, abs=1e-9)

    def test_direct_sigma_substitution(self):
        rng = np.random.default_rng(0)
        meas = sample_range(100.0, 4.0, rng, variance_scale=1.0)
        # sigma = sqrt(variance_scale / snr) = 0.5 scales one standard draw
        z = np.random.default_rng(0).normal()
        assert meas - 100.0 == pytest.approx(0.5 * z, rel=1e-12)

    def test_monte_carlo_variance(self):
        rng = np.random.default_rng(12)
        snr, scale = 0.04, 1.0
        draws = sample_range(np.full(100_000, 1000.0), snr, rng, scale)
        assert draws.var() == pytest.approx(scale / snr, rel=0.03)

    def test_zero_snr_yields_no_measurement(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert math.isnan(sample_range(100.0, 0.0, rng))
        assert rng.bit_generator.state == state

    def test_errors_independent_across_uavs(self):
        rng = np.random.default_rng(99)
        n = 100_000
        errs = np.empty((4, n))
        for i in range(n):
            errs[:, i] = sample_range(np.full(4, 100.0), np.ones(4), rng) - 100.0
        corr = np.corrcoef(errs)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.02


def _generic_geometry(rng):
    u = rng.uniform(200, 800, 3)
    q0 = u + rng.uniform(-400, 400, 3)
    qs = u[None, :] + rng.uniform(-400, 400, (4, 3))
    # keep every leg comfortably nondegenerate
    if np.linalg.norm(q0 - u) < 50 or np.min(np.linalg.norm(qs - u, axis=1)) < 50:
        return _generic_geometry(rng)
    w = build_geometry_matrix(u, q0, qs, mode="zero")
    if np.linalg.svd(w, compute_uv=False)[-1] < 0.3:
        return _generic_geometry(rng)
    return u, q0, qs


class TestEstimatePosition:
    def test_exact_measurements_recover_target(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            u, q0, qs = _generic_geometry(rng)
            sums = [true_range_sum(q0, qk, u) for qk in qs]
            prior = qs.mean(axis=0)
            est = estimate_position(sums, q0, qs, prior)
            assert est.converged
            assert np.linalg.norm(est.position - u) < 1e-6

    def test_truth_is_a_fixed_point(self):
        rng = np.random.default_rng(5)
        u, q0, qs = _generic_geometry(rng)
        sums = [true_range_sum(q0, qk, u) for qk in qs]
        est = estimate_position(sums, q0, qs, prior=u)
        assert np.linalg.norm(est.position - u) < 1e-9

    def test_far_prior_still_converges(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            u, q0, qs = _generic_geometry(rng)
            sums = [true_range_sum(q0, qk, u) for qk in qs]
            offset = rng.standard_normal(3)
            prior = u + 500.0 * offset / np.linalg.norm(offset)
            est = estimate_position(sums, q0, qs, prior)
            assert est.converged and est.iterations <= 100
            assert np.linalg.norm(est.position - u) < 1e-5

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        u, q0, qs = _generic_geometry(rng)
        sums = [true_range_sum(q0, qk, u) + e
                for qk, e in zip(qs, rng.normal(0, 1.0, 4))]
        prior = qs.mean(axis=0)
        shift = np.array([1000.0, -2000.0, 500.0])
        est = estimate_position(sums, q0, qs, prior)
        est_shifted = estimate_position(sums, q0 + shift, qs + shift,
                                        prior + shift)
        np.testing.assert_allclose(est_shifted.position,
                                   est.position + shift, atol=1e-6)

    def test_accepts_a_list_of_floats(self):
        rng = np.random.default_rng(2)
        u, q0, qs = _generic_geometry(rng)
        ms = [true_range_sum(q0, qk, u) for qk in qs]
        est = estimate_position(ms, q0, qs, qs.mean(axis=0))
        assert np.linalg.norm(est.position - u) < 1e-6

    def test_degenerate_geometry_flagged(self):
        u = np.array([0.0, 0.0, 100.0])
        q0 = np.array([0.0, 0.0, 400.0])
        qs = np.array([[0.0, 0.0, 300.0], [0.0, 0.0, 250.0],
                       [0.0, 0.0, 350.0], [0.0, 0.0, 200.0]])
        sums = [true_range_sum(q0, qk, u) for qk in qs]
        est = estimate_position(sums, q0, qs, np.array([50.0, 50.0, 150.0]))
        assert est.degenerate

    def test_no_measurements_rejected(self):
        with pytest.raises(PositioningError, match="at least one"):
            estimate_position([], [0.0, 0.0, 0.0], np.ones((4, 3)),
                              [1.0, 2.0, 3.0])

    def test_position_count_mismatch_rejected(self):
        with pytest.raises(PositioningError, match="3 measurements"):
            estimate_position([500.0, 510.0, 520.0], [0.0, 0.0, 0.0],
                              np.ones((4, 3)), [1.0, 2.0, 3.0])

    def test_rms_error_matches_linearized_theory(self):
        # symmetric placement, unit measurement noise
        rng = np.random.default_rng(77)
        u = np.array([500.0, 500.0, 500.0])
        q0, qs = tetrahedral_geometry(u, np.array([0.2, 0.3, 0.9]),
                                      d0=300.0, dk=250.0)
        geom = build_geometry_matrix(u, q0, qs, mode="zero")
        predicted = linearized_rms_error(geom, 1.0)
        trials = 10_000
        sq = 0.0
        sums = np.array([true_range_sum(q0, qk, u) for qk in qs])
        for _ in range(trials):
            noisy = sums + rng.normal(0.0, 1.0, 4)
            est = estimate_position(noisy, q0, qs, prior=u)
            sq += float(np.sum((est.position - u) ** 2))
        rms = math.sqrt(sq / trials)
        assert rms == pytest.approx(predicted, rel=0.05)


# Reference solver: the plain descent through the np.linalg wrappers,
# with a separate residual and Jacobian pass, and np.linalg.matrix_rank on
# the Jacobian of the fix it returns.  The solver in fasloc.positioning
# evaluates a trial point without its Jacobian, reuses the normal
# equations across rejected trials, rank-tests only when degenerate is
# read and calls LAPACK's solve directly, and must return the same bits.

def _oracle_residuals(u, measured, q0, qs):
    d0 = np.linalg.norm(q0 - u)
    dk = np.linalg.norm(qs - u[None, :], axis=1)
    return measured - (d0 + dk)


def _oracle_jacobian(u, q0, qs):
    diff0 = u - q0
    d0 = np.linalg.norm(diff0)
    diffk = u - qs
    dk = np.linalg.norm(diffk, axis=1)
    return -(diff0 / d0 + (diffk.T / dk).T)


def _oracle_descend(measured, q0, qs, start, max_iter):
    u = np.asarray(start, float).copy()
    lam = 1e-3
    r = _oracle_residuals(u, measured, q0, qs)
    cost = float(r @ r)
    converged = False
    singular = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = _oracle_jacobian(u, q0, qs)
        hess = jac.T @ jac + lam * np.eye(3)
        grad = jac.T @ r
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            singular = True
            break
        if np.linalg.norm(step) < 1e-9:
            converged = True
            break
        trial = u + step
        r_trial = _oracle_residuals(trial, measured, q0, qs)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost:
            u, r, cost = trial, r_trial, cost_trial
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 3.0
            if lam > 1e12:
                break
    degenerate = singular or np.linalg.matrix_rank(
        _oracle_jacobian(u, q0, qs), tol=1e-8) < 3
    return SimpleNamespace(position=u, residual_norm=math.sqrt(cost),
                           iterations=iterations, converged=converged,
                           degenerate=degenerate)


def _oracle_estimate(measured, q0, qs, prior, max_iter=100):
    measured = np.asarray(measured, float)
    if not np.all(np.isfinite(prior)):
        raise PositioningError("the prior is not finite")
    starts = [np.asarray(prior, float)]
    boot = linear_bootstrap(measured, q0, qs)
    if boot is not None and np.all(np.isfinite(boot)):
        starts.append(boot)
    best = None
    for start in starts:
        est = _oracle_descend(measured, q0, qs, start, max_iter)
        if best is None or est.residual_norm < best.residual_norm:
            best = est
    return best


def _solver_cases(rng):
    """Seeded (measured, q0, qs, prior) tuples: generic 3- and
    4-measurement fixes, passive UAVs clustered within millimetres,
    coplanar and collinear layouts, 1-2 measurements, and last a few
    non-finite priors, which the prior check rejects, and infinite range
    sums, which no step can lower the cost of."""
    cases = []
    for i in range(360):
        kind = i % 6
        u = rng.uniform(200, 800, 3)
        q0 = u + rng.uniform(-400, 400, 3)
        n = 3 if kind == 1 else 4
        qs = u + rng.uniform(-400, 400, (n, 3))
        prior = u + rng.normal(0.0, 30.0, 3)
        if kind == 2:      # passive UAVs within millimetres of each other
            qs = qs[0] + rng.uniform(-1e-3, 1e-3, (4, 3))
        elif kind == 3:    # everything, prior included, in one plane
            q0[2] = qs[:, 2] = u[2] = prior[2] = 300.0
        elif kind == 4:    # coplanar UAVs, target off the plane
            q0[2] = qs[:, 2] = 300.0
        elif kind == 5:    # collinear, or too few measurements
            if i % 12 == 5:
                axis = rng.standard_normal(3)
                q0, *rows = [u + t * axis
                             for t in rng.uniform(50, 300, 5)]
                qs = np.array(rows)
                prior = u + rng.normal(0.0, 30.0, 3)
            else:
                qs = qs[:1 + i % 2]
        sums = (np.linalg.norm(q0 - u) + np.linalg.norm(qs - u, axis=1)
                + rng.normal(0.0, 0.5, len(qs)))
        cases.append((sums, q0, qs, prior))
    for sums, q0, qs, prior in cases[:6]:
        cases.append((sums, q0, qs, np.where(np.arange(3) == len(cases) % 3,
                                             np.nan, prior)))
        cases.append((sums, q0, qs, prior + np.array([np.inf, 0.0, 0.0])))
        cases.append((np.append(sums[:2], np.inf), q0, qs[:3], prior))
    return cases


def _outcome(solve, *args, **kwargs):
    """Every output field as bytes and scalars, or PositioningError."""
    with np.errstate(invalid="ignore", divide="ignore"):
        try:
            est = solve(*args, **kwargs)
            return (est.position.tobytes(), est.residual_norm, est.iterations,
                    est.converged, est.degenerate)
        except PositioningError:
            return PositioningError


def test_solver_matches_reference_bit_for_bit():
    degenerate, raised = [], 0
    for case in _solver_cases(np.random.default_rng(606)):
        got = _outcome(estimate_position, *case)
        assert got == _outcome(_oracle_estimate, *case)
        if got is PositioningError:
            raised += 1
        else:
            degenerate.append(got[-1])
    assert 0 < sum(degenerate) < len(degenerate)
    assert raised == 12


def test_solver_matches_reference_with_few_iterations():
    # an exhausted iteration budget can end on an accepted step, whose
    # Jacobian the descent has not built yet but degenerate tests
    for case in _solver_cases(np.random.default_rng(7))[:60]:
        for max_iter in (0, 1, 2, 5):
            assert (_outcome(estimate_position, *case, max_iter=max_iter)
                    == _outcome(_oracle_estimate, *case, max_iter=max_iter))


@pytest.mark.parametrize("scheme", ["random", "ar_marl"])
def test_solver_matches_reference_on_episode_traffic(scheme, monkeypatch):
    """Every fix of one seeded default-config episode."""
    cfg = default_config()
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=3,
                                                           scheme=scheme))
    trainer = MarlTrainer(cfg)
    fixes = []
    solve = positioning.estimate_position

    def recording(*args):
        fixes.append(tuple(np.array(a, dtype=float) for a in args))
        return solve(*args)

    monkeypatch.setattr(positioning, "estimate_position", recording)
    trainer.rollout([PositioningEnv(cfg, trainer.env_rng)], 0.5)
    assert len(fixes) >= 15
    for fix in fixes:
        assert _outcome(estimate_position, *fix) == _outcome(_oracle_estimate, *fix)


def test_cases_reach_every_exit_of_the_descent(monkeypatch):
    """_solver_cases drive each way out of the descent: step-size
    convergence, lam past 1e12 and an exhausted max_iter, and the prior
    check's PositioningError before it.  No input is known to make the
    damped 3x3 solve singular (JtJ + lam*I with lam >= 1e-12 and unit-scale
    Jacobian rows has no zero pivot), so that exit is reached by making
    LAPACK report one, in the solver and the reference alike."""
    exits = set()
    descend = positioning._lm_descend

    def recording(measured, legs, start, max_iter):
        est = descend(measured, legs, start, max_iter)
        if est.converged:
            exits.add("converged")
        elif est.iterations == max_iter:
            exits.add("max_iter")
        else:
            exits.add("lam")
        return est

    monkeypatch.setattr(positioning, "_lm_descend", recording)
    for case in _solver_cases(np.random.default_rng(606)):
        for max_iter in (2, 100):
            if _outcome(estimate_position, *case,
                        max_iter=max_iter) is PositioningError:
                exits.add("prior check")
    assert exits == {"converged", "lam", "max_iter", "prior check"}

    # LAPACK reports a singular matrix at the third solve of each descent
    calls = {"solver": 0, "reference": 0}

    def singular_at_third(solve, who):
        def wrapped(a, b):
            calls[who] += 1
            if calls[who] % 3 == 0:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)
        return wrapped

    monkeypatch.setattr(positioning, "_lm_descend", descend)
    monkeypatch.setattr(positioning, "_solve",
                        singular_at_third(positioning._solve, "solver"))
    oracle_solve = singular_at_third(np.linalg.solve, "reference")
    singular = 0
    for case in _solver_cases(np.random.default_rng(7))[:60]:
        calls["solver"] = calls["reference"] = 0
        got = _outcome(estimate_position, *case)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", oracle_solve)
            assert got == _outcome(_oracle_estimate, *case)
        if len(case[0]) < 4 and calls["solver"] == 3:
            # no bootstrap, so the one descent ended at its third solve
            assert got[2:] == (3, False, True)
            singular += 1
    assert singular > 0


def _lapack_outcome(f, *args):
    """The output's bytes, or the LinAlgError and its message."""
    try:
        return f(*args).tobytes()
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)


def _solve_inputs(rng):
    """Random, singular, rank-deficient and NaN-holding 3x3 matrices."""
    mats = [rng.standard_normal((3, 3)) for _ in range(50)]
    mats += [np.zeros((3, 3)), np.ones((3, 3))]
    for _ in range(20):
        low_rank = rng.standard_normal((3, 3))
        low_rank[-1] = low_rank[0]
        mats.append(low_rank)
        with_nan = rng.standard_normal((3, 3))
        with_nan[rng.integers(3), rng.integers(3)] = np.nan
        mats.append(with_nan)
    # a NaN pattern LAPACK's LU pivots to a zero on
    mats.append(np.array([[np.nan, 0.0, np.nan], [0.0, 0.0, np.nan],
                          [np.nan, np.nan, np.nan]]))
    return mats


def test_direct_lapack_calls_match_np_linalg():
    rng = np.random.default_rng(35)
    raised = set()
    for a in _solve_inputs(rng):
        b = rng.standard_normal(3)
        got = _lapack_outcome(positioning._solve, a, b)
        assert got == _lapack_outcome(np.linalg.solve, a, b)
        raised.add(got[0] if isinstance(got, tuple) else None)
    assert raised == {None, np.linalg.LinAlgError}


def test_non_finite_prior_rejected(capfd):
    rng = np.random.default_rng(37)
    u, q0, qs = _generic_geometry(rng)
    sums = np.array([true_range_sum(q0, qk, u) for qk in qs])
    for n in (3, 4):
        for max_iter in (0, 100):
            for fill in (np.nan, np.inf, -np.inf):
                for axis in range(3):
                    prior = u.copy()
                    prior[axis] = fill
                    with pytest.raises(PositioningError,
                                       match="the prior is not finite"):
                        estimate_position(sums[:n], q0, qs[:n], prior,
                                          max_iter=max_iter)
    assert capfd.readouterr().err == ""


def test_prior_on_a_uav_rejected(capfd):
    # a zero leg would make the Jacobian non-finite at the first iterate
    cases = [(measured, q0, qs, prior) for measured, q0, qs, _
             in _solver_cases(np.random.default_rng(3))[:12]
             for prior in (q0, qs[0])]
    # a leg that is not zero but whose length underflows to 0
    cases.append((np.full(3, 200.0), np.zeros(3), 100.0 * np.eye(3),
                  np.full(3, 1e-170)))
    for measured, q0, qs, prior in cases:
        with pytest.raises(PositioningError, match="the prior sits on a UAV"):
            estimate_position(measured, q0, qs, prior)
    assert capfd.readouterr().err == ""


class TestPositionError:
    def test_zero_for_exact(self):
        assert position_error([1, 2, 3], [1, 2, 3]) == 0.0

    def test_three_four_five(self):
        assert position_error([3.0, 4.0, 0.0], [0.0, 0.0, 0.0]) == pytest.approx(5.0)

    def test_against_oracle_recomputation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b = rng.uniform(-100, 100, (2, 3))
            expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            assert position_error(a, b) == pytest.approx(expected, rel=1e-14)


class TestUavAxis:
    """The ranging helpers on a (4, ...) stack give their scalar calls'
    bits row by row, errors included."""

    def test_true_range_sum_rows(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            q0, u = rng.uniform(0, 1000, 3), rng.uniform(0, 1000, 3)
            qs = rng.uniform(0, 1000, (4, 3))
            got = true_range_sum(q0, qs, u)
            ref = np.array([true_range_sum(q0, q, u) for q in qs])
            assert got.tobytes() == ref.tobytes()
        qs[1] = u
        with pytest.raises(PositioningError):
            true_range_sum(q0, qs, u)

    def test_sample_range_rows(self):
        """One draw per positive SNR, in row order; a zero SNR neither
        measures nor draws."""
        rng = np.random.default_rng(31)
        stacked_rng, row_rng = np.random.default_rng(32), np.random.default_rng(32)
        for _ in range(500):
            m = rng.uniform(100.0, 3000.0, 4)
            snr = np.where(rng.uniform(size=4) < 0.2, 0.0,
                           10.0 ** rng.uniform(-3, 3, 4))
            got = sample_range(m, snr, stacked_rng, 1.5)
            ref = np.array([sample_range(float(a), float(b), row_rng, 1.5)
                            for a, b in zip(m, snr)])
            assert got.tobytes() == ref.tobytes()
            assert np.array_equal(np.isnan(got), snr == 0.0)
            assert (stacked_rng.bit_generator.state
                    == row_rng.bit_generator.state)
        with pytest.raises(PositioningError):
            sample_range(m, np.array([1.0, -1.0, 1.0, 1.0]), stacked_rng)

    def test_sample_range_is_the_normal_draw(self):
        rng, ref_rng = np.random.default_rng(33), np.random.default_rng(33)
        for snr in (1e-3, 0.5, 4.0, 1e30):
            got = sample_range(700.0, snr, rng, 2.0)
            assert got == 700.0 + ref_rng.normal(0.0, math.sqrt(2.0 / snr))


def _ref_bootstrap(measured, q0, qs):
    """linear_bootstrap's equations built row by row."""
    n = len(measured)
    if n < 4:
        return None
    a = np.zeros((n, 4))
    b = np.zeros(n)
    for k in range(n):
        a[k, :3] = 2.0 * (q0 - qs[k])
        a[k, 3] = 2.0 * measured[k]
        b[k] = measured[k] ** 2 - qs[k] @ qs[k] + q0 @ q0
    try:
        sol, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if rank < 4 or sv[-1] < 1e-9 * sv[0]:
        return None
    return sol[:3]


def _bytes(x):
    return None if x is None else x.tobytes()


def test_bootstrap_matches_row_loop():
    cases = _solver_cases(np.random.default_rng(606))
    rng = np.random.default_rng(34)
    for _ in range(20_000):
        u = rng.uniform(0, 1000, 3)
        q0 = rng.uniform(0, 1000, 3)
        qs = rng.uniform(0, 1000, (4, 3))
        measured = (np.linalg.norm(q0 - u) + np.linalg.norm(qs - u, axis=1)
                    + rng.normal(0.0, 1.0, 4))
        cases.append((measured, q0, qs, None))
    for measured, q0, qs, _ in cases:
        measured = np.asarray(measured, float)
        assert (_bytes(linear_bootstrap(measured, q0, qs))
                == _bytes(_ref_bootstrap(measured, q0, qs)))
