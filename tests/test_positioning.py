import dataclasses
import math

import numpy as np
import pytest

from fasloc import positioning
from fasloc.analysis import (build_geometry_matrix, linearized_rms_error,
                             tetrahedral_geometry)
from fasloc.config import default_config
from fasloc.env import PositioningEnv
from fasloc.marl import MarlTrainer
from fasloc.positioning import (PositioningError, PositionEstimate,
                                estimate_position, linear_bootstrap,
                                position_error, sample_range, true_range_sum)


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
# with a separate residual and Jacobian pass and np.linalg.matrix_rank at
# every iterate.  The solver in fasloc.positioning evaluates a trial point
# without its Jacobian, reuses the normal equations across rejected
# trials, batches the rank test and calls LAPACK directly, and must
# return the same bits.

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


def _oracle_descend(measured, q0, qs, start, step_tol, max_iter, rank_tol):
    u = np.asarray(start, float).copy()
    lam = 1e-3
    r = _oracle_residuals(u, measured, q0, qs)
    cost = float(r @ r)
    converged = False
    degenerate = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = _oracle_jacobian(u, q0, qs)
        if np.linalg.matrix_rank(jac, tol=rank_tol) < 3:
            degenerate = True
        hess = jac.T @ jac + lam * np.eye(3)
        grad = jac.T @ r
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            degenerate = True
            break
        if np.linalg.norm(step) < step_tol:
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
    return PositionEstimate(position=u, residual_norm=math.sqrt(cost),
                            iterations=iterations, converged=converged,
                            degenerate=degenerate)


def _oracle_estimate(measured, q0, qs, prior, step_tol=1e-9, max_iter=100,
                     rank_tol=1e-8):
    measured = np.asarray(measured, float)
    starts = [np.asarray(prior, float)]
    boot = linear_bootstrap(measured, q0, qs)
    if boot is not None and np.all(np.isfinite(boot)):
        starts.append(boot)
    best = None
    for start in starts:
        est = _oracle_descend(measured, q0, qs, start, step_tol, max_iter,
                              rank_tol)
        if best is None or est.residual_norm < best.residual_norm:
            best = est
    return best


def _solver_cases(rng):
    """Seeded (measured, q0, qs, prior) tuples: generic 3- and
    4-measurement fixes, passive UAVs clustered within millimetres,
    coplanar and collinear layouts, 1-2 measurements, and last a few
    non-finite priors, whose Jacobian makes the rank test raise, and
    infinite range sums, which no step can lower the cost of."""
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
    """Every output field as bytes and scalars, or the LinAlgError type."""
    with np.errstate(invalid="ignore", divide="ignore"):
        try:
            est = solve(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            return type(exc)
    return (est.position.tobytes(), est.residual_norm, est.iterations,
            est.converged, est.degenerate)


def test_solver_matches_reference_bit_for_bit():
    degenerate, raised = [], 0
    for case in _solver_cases(np.random.default_rng(606)):
        got = _outcome(estimate_position, *case)
        assert got == _outcome(_oracle_estimate, *case)
        if got is np.linalg.LinAlgError:
            raised += 1
        else:
            degenerate.append(got[-1])
    assert 0 < sum(degenerate) < len(degenerate)
    assert raised == 12


def test_solver_matches_reference_with_few_iterations():
    # an exhausted iteration budget ends on a step whose Jacobian the
    # reference never rank-tests
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
    convergence, lam past 1e12, an exhausted max_iter and the rank test's
    LinAlgError on a non-finite Jacobian.  No input is known to make the
    damped 3x3 solve singular (JtJ + lam*I with lam >= 1e-12 and unit-scale
    Jacobian rows has no zero pivot), so that exit is reached by making
    LAPACK report one, in the solver and the reference alike."""
    exits = set()
    descend = positioning._lm_descend

    def recording(measured, legs, start, step_tol, max_iter, rank_tol):
        try:
            est = descend(measured, legs, start, step_tol, max_iter, rank_tol)
        except np.linalg.LinAlgError:
            exits.add("rank test raised")
            raise
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
            _outcome(estimate_position, *case, max_iter=max_iter)
    assert exits == {"converged", "lam", "max_iter", "rank test raised"}

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
    """Every output's bytes, or the LinAlgError and its message."""
    try:
        out = f(*args)
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)
    return [np.asarray(o).tobytes() for o in (out if isinstance(out, tuple)
                                              else (out,))]


def _lapack_inputs(rng, shape):
    """Random, singular, rank-deficient and NaN-holding matrices."""
    mats = [rng.standard_normal(shape) for _ in range(50)]
    mats += [np.zeros(shape), np.ones(shape)]
    for _ in range(20):
        low_rank = rng.standard_normal(shape)
        low_rank[..., -1, :] = low_rank[..., 0, :]
        mats.append(low_rank)
        with_nan = rng.standard_normal(shape)
        with_nan[..., rng.integers(shape[-2]), rng.integers(shape[-1])] = np.nan
        mats.append(with_nan)
    if shape == (3, 3):     # a NaN pattern LAPACK's LU pivots to a zero on
        mats.append(np.array([[np.nan, 0.0, np.nan], [0.0, 0.0, np.nan],
                              [np.nan, np.nan, np.nan]]))
    return mats


def test_direct_lapack_calls_match_np_linalg():
    rng = np.random.default_rng(35)
    raised = set()
    for a in _lapack_inputs(rng, (3, 3)):
        b = rng.standard_normal(3)
        got = _lapack_outcome(positioning._solve, a, b)
        assert got == _lapack_outcome(np.linalg.solve, a, b)
        raised.add(got[0] if isinstance(got, tuple) else None)
    for shape in ((4, 3), (3, 3), (2, 3), (5, 4, 3)):
        for a in _lapack_inputs(rng, shape):
            got = _lapack_outcome(positioning._singular_values, a)
            assert got == _lapack_outcome(
                lambda x: np.linalg.svd(x, compute_uv=False), a)
            raised.add(got[0] if isinstance(got, tuple) else None)
    for shape in ((4, 4), (6, 4)):
        rcond = np.finfo(float).eps * max(shape)
        for a in _lapack_inputs(rng, shape):
            b = rng.standard_normal((shape[0], 1))
            got = _lapack_outcome(positioning._lstsq, a, b, rcond)
            ref = _lapack_outcome(np.linalg.lstsq, a, b, None)
            if isinstance(ref, tuple):
                assert got == ref
            else:       # the wrapper empties the residuals of a square system
                assert got[0] == ref[0] and got[2:] == ref[2:]
    assert raised == {None, np.linalg.LinAlgError}


def _rank_cases(rng, rank_tol):
    """(group, Jacobian) pairs with 1-4 rows: Gaussian ones at scales
    1e-6 to 1e6 and at 1e120, rank-2 ones perturbed to a smallest singular
    value in rank_tol * [0.1, 1e4], and ones holding zero, NaN or inf
    rows."""
    cases = []
    for _ in range(400):
        rows = int(rng.integers(1, 5))
        scale = 10.0 ** rng.uniform(-6, 6)
        cases.append((f"gaussian, {min(rows, 3)} rows",
                      scale * rng.standard_normal((rows, 3))))
    for _ in range(2000):
        rows = int(rng.integers(3, 5))
        u = np.linalg.qr(rng.standard_normal((rows, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        big = 10.0 ** rng.uniform(-6, 1, size=2)
        small = rank_tol * 10.0 ** rng.uniform(-1, 4)
        cases.append(("near rank 2", u @ np.diag([*big, small]) @ v.T))
    for _ in range(30):     # finite, but tr^3 overflows
        cases.append(("huge", 1e120 * rng.standard_normal((3, 3))))
    for fill in (0.0, np.nan, np.inf, -np.inf):
        for _ in range(30):
            jac = rng.standard_normal((int(rng.integers(1, 5)), 3))
            jac[rng.integers(len(jac))] = fill
            cases.append((f"a {fill} row", jac))
    return cases


def test_rank_certificate_is_sound():
    """Whenever _full_rank passes a Jacobian's normal matrix, the SVD it
    stands in for counts rank 3; and it passes most well-conditioned
    Jacobians, including near-rank-2 ones close to the tolerance."""
    rank_tol = 1e-8
    passed, seen = {}, {}
    smallest = math.inf     # the least certified singular value
    for group, jac in _rank_cases(np.random.default_rng(36), rank_tol):
        seen[group] = seen.get(group, 0) + 1
        if positioning._full_rank(jac.T @ jac, rank_tol):
            assert np.linalg.matrix_rank(jac, tol=rank_tol) == 3, (group, jac)
            passed[group] = passed.get(group, 0) + 1
            smallest = min(smallest, np.linalg.svd(jac, compute_uv=False)[-1])
    assert passed["gaussian, 3 rows"] > seen["gaussian, 3 rows"] // 2
    assert 0 < passed["near rank 2"] < seen["near rank 2"]
    # too few rows for rank 3, or a normal matrix that is not finite or
    # whose determinant's bound overflows
    assert not {"gaussian, 1 rows", "gaussian, 2 rows", "huge", "a nan row",
                "a inf row", "a -inf row"} & set(passed)
    assert smallest < 10 * rank_tol


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
