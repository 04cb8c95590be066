import math

import numpy as np
import pytest

from fasloc.analysis import (GeometryDegenerateError, build_geometry_matrix,
                             error_gain_ratio, isotropic_directions,
                             linearized_rms_error, min_error_closed_form,
                             monte_carlo_rms_error, tetrahedral_geometry)


def _random_rotation(rng):
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


class TestGeometryMatrix:
    def test_symmetric_construction_rows_bounded(self):
        u = np.zeros(3)
        q0 = np.array([0.0, 0.0, 1000.0])
        d = 200.0
        qs = np.array([[d, 0, 0], [-d, 0, 0], [0, d, 0], [0, -d, 0]], float)
        geom = build_geometry_matrix(u, q0, qs, mode="zero")
        norms = np.linalg.norm(geom, axis=1)
        assert np.all(norms <= 2.0 + 1e-12)  # sum of two unit vectors
        assert geom.shape == (4, 3)

    def test_deterministic_mode_scales_passive_terms(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(100, 500, 3)
        q0 = u + np.array([50.0, -80.0, 120.0])
        qs = u[None, :] + rng.uniform(-300, 300, (4, 3))
        kwargs = dict(noise_std=1e-6, unit_gain=1e-3, reflect=0.5,
                      power=10.0, error_coeff=3.0)
        det = build_geometry_matrix(u, q0, qs, mode="deterministic", **kwargs)
        ratio = error_gain_ratio(kwargs["noise_std"], kwargs["unit_gain"],
                                 kwargs["reflect"], kwargs["power"],
                                 kwargs["error_coeff"])
        dk = np.linalg.norm(u[None, :] - qs, axis=1)
        passive_terms = (u[None, :] - qs) / dk[:, None]
        np.testing.assert_allclose(det, (1.0 + ratio) * passive_terms,
                                   rtol=1e-12)

    def test_generic_rank_three_collinear_rank_deficient(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 100, 3)
        q0 = u + rng.uniform(50, 100, 3)
        qs = u[None, :] + rng.uniform(-200, 200, (4, 3))
        assert np.linalg.matrix_rank(build_geometry_matrix(u, q0, qs)) == 3

        # passive UAVs, target, and active UAV all on one line
        axis = np.array([1.0, 1.0, 0.5])
        axis /= np.linalg.norm(axis)
        qs_line = u[None, :] + np.outer([100.0, -150.0, 220.0, -260.0], axis)
        q0_line = u + 400.0 * axis
        geom = build_geometry_matrix(u, q0_line, qs_line)
        assert np.linalg.matrix_rank(geom, tol=1e-9) < 3
        assert np.linalg.svd(geom, compute_uv=False)[-1] < 1e-10

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_geometry_matrix(np.zeros(3), np.ones(3),
                                  np.eye(4, 3) * 100, mode="bogus")


class TestLinearizedError:
    def test_isotropic_scaled_columns(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        s = 1.7
        var = 2.3
        err = linearized_rms_error(s * q, var)
        assert err == pytest.approx(math.sqrt(3.0 * var) / s, rel=1e-12)

    def test_spectral_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            w = rng.standard_normal((4, 3))
            eig = np.linalg.eigvalsh(w.T @ w)
            expected = math.sqrt(np.sum(1.0 / eig))
            assert linearized_rms_error(w, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_variance_scaling_law(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 3))
        assert linearized_rms_error(w, 4.0) == pytest.approx(
            2.0 * linearized_rms_error(w, 1.0), rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(17)
        u = np.array([300.0, 400.0, 500.0])
        q0, qs = tetrahedral_geometry(u, np.array([1.0, 0.2, -0.4]), 250.0, 180.0)
        base = linearized_rms_error(build_geometry_matrix(u, q0, qs), 1.0)
        for _ in range(5):
            rot = _random_rotation(rng)
            ur = rot @ u
            q0r = rot @ q0
            qsr = qs @ rot.T
            rotated = linearized_rms_error(build_geometry_matrix(ur, q0r, qsr), 1.0)
            assert rotated == pytest.approx(base, rel=1e-9)

    def test_singular_rejected(self):
        w = np.zeros((4, 3))
        w[:, 0] = 1.0
        with pytest.raises(GeometryDegenerateError):
            linearized_rms_error(w, 1.0)


class TestClosedFormMinimum:
    def test_monotone_decreasing_in_power(self):
        errs = [min_error_closed_form(300.0, 20.0, 1e-6, 1e-3, 0.5, p, 2.0)
                for p in (1.0, 5.0, 10.0, 50.0)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_zero_coefficient_limit(self):
        d0, lmin, rho, a0, beta, p0 = 400.0, 20.0, 1e-6, 1e-3, 0.5, 10.0
        got = min_error_closed_form(d0, lmin, rho, a0, beta, p0, 0.0)
        expected = 3.0 * d0 * lmin * rho / (2.0 * a0 * beta * math.sqrt(p0))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_equals_linearized_chain_at_floor_distance(self):
        # regular placement with every passive distance at the floor; the
        # trace formula with the SNR-matched variance must collapse to the
        # closed form to near machine precision
        d0, lmin = 350.0, 20.0
        rho, a0, beta, p0, coeff = 1e-6, 1e-3, 0.5, 10.0, 2.0
        u = np.array([500.0, 480.0, 520.0])
        q0, qs = tetrahedral_geometry(u, np.array([0.1, -0.7, 0.7]), d0, lmin)
        geom = build_geometry_matrix(u, q0, qs, mode="deterministic",
                                     noise_std=rho, unit_gain=a0,
                                     reflect=beta, power=p0, error_coeff=coeff)
        variance = (rho * d0 * lmin / (a0 * beta * math.sqrt(p0))) ** 2
        chain = linearized_rms_error(geom, variance)
        closed = min_error_closed_form(d0, lmin, rho, a0, beta, p0, coeff)
        assert chain == pytest.approx(closed, rel=1e-9)

    def test_lower_bounds_linearized_error(self):
        rng = np.random.default_rng(23)
        rho, a0, beta, p0, coeff = 1e-6, 1e-3, 0.5, 10.0, 2.0
        lmin = 20.0
        for _ in range(20):
            u = rng.uniform(200, 800, 3)
            d0 = rng.uniform(100, 500)
            dk = rng.uniform(lmin, 400.0)
            rot = _random_rotation(rng)
            q0, qs = tetrahedral_geometry(u, rng.standard_normal(3), d0, dk,
                                          rotation=rot)
            geom = build_geometry_matrix(u, q0, qs, mode="deterministic",
                                         noise_std=rho, unit_gain=a0,
                                         reflect=beta, power=p0,
                                         error_coeff=coeff)
            variance = (rho * d0 * dk / (a0 * beta * math.sqrt(p0))) ** 2
            full = linearized_rms_error(geom, variance)
            bound = min_error_closed_form(d0, lmin, rho, a0, beta, p0, coeff)
            assert full >= bound * (1.0 - 1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            min_error_closed_form(0.0, 20.0, 1e-6, 1e-3, 0.5, 10.0, 1.0)


class TestMonteCarlo:
    def test_zero_variance_gives_zero(self):
        rng = np.random.default_rng(0)
        w = np.linalg.qr(rng.standard_normal((4, 3)))[0]
        assert monte_carlo_rms_error(w, 0.0, 10_000, rng) == 0.0

    def test_matches_trace_formula_on_generic_geometry(self):
        rng = np.random.default_rng(5)
        u = np.array([400.0, 300.0, 600.0])
        q0, qs = tetrahedral_geometry(u, np.array([0.5, 0.5, -0.7]),
                                      280.0, 220.0,
                                      rotation=_random_rotation(rng))
        geom = build_geometry_matrix(u, q0, qs)
        closed = linearized_rms_error(geom, 2.0)
        mc = monte_carlo_rms_error(geom, 2.0, 100_000, rng)
        assert mc == pytest.approx(closed, rel=0.02)

    def test_equal_distance_geometry_within_one_percent(self):
        rng = np.random.default_rng(6)
        u = np.array([100.0, 100.0, 400.0])
        q0, qs = tetrahedral_geometry(u, np.array([0.9, 0.1, 0.3]), 260.0, 150.0)
        geom = build_geometry_matrix(u, q0, qs)
        closed = linearized_rms_error(geom, 1.0)
        mc = monte_carlo_rms_error(geom, 1.0, 100_000, rng)
        assert mc == pytest.approx(closed, rel=0.01)

    def test_gap_shrinks_with_samples(self):
        rng = np.random.default_rng(14)
        u = np.array([250.0, 250.0, 450.0])
        q0, qs = tetrahedral_geometry(u, np.array([0.2, 0.8, 0.4]), 300.0, 200.0)
        geom = build_geometry_matrix(u, q0, qs)
        closed = linearized_rms_error(geom, 1.0)
        gaps = []
        for n in (1_000, 10_000, 100_000):
            # average the gap over repeats so the trend is not one lucky draw
            rels = [abs(monte_carlo_rms_error(geom, 1.0, n, rng) - closed) / closed
                    for _ in range(5)]
            gaps.append(np.mean(rels))
        assert gaps[2] < gaps[0]

    def test_sample_floor_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            monte_carlo_rms_error(np.eye(4, 3), 1.0, 10, rng)


def test_isotropic_directions_form_tight_frame():
    dirs = isotropic_directions()
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-14)
    np.testing.assert_allclose(dirs.T @ dirs, (4.0 / 3.0) * np.eye(3), atol=1e-14)
