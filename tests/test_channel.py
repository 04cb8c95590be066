import cmath
import math

import numpy as np
import pytest

from fasloc import channel
from fasloc.channel import (ChannelDraw, ChannelError, bistatic_snr,
                            draw_channel, fas_gain, path_loss_db,
                            path_power_profile, uplink_latencies,
                            uplink_latency, uplink_sinr)

N_PORTS = 32


class TestBistaticSnr:
    def test_zero_reflection_kills_snr(self, monkeypatch):
        monkeypatch.setattr(channel, "REFLECT_COEFF", 1e-30)
        snr = bistatic_snr([0, 0, 0], [100, 0, 0], [50, 0, 0])
        assert snr < 1e-40

    def test_inverse_square_in_first_leg(self):
        q0 = np.array([0.0, 0.0, 0.0])
        qk = np.array([500.0, 0.0, 0.0])
        near = bistatic_snr(q0, qk, [100.0, 0.0, 0.0])
        far = bistatic_snr(q0, qk, [200.0, 0.0, 0.0])
        # doubling d0 while dk shrinks: isolate d0 by fixing dk via geometry
        u1 = np.array([0.0, 100.0, 0.0])
        u2 = np.array([0.0, 200.0, 0.0])
        qk_sym = np.array([0.0, 0.0, 0.0])  # unused
        s1 = bistatic_snr(q0, u1 + np.array([0.0, 0.0, 300.0]), u1)
        s2 = bistatic_snr(q0, u2 + np.array([0.0, 0.0, 300.0]), u2)
        assert s1 / s2 == pytest.approx(4.0, rel=1e-12)
        assert near > far

    def test_value_against_independent_arithmetic(self, monkeypatch):
        # p0=10, a0=1e-3, beta=0.5, noise=1e-12, d0=dk=500
        for name, value in (("TX_POWER_ACTIVE", 10.0), ("UNIT_PATH_GAIN", 1e-3),
                            ("REFLECT_COEFF", 0.5), ("NOISE_POWER", 1e-12)):
            monkeypatch.setattr(channel, name, value)
        snr = bistatic_snr([0, 0, 0], [0, 0, 1000], [0, 0, 500])
        # independent scalar path: 10 * 1e-6 * 0.25 / (1e-12 * 500^2 * 500^2)
        expected = (10.0 * (1e-3) ** 2 * 0.5 ** 2) / (1e-12 * 500.0 ** 2 * 500.0 ** 2)
        assert expected == pytest.approx(4.0e-5, rel=1e-12)
        assert snr == pytest.approx(expected, rel=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(ChannelError):
            bistatic_snr([1, 2, 3], [9, 9, 9], [1, 2, 3])

    def test_monotone_decreasing_in_both_legs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q0 = rng.uniform(0, 100, 3)
            u = q0 + rng.uniform(50, 100, 3)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            qk_near = u + 100.0 * direction
            qk_far = u + 150.0 * direction
            assert (bistatic_snr(q0, qk_near, u)
                    > bistatic_snr(q0, qk_far, u))


class TestPathLoss:
    def test_reference_distance_is_free_space_term(self, monkeypatch):
        monkeypatch.setattr(channel, "PATH_LOSS_EXP", 2.0)
        expected = 20.0 * math.log10(2e9 * 4.0 * math.pi / 3.0e8)
        assert path_loss_db(1.0) == pytest.approx(expected, rel=1e-12)

    def test_decade_step_adds_ten_mu(self):
        base = path_loss_db(10.0)
        assert path_loss_db(100.0) - base == pytest.approx(
            10.0 * channel.PATH_LOSS_EXP, rel=1e-12)

    def test_value_against_hand_computation(self, monkeypatch):
        # f=2 GHz, r0=1, r=100, mu=2.7: 20log10(83.7758...) + 27*2
        monkeypatch.setattr(channel, "PATH_LOSS_EXP", 2.7)
        assert path_loss_db(100.0) == pytest.approx(92.46236, abs=1e-4)

    def test_below_reference_rejected(self):
        with pytest.raises(ChannelError):
            path_loss_db(0.5)

    def test_shadow_term_is_additive(self):
        assert (path_loss_db(200.0, shadow_db=3.5)
                - path_loss_db(200.0)) == pytest.approx(3.5)


def _fixed_draw(n_paths, rng=None, aod=None, fading=None):
    rng = rng or np.random.default_rng(5)
    if aod is None:
        aod = rng.uniform(0, math.pi, n_paths)
    if fading is None:
        fading = (rng.standard_normal(n_paths)
                  + 1j * rng.standard_normal(n_paths)) / math.sqrt(2)
    return ChannelDraw(fading=np.asarray(fading), cos_aod=np.cos(aod),
                       shadow_db=0.0)


class TestFasGain:
    def test_single_path_magnitude_is_port_invariant(self):
        draw = _fixed_draw(1)
        mags = np.abs([fas_gain(draw, n, 32) for n in range(1, 33)])
        spread = mags.max() - mags.min()
        assert spread < 1e-12 * mags.max()

    def test_global_phase_leaves_magnitude_unchanged(self):
        draw = _fixed_draw(5)
        rotated = ChannelDraw(fading=draw.fading * cmath.exp(0.7j),
                              cos_aod=draw.cos_aod, shadow_db=0.0)
        for port in (1, 7, 32):
            assert abs(fas_gain(rotated, port, N_PORTS)) == pytest.approx(
                abs(fas_gain(draw, port, N_PORTS)), rel=1e-12)

    def test_best_port_matches_independent_exhaustive_search(self, monkeypatch):
        monkeypatch.setattr(channel, "FAS_SIZE", 5.0)
        aod = np.random.default_rng(5).uniform(0, math.pi, 5)
        draw = _fixed_draw(5, aod=aod)
        gains = fas_gain(draw, np.arange(1, 33), 32)
        best = int(np.argmax(np.abs(gains))) + 1

        # brute force straight from the per-port sum, written independently
        best_brute, best_mag = None, -1.0
        for n in range(1, 33):
            total = 0.0 + 0.0j
            for eps, phi in zip(draw.fading, aod):
                total += eps * cmath.exp(-1j * 2.0 * math.pi * 5.0 / 31.0
                                         * n * math.cos(phi))
            if abs(total) > best_mag:
                best_brute, best_mag = n, abs(total)
        assert best == best_brute
        assert abs(gains[best - 1]) == pytest.approx(best_mag, rel=1e-12)

    def test_amplitude_conventions(self):
        # a dB loss is a power loss: the amplitude scales by 10^(-loss/20)
        draw = _fixed_draw(3)
        for loss in (0.0, 6.0, 60.0, 120.0):
            assert abs(fas_gain(draw, 4, N_PORTS, loss)) == pytest.approx(
                abs(fas_gain(draw, 4, N_PORTS)) * 10 ** (-loss / 20), rel=1e-12)

    def test_port_out_of_range(self):
        draw = _fixed_draw(2)
        with pytest.raises(ChannelError):
            fas_gain(draw, 0, 8)
        with pytest.raises(ChannelError):
            fas_gain(draw, 9, 8)

    def test_more_ports_give_no_worse_best_gain(self):
        rng = np.random.default_rng(11)
        best8, best32 = [], []
        for _ in range(2000):
            draw = draw_channel(rng, np.cos(rng.uniform(0.0, math.pi, 5)))
            best8.append(np.abs(fas_gain(draw, np.arange(1, 9), 8)).max() ** 2)
            best32.append(np.abs(fas_gain(draw, np.arange(1, 33), 32)).max() ** 2)
        assert np.mean(best32) >= np.mean(best8) * 0.98


class TestDrawChannel:
    def test_unit_power_fading(self, monkeypatch):
        rng = np.random.default_rng(1)
        monkeypatch.setattr(channel, "RICIAN_K", 10.0)
        draws = [draw_channel(rng, np.cos(rng.uniform(0.0, math.pi, 4)))
                 for _ in range(4000)]
        power = np.mean([np.mean(np.abs(d.fading) ** 2) for d in draws])
        assert power == pytest.approx(1.0, rel=0.05)

    def test_aod_reuse(self):
        rng = np.random.default_rng(2)
        aod = np.array([0.3, 1.1, 2.0])
        d = draw_channel(rng, np.cos(aod))
        np.testing.assert_array_equal(d.cos_aod, np.cos(aod))


class TestUplink:
    def test_single_active_uav_sees_noise_only(self, monkeypatch):
        monkeypatch.setattr(channel, "UPLINK_NOISE", 2e-12)
        monkeypatch.setattr(channel, "TX_POWER_PASSIVE", 5.0)
        gains = np.array([1e-6 + 0j, 0.0, 0.0, 0.0])
        sinr = uplink_sinr(gains)
        assert sinr[0] == pytest.approx(5.0 * 1e-12 / 2e-12, rel=1e-12)
        assert np.all(sinr[1:] == 0.0)

    def test_symmetric_gains_saturate_below_one_third(self, monkeypatch):
        monkeypatch.setattr(channel, "UPLINK_NOISE", 1e-12)
        gains = np.full(4, 3e-6 + 0j)
        sinr = uplink_sinr(gains)
        own = channel.TX_POWER_PASSIVE * 9e-12
        expected = own / (3 * own + 1e-12)
        np.testing.assert_allclose(sinr, expected, rtol=1e-12)
        assert np.all(sinr < 1.0 / 3.0)

    def test_against_bruteforce_recomputation(self, monkeypatch):
        rng = np.random.default_rng(9)
        gains = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        monkeypatch.setattr(channel, "UPLINK_NOISE", 0.5)
        sinr = uplink_sinr(gains)
        power = channel.TX_POWER_PASSIVE
        for k in range(4):
            interference = sum(power * abs(gains[j]) ** 2
                               for j in range(4) if j != k)
            expected = (power * abs(gains[k]) ** 2
                        / (interference + 0.5))
            assert sinr[k] == pytest.approx(expected, rel=1e-12)

    def test_interferer_growth_reduces_sinr(self, monkeypatch):
        monkeypatch.setattr(channel, "UPLINK_NOISE", 1e-12)
        base = np.array([2e-6, 1e-6, 1e-6, 1e-6], dtype=complex)
        bigger = base.copy()
        bigger[1] *= 2.0
        assert uplink_sinr(bigger)[0] < uplink_sinr(base)[0]


class TestLatency:
    def test_unit_sinr_gives_one_ms(self, monkeypatch):
        monkeypatch.setattr(channel, "DATA_BITS", 1000.0)
        monkeypatch.setattr(channel, "BANDWIDTH", 1e6)
        assert uplink_latency(1.0) == pytest.approx(1e-3, rel=1e-12)

    def test_zero_sinr_is_infinite(self):
        assert math.isinf(uplink_latency(0.0))

    def test_sinr_below_rounding_is_infinite(self):
        """1 + 1e-17 rounds to 1, so the rate is 0: no delivery, not a
        ZeroDivisionError."""
        assert uplink_latency(1e-17) == math.inf
        assert uplink_latencies(np.array([1e-17, 0.5]))[0] == math.inf

    def test_nan_sinr_gives_nan(self):
        assert math.isnan(uplink_latency(math.nan))

    def test_sinr_three_gives_half_ms(self, monkeypatch):
        monkeypatch.setattr(channel, "DATA_BITS", 1000.0)
        monkeypatch.setattr(channel, "BANDWIDTH", 1e6)
        assert uplink_latency(3.0) == pytest.approx(0.5e-3, rel=1e-12)

    def test_strictly_decreasing_in_sinr(self):
        values = [uplink_latency(s) for s in (0.01, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_sinr_rejected(self):
        with pytest.raises(ChannelError):
            uplink_latency(-0.1)


class TestUavAxis:
    """Each helper on a (4, ...) stack of passive UAVs gives the bits of
    its scalar calls row by row, errors included."""

    def test_bistatic_snr_rows(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            q0, u = rng.uniform(0, 1000, 3), rng.uniform(0, 1000, 3)
            qs = rng.uniform(0, 1000, (4, 3))
            got = bistatic_snr(q0, qs, u)
            ref = [bistatic_snr(q0, q, u) for q in qs]
            assert got.tobytes() == np.array(ref).tobytes()
        qs[2] = u
        with pytest.raises(ChannelError, match="coincides"):
            bistatic_snr(q0, qs, u)
        with pytest.raises(ChannelError, match="coincides"):
            bistatic_snr(u, qs[:2], u)

    # (n_paths, channel constants to patch); 2 paths are all dominant
    @pytest.mark.parametrize("params", [
        (5, {}), (5, {"RICIAN_K": 0.0}), (5, {"SHADOW_STD_DB": 0.0}),
        (2, {}), (1, {})])
    def test_draw_channel_rows(self, params, monkeypatch):
        """One (4, 2I+1) block of draws equals each row's draw, and each
        row's draw the per-path real parts, imaginary parts and shadowing
        drawn in turn."""
        n_paths, constants = params
        for name, value in constants.items():
            monkeypatch.setattr(channel, name, value)
        i, k = n_paths, channel.RICIAN_K
        aod = np.random.default_rng(21).uniform(0, math.pi, (4, i))
        rngs = [np.random.default_rng(22) for _ in range(3)]
        for _ in range(50):
            got = draw_channel(rngs[0], np.cos(aod))
            for row in range(4):
                ref = draw_channel(rngs[1], np.cos(aod[row]))
                scatter = (rngs[2].standard_normal(i)
                           + 1j * rngs[2].standard_normal(i)) / math.sqrt(2.0)
                fading = (math.sqrt(k / (k + 1.0))
                          + math.sqrt(1.0 / (k + 1.0)) * scatter)
                fading = fading * np.sqrt(i * path_power_profile(i))
                shadow = rngs[2].normal(0.0, channel.SHADOW_STD_DB)
                assert (got.fading[row].tobytes() == ref.fading.tobytes()
                        == fading.tobytes())
                assert got.shadow_db[row] == ref.shadow_db == shadow
            states = [r.bit_generator.state for r in rngs]
            assert states[0] == states[1] == states[2]

    def test_path_loss_rows(self):
        rng = np.random.default_rng(23)
        r = rng.uniform(1.0, 3000.0, (500, 4))
        shadow = rng.normal(0.0, 4.0, (500, 4))
        got = path_loss_db(r, shadow)
        for k in np.ndindex(r.shape):
            assert got[k] == path_loss_db(float(r[k]), float(shadow[k]))
        with pytest.raises(ChannelError):
            path_loss_db(np.array([10.0, 0.5, 10.0, 10.0]))

    def test_fas_gain_rows(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            draw = _fixed_draw(5, rng, aod=rng.uniform(0, math.pi, (4, 5)),
                               fading=rng.standard_normal((4, 5))
                               + 1j * rng.standard_normal((4, 5)))
            ports = rng.integers(1, N_PORTS + 1, 4)
            loss = rng.uniform(40.0, 120.0, 4)
            got = fas_gain(draw, ports, N_PORTS, loss)
            for k in range(4):
                row = ChannelDraw(fading=draw.fading[k], cos_aod=draw.cos_aod[k],
                                  shadow_db=0.0)
                ref = fas_gain(row, int(ports[k]), N_PORTS, float(loss[k]))
                assert got[k] == ref
        for bad in (0, N_PORTS + 1):
            with pytest.raises(ChannelError, match=f"port {bad} outside"):
                fas_gain(draw, np.array([1, bad, 2, 3]), N_PORTS, loss)

    def test_uplink_sinr_and_latency_rows(self):
        rng = np.random.default_rng(25)
        gains = 1e-6 * (rng.standard_normal((300, 4))
                        + 1j * rng.standard_normal((300, 4)))
        sinrs = uplink_sinr(gains)
        latencies = uplink_latencies(sinrs)
        for k in range(len(gains)):
            assert sinrs[k].tobytes() == uplink_sinr(gains[k]).tobytes()
            assert latencies[k].tobytes() == np.array(
                [uplink_latency(float(s)) for s in sinrs[k]]).tobytes()
        with pytest.raises(ChannelError):
            uplink_latencies(np.array([0.5, -0.1]))
