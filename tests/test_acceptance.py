"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS line when it holds.

1. Linearized-error oracle vs Monte Carlo on random regular geometries.
2. Closed-form minimum equals the full trace-formula chain at the range
   floor, and decreases in transmit power.
3. End-to-end finite-difference check of the training gradient.
4. Zero-noise localizer exactness on random feasible geometries.
5. Single-path port invariance of the fluid-antenna gain.
6. Training trend: the full scheme beats the random policy by >= 20% and
   the random-port ablation on every seed.
7. Sweep trends: error non-decreasing in target speed, non-increasing in
   selectable port count (seed-averaged).
8. Bitwise determinism of training logs for a fixed config and seed.
"""

import dataclasses
import math
import time

import numpy as np

from fasloc import marl
from fasloc.analysis import (build_geometry_matrix, linearized_rms_error,
                             min_error_closed_form, monte_carlo_rms_error,
                             tetrahedral_geometry)
from fasloc.cli import port_menu_for
from fasloc.config import default_config
from fasloc.marl import micro_config, micro_gradcheck
from fasloc.positioning import estimate_position, true_range_sum
from fasloc.channel import ChannelDraw, fas_gain

from conftest import ACCEPTANCE_SEEDS


def _report(name: str, detail: str):
    print(f"\n[PASS] {name}: {detail}")


def _random_rotation(rng):
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def test_criterion_1_monte_carlo_matches_trace_formula():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    trials = 20
    for _ in range(trials):
        u = rng.uniform(100, 900, 3)
        d0 = rng.uniform(100, 600)
        dk = rng.uniform(60, 500)
        q0, qs = tetrahedral_geometry(u, rng.standard_normal(3), d0, dk,
                                      rotation=_random_rotation(rng))
        geom = build_geometry_matrix(u, q0, qs, mode="zero")
        variance = rng.uniform(0.25, 9.0)
        closed = linearized_rms_error(geom, variance)
        mc = monte_carlo_rms_error(geom, variance, 100_000, rng)
        rel = abs(mc - closed) / closed
        worst = max(worst, rel)
        assert rel < 0.02
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report("criterion 1", f"{trials} geometries, worst rel dev "
            f"{worst:.4f} < 0.02 in {elapsed:.1f}s")


def test_criterion_2_closed_form_minimum_chain():
    started = time.time()
    noise_std, unit_gain, reflect, coeff = 1e-6, 1e-3, 0.5, 2.0
    d0, dist_min = 320.0, 20.0
    u = np.array([450.0, 620.0, 530.0])
    q0, qs = tetrahedral_geometry(u, np.array([0.4, -0.2, 0.6]), d0, dist_min)

    chain_errors = []
    for power in (1.0, 5.0, 10.0, 50.0):
        geom = build_geometry_matrix(u, q0, qs, mode="deterministic",
                                     noise_std=noise_std, unit_gain=unit_gain,
                                     reflect=reflect, power=power,
                                     error_coeff=coeff)
        variance = (noise_std * d0 * dist_min
                    / (unit_gain * reflect * math.sqrt(power))) ** 2
        chain = linearized_rms_error(geom, variance)
        closed = min_error_closed_form(d0, dist_min, noise_std, unit_gain,
                                       reflect, power, coeff)
        assert abs(chain - closed) / closed < 1e-9
        chain_errors.append(closed)
    assert all(a > b for a, b in zip(chain_errors, chain_errors[1:])), \
        "minimum error must strictly decrease with transmit power"
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report("criterion 2", f"chain equality < 1e-9 rel, minimum strictly "
            f"decreasing over powers 1/5/10/50 W in {elapsed:.2f}s")


def test_criterion_3_training_gradient_end_to_end():
    started = time.time()
    worst = micro_gradcheck(micro_config())
    elapsed = time.time() - started
    assert worst < 1e-4
    assert elapsed < 30.0
    _report("criterion 3", f"max rel gradient error {worst:.2e} < 1e-4 "
            f"in {elapsed:.1f}s")


def test_criterion_4_zero_noise_localizer_exactness():
    started = time.time()
    rng = np.random.default_rng(404)
    trials = 0
    worst = 0.0
    while trials < 100:
        u = rng.uniform(150, 850, 3)
        q0 = u + rng.uniform(-400, 400, 3)
        qs = u[None, :] + rng.uniform(-400, 400, (4, 3))
        if (np.linalg.norm(q0 - u) < 60
                or np.min(np.linalg.norm(qs - u, axis=1)) < 60):
            continue
        geom = build_geometry_matrix(u, q0, qs, mode="zero")
        if np.linalg.svd(geom, compute_uv=False)[-1] < 0.3:
            continue
        trials += 1
        sums = [true_range_sum(q0, qk, u) for qk in qs]
        est = estimate_position(sums, q0, qs, prior=qs.mean(axis=0))
        err = float(np.linalg.norm(est.position - u))
        worst = max(worst, err)
        assert err < 1e-6
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report("criterion 4", f"100 geometries, worst recovery error "
            f"{worst:.2e} m < 1e-6 in {elapsed:.1f}s")


def test_criterion_5_single_path_port_invariance():
    started = time.time()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        draw = ChannelDraw(
            fading=(rng.standard_normal(1) + 1j * rng.standard_normal(1))
            / math.sqrt(2),
            cos_aod=np.cos(rng.uniform(0, math.pi, 1)), shadow_db=0.0)
        mags = np.abs(fas_gain(draw, np.arange(1, 33), 32))
        spread = (mags.max() - mags.min()) / mags.max()
        worst = max(worst, spread)
        assert spread < 1e-12
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report("criterion 5", f"32-port magnitude spread {worst:.2e} < 1e-12 "
            f"over 200 single-path draws in {elapsed:.2f}s")


def test_criterion_6_training_trend(trained_runs):
    ar = {s: trained_runs["ar_marl"][s][2].final_mean_error(20)
          for s in ACCEPTANCE_SEEDS}
    nofas = {s: trained_runs["no_fas"][s][2].final_mean_error(20)
             for s in ACCEPTANCE_SEEDS}
    rnd = {s: trained_runs["random"][s][2].final_mean_error(20)
           for s in ACCEPTANCE_SEEDS}
    ar_mean = float(np.mean(list(ar.values())))
    rnd_mean = float(np.mean(list(rnd.values())))
    assert ar_mean <= 0.8 * rnd_mean, (
        f"trained error {ar_mean:.2f} not >=20% below random {rnd_mean:.2f}")
    for s in ACCEPTANCE_SEEDS:
        assert ar[s] < nofas[s], (
            f"seed {s}: trained {ar[s]:.2f} not below random-port "
            f"ablation {nofas[s]:.2f}")
    _report("criterion 6", "final-20-epoch error "
            f"{ar_mean:.2f} m vs random {rnd_mean:.2f} m "
            f"({100 * (1 - ar_mean / rnd_mean):.0f}% lower); per-seed vs "
            "random ports: "
            + ", ".join(f"{ar[s]:.2f}<{nofas[s]:.2f}" for s in ACCEPTANCE_SEEDS))


def test_criterion_7_sweep_trends(trained_runs):
    started = time.time()
    speeds = (5.0, 10.0, 15.0)
    speed_means = []
    for speed in speeds:
        errs = []
        for seed in ACCEPTANCE_SEEDS:
            cfg, trainer, _ = trained_runs["ar_marl"][seed]
            eval_cfg = dataclasses.replace(
                cfg, target=dataclasses.replace(cfg.target, speed=speed))
            stats = marl.evaluate_rollouts(eval_cfg, trainer, episodes=40,
                                           seed=7000 + seed)
            errs.append(stats["mean_error"])
        speed_means.append(float(np.mean(errs)))
    assert all(a <= b + 1e-9 for a, b in zip(speed_means, speed_means[1:])), \
        f"error must not decrease with target speed: {speed_means}"

    counts = (8, 16, 32)
    port_means = []
    for count in counts:
        menu = port_menu_for(32, count)
        errs = []
        for seed in ACCEPTANCE_SEEDS:
            cfg, trainer, _ = trained_runs["ar_marl"][seed]
            stats = marl.evaluate_rollouts(cfg, trainer, episodes=40,
                                           seed=8000 + seed, port_menu=menu)
            errs.append(stats["mean_error"])
        port_means.append(float(np.mean(errs)))
    assert all(a >= b - 1e-9 for a, b in zip(port_means, port_means[1:])), \
        f"error must not increase with port count: {port_means}"
    elapsed = time.time() - started
    assert elapsed < 20 * 60
    _report("criterion 7",
            f"speed {speeds} -> {[f'{e:.2f}' for e in speed_means]} m "
            f"(non-decreasing); ports {counts} -> "
            f"{[f'{e:.2f}' for e in port_means]} m (non-increasing) "
            f"in {elapsed:.0f}s")


def test_criterion_8_bitwise_determinism():
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg,
        world=dataclasses.replace(cfg.world, slots_per_episode=10),
        run=dataclasses.replace(cfg.run, epochs=6, episodes_per_epoch=1,
                                seed=11))
    first = marl.MarlTrainer(cfg).run().to_jsonl().encode()
    second = marl.MarlTrainer(cfg).run().to_jsonl().encode()
    assert first == second
    _report("criterion 8", f"two runs produced identical "
            f"{len(first)}-byte training logs")
