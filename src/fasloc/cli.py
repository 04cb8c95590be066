"""Experiment orchestration: seeded runs, metric persistence, evaluation
of saved policies, axis sweeps, and the analytic self-checks.

Verbs:
  run        train (or roll out) one scheme, write metrics + checkpoint
  evaluate   greedy rollouts from a saved checkpoint
  sweep      evaluate across target_speed / uncertainty / port_count values
  gradcheck  finite-difference verification of the full training gradient
  oracle     closed-form error theory vs Monte Carlo cross-checks

Metric files are deterministic for a fixed config and seed; wall-clock
timing goes to the separate run_info.json, which is the one output not
reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import analysis, marl, nn
from .config import (ConfigError, ExperimentConfig, apply_overrides,
                     from_ini, load_config, to_ini)

log = logging.getLogger("fasloc")

SWEEP_AXES = ("target_speed", "uncertainty", "port_count")


def _setup_logging():
    level = os.environ.get("FASLOC_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_summary_csv(path, rows, header):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(config_path, overrides, out_dir, seed=None, scheme=None) -> int:
    """Execute one training/baseline run and persist its outputs."""
    try:
        cfg = load_config(config_path, overrides)
        if seed is not None:
            cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=seed))
        if scheme is not None:
            cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, scheme=scheme))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    resolved = to_ini(cfg)
    with open(os.path.join(out_dir, "config_resolved.ini"), "w",
              encoding="utf-8") as fh:
        fh.write(resolved)

    started = time.time()
    trainer = marl.MarlTrainer(cfg)
    training_log = trainer.run()
    elapsed = time.time() - started

    with open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(training_log.to_jsonl())

    tail = min(20, len(training_log.records))
    final_err = training_log.final_mean_error(tail)
    rows = [[training_log.scheme, cfg.run.seed, cfg.run.epochs,
             repr(final_err),
             repr(float(np.mean([r.mean_reward for r in training_log.records[-tail:]]))),
             int(np.sum([r.violations for r in training_log.records]))]]
    _write_summary_csv(os.path.join(out_dir, "summary.csv"), rows,
                       ["scheme", "seed", "epochs", "final_mean_error",
                        "final_mean_reward", "total_violations"])

    nn.save_params(os.path.join(out_dir, "checkpoint.npz"),
                   trainer.checkpoint_arrays(),
                   meta={"scheme": training_log.scheme, "seed": cfg.run.seed,
                         "config_ini": resolved})

    with open(os.path.join(out_dir, "run_info.json"), "w", encoding="utf-8") as fh:
        json.dump({"wall_time_s": elapsed, "numpy": np.__version__}, fh)

    log.info("run complete: scheme=%s seed=%d final20 error=%.3f m (%.1f s)",
             training_log.scheme, cfg.run.seed, final_err, elapsed)
    print(f"{training_log.scheme} seed={cfg.run.seed} "
          f"final20_mean_error={final_err:.4f}")
    return 0


def load_trainer_from_checkpoint(path, overrides=None) -> tuple[ExperimentConfig, marl.MarlTrainer]:
    arrays, meta = nn.load_params(path)
    cfg = apply_overrides(from_ini(meta["config_ini"]), overrides or [])
    trainer = marl.MarlTrainer(cfg, scheme=meta["scheme"])
    trainer.load_checkpoint_arrays(arrays)
    return cfg, trainer


def evaluate_policy(checkpoint, episodes, seed, overrides=None,
                    port_menu=None) -> dict:
    """Greedy rollouts from a checkpoint; summary statistics only."""
    if episodes < 1:
        raise ValueError("episodes must be positive")
    cfg, trainer = load_trainer_from_checkpoint(checkpoint, overrides)
    stats = marl.evaluate_rollouts(cfg, trainer, episodes, seed,
                                   port_menu=port_menu)
    stats["scheme"] = trainer.scheme
    return stats


def port_menu_for(total_ports: int, count: int):
    """count evenly strided selectable ports out of the full grid; menus for
    power-of-two counts nest inside one another."""
    if count < 1 or count > total_ports:
        raise ValueError(f"port count {count} outside 1..{total_ports}")
    if total_ports % count:
        raise ValueError(f"{count} does not divide the {total_ports}-port grid")
    stride = total_ports // count
    return list(range(1, total_ports + 1, stride))


def sweep(config_path, overrides, axis, values, out_dir, seeds=None,
          eval_episodes=None) -> list[dict]:
    """Train per seed, then one evaluation row per axis value.

    target_speed and uncertainty change the evaluation environment;
    port_count restricts the selectable-port menu of the trained policy.
    Per-cell failures are recorded in the table and the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    cfg = load_config(config_path, overrides)
    seeds = seeds or [cfg.run.seed]
    eval_episodes = eval_episodes or cfg.run.eval_episodes
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    for seed in seeds:
        run_cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seed=seed))
        trainer = marl.MarlTrainer(run_cfg)
        trainer.run()
        for value in values:
            cell = {"axis": axis, "value": value, "seed": seed}
            try:
                eval_cfg = run_cfg
                menu = None
                if axis == "target_speed":
                    eval_cfg = dataclasses.replace(
                        run_cfg, target=dataclasses.replace(run_cfg.target,
                                                            speed=float(value)))
                elif axis == "uncertainty":
                    eval_cfg = dataclasses.replace(
                        run_cfg, target=dataclasses.replace(
                            run_cfg.target, uncertainty=float(value)))
                else:
                    menu = port_menu_for(run_cfg.channel.n_ports, int(value))
                stats = marl.evaluate_rollouts(eval_cfg, trainer, eval_episodes,
                                               seed=10_000 + seed,
                                               port_menu=menu)
                cell.update(stats)
            except Exception as exc:  # keep sweeping, record the failure
                cell["error"] = f"{type(exc).__name__}: {exc}"
                log.warning("sweep cell failed (%s=%s seed=%d): %s",
                            axis, value, seed, exc)
            rows.append(cell)

    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
    csv_rows = [[r["axis"], r["value"], r["seed"],
                 r.get("mean_error", ""), r.get("std_error", ""),
                 r.get("stale_rate", ""), r.get("violation_rate", ""),
                 r.get("error", "")] for r in rows]
    _write_summary_csv(os.path.join(out_dir, "sweep.csv"), csv_rows,
                       ["axis", "value", "seed", "mean_error", "std_error",
                        "stale_rate", "violation_rate", "failure"])
    return rows


def gradcheck(threshold: float = 1e-4) -> int:
    cfg = marl.micro_config()
    worst = marl.micro_gradcheck(cfg)
    status = "PASS" if worst < threshold else "FAIL"
    print(f"[{status}] end-to-end gradient check: max rel err = {worst:.3e} "
          f"(threshold {threshold:.0e})")
    return 0 if worst < threshold else 1


def oracle_checks(seed: int = 0) -> int:
    """Run the analytic error-theory cross-checks and print one line each."""
    rng = np.random.default_rng(seed)
    failures = 0

    for trial in range(5):
        u = rng.uniform(200, 800, 3)
        d0 = rng.uniform(100, 500)
        dk = rng.uniform(50, 400)
        rot = _random_rotation(rng)
        q0, qs = analysis.tetrahedral_geometry(u, rng.standard_normal(3), d0,
                                               dk, rotation=rot)
        geom = analysis.build_geometry_matrix(u, q0, qs, mode="zero")
        var = rng.uniform(0.5, 4.0)
        closed = analysis.linearized_rms_error(geom, var)
        mc = analysis.monte_carlo_rms_error(geom, var, 100_000, rng)
        rel = abs(mc - closed) / closed
        ok = rel < 0.02
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] linearized vs Monte Carlo "
              f"(trial {trial}): {closed:.4f} vs {mc:.4f} (rel {rel:.4f})")

    noise_std, unit_gain, reflect, power, coeff = 1e-6, 1e-3, 0.5, 10.0, 2.0
    d0, dist_min = 300.0, 20.0
    u = np.array([500.0, 500.0, 500.0])
    q0, qs = analysis.tetrahedral_geometry(u, np.array([0.3, -0.5, 0.8]),
                                           d0, dist_min)
    geom = analysis.build_geometry_matrix(
        u, q0, qs, mode="deterministic", noise_std=noise_std,
        unit_gain=unit_gain, reflect=reflect, power=power, error_coeff=coeff)
    var = (noise_std * d0 * dist_min / (unit_gain * reflect * math.sqrt(power))) ** 2
    chain = analysis.linearized_rms_error(geom, var)
    closed = analysis.min_error_closed_form(d0, dist_min, noise_std, unit_gain,
                                            reflect, power, coeff)
    rel = abs(chain - closed) / closed
    ok = rel < 1e-9
    failures += not ok
    print(f"[{'PASS' if ok else 'FAIL'}] closed-form minimum chain: "
          f"{chain:.6e} vs {closed:.6e} (rel {rel:.2e})")
    return 1 if failures else 0


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def _parse_values(text: str):
    return [v.strip() for v in text.split(",") if v.strip()]


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="fasloc",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="train or roll out one scheme")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--scheme", default=None)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--override", action="append", default=[],
                       metavar="section.key=value")

    p_eval = sub.add_parser("evaluate", help="greedy rollouts from a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, default=30)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--override", action="append", default=[])

    p_sweep = sub.add_parser("sweep", help="axis sweep over a trained policy")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma separated, e.g. 5,10,15")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma separated seeds (default: config seed)")
    p_sweep.add_argument("--episodes", type=int, default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--override", action="append", default=[])

    sub.add_parser("gradcheck", help="finite-difference training-gradient check")

    p_oracle = sub.add_parser("oracle", help="error-theory cross-checks")
    p_oracle.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return run_experiment(args.config, args.override, args.out,
                                  seed=args.seed, scheme=args.scheme)
        if args.verb == "evaluate":
            stats = evaluate_policy(args.checkpoint, args.episodes, args.seed,
                                    overrides=args.override)
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        if args.verb == "sweep":
            seeds = [int(s) for s in _parse_values(args.seeds)] if args.seeds else None
            values = _parse_values(args.values)
            sweep(args.config, args.override, args.axis, values, args.out,
                  seeds=seeds, eval_episodes=args.episodes)
            return 0
        if args.verb == "gradcheck":
            return gradcheck()
        if args.verb == "oracle":
            return oracle_checks(args.seed)
    except (ConfigError, ValueError, nn.ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
