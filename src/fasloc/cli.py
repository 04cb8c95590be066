"""Experiment orchestration: seeded runs, metric persistence, evaluation
of saved policies, axis sweeps, and the gradient self-check.

Verbs:
  run        train (or roll out) one scheme, write metrics + checkpoint
  evaluate   greedy rollouts from a saved checkpoint
  sweep      evaluate across target_speed / uncertainty / port_count values
  gradcheck  finite-difference verification of the full training gradient

Metric files are deterministic for a fixed config and seed; timing goes
to the separate run_info.json, which is the one output not reproduced
byte-for-byte: the wall time of the run and the process time training
spent playing episodes (rollout_s), inside them in the environment's
step (env_s) and inside that in the position solver (solver_s), both
timed by the environment itself, and in the local Q-net's step
(net_step_s), learning from them (learn_s), and inside that on the TD
targets (target_s) and on the loss's backward pass (backward_s).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import marl, nn
from .config import (ConfigError, ExperimentConfig, apply_overrides,
                     from_ini, load_config, to_ini)

SWEEP_AXES = ("target_speed", "uncertainty", "port_count")


def _write_summary_csv(path, rows, header):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_metrics(out_dir, training_log: marl.TrainingLog):
    with open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(training_log.to_jsonl())


def _strict_json(value):
    """value with every non-finite number as the string "nan", "inf" or
    "-inf", which strict JSON can hold."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    return value


def run_experiment(config_path, overrides, out_dir) -> int:
    """Execute one training/baseline run and persist its outputs.

    Returns 0, or 3 if training diverged: the completed epochs then still
    go to metrics.jsonl, and the divergence diagnostics to diverged.json.
    A config that does not load raises ConfigError before any output.
    """
    cfg = load_config(config_path, overrides)
    os.makedirs(out_dir, exist_ok=True)
    resolved = to_ini(cfg)
    with open(os.path.join(out_dir, "config_resolved.ini"), "w",
              encoding="utf-8") as fh:
        fh.write(resolved)

    started = time.time()
    trainer = marl.MarlTrainer(cfg)
    try:
        training_log = trainer.run()
    except marl.TrainingDiverged as exc:
        _write_metrics(out_dir, exc.log)
        with open(os.path.join(out_dir, "diverged.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"error": str(exc),
                       "completed_epochs": len(exc.log.records),
                       "diagnostics": _strict_json(exc.diagnostics)},
                      fh, sort_keys=True, allow_nan=False)
        print(f"error: training diverged after {len(exc.log.records)} "
              f"epochs: {exc} (see diverged.json)", file=sys.stderr)
        return 3
    elapsed = time.time() - started
    _write_metrics(out_dir, training_log)

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
        json.dump({"wall_time_s": elapsed, "rollout_s": trainer.rollout_s,
                   "env_s": trainer.env_s, "solver_s": trainer.solver_s,
                   "net_step_s": trainer.net_step_s, "learn_s": trainer.learn_s,
                   "target_s": trainer.target_s,
                   "backward_s": trainer.backward_s, "numpy": np.__version__}, fh)

    print(f"{training_log.scheme} seed={cfg.run.seed} "
          f"final20_mean_error={final_err:.4f}")
    return 0


def load_trainer_from_checkpoint(path, overrides=None) -> tuple[ExperimentConfig, marl.MarlTrainer]:
    arrays, meta = nn.load_params(path)
    if not isinstance(meta.get("config_ini"), str):
        raise nn.ShapeError(f"{path} records no run config")
    try:
        stored = from_ini(meta["config_ini"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: the run config stored in this checkpoint "
                          f"does not load: {exc}") from None
    cfg = apply_overrides(stored, overrides or [])
    trainer = marl.MarlTrainer(cfg)
    try:
        trainer.load_checkpoint_arrays(arrays)
    except ValueError as exc:
        raise nn.ShapeError(f"{path} does not fit the configured nets: {exc}") from None
    return cfg, trainer


def evaluate_policy(checkpoint, seed, overrides=None) -> dict:
    """Greedy rollouts from a checkpoint, run.eval_episodes of them (the
    checkpoint config's, after overrides); summary statistics only."""
    cfg, trainer = load_trainer_from_checkpoint(checkpoint, overrides)
    stats = marl.evaluate_rollouts(cfg, trainer, cfg.run.eval_episodes, seed)
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


def sweep(config_path, overrides, axis, values, out_dir, seeds=None) -> list[dict]:
    """Train per seed, then one evaluation row per axis value.

    target_speed and uncertainty override target.speed and
    target.uncertainty of the evaluation environment; port_count restricts
    the selectable-port menu of the trained policy.  Per-cell failures,
    every cell of a seed whose training diverged among them, are recorded
    in the table and the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    cfg = load_config(config_path, overrides)
    seeds = seeds or [cfg.run.seed]
    run_cfgs = [apply_overrides(cfg, [f"run.seed={seed}"]) for seed in seeds]
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    for seed, run_cfg in zip(seeds, run_cfgs):
        trainer = marl.MarlTrainer(run_cfg)
        try:
            trainer.run()
            diverged = None
        except marl.TrainingDiverged as exc:
            diverged = exc
        for value in values:
            cell = {"axis": axis, "value": value, "seed": seed}
            try:
                if diverged is not None:  # fails every cell of the seed
                    raise diverged
                eval_cfg, menu = run_cfg, None
                if axis == "port_count":
                    menu = port_menu_for(run_cfg.channel.n_ports, int(value))
                else:
                    key = "speed" if axis == "target_speed" else "uncertainty"
                    eval_cfg = apply_overrides(run_cfg, [f"target.{key}={value}"])
                stats = marl.evaluate_rollouts(eval_cfg, trainer,
                                               cfg.run.eval_episodes,
                                               seed=10_000 + seed,
                                               port_menu=menu)
                cell.update(stats)
            except Exception as exc:  # keep sweeping, record the failure
                cell["error"] = f"{type(exc).__name__}: {exc}"
                print(f"sweep cell failed ({axis}={value} seed={seed}): "
                      f"{cell['error']}", file=sys.stderr)
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


GRADCHECK_THRESHOLD = 1e-4


def gradcheck() -> int:
    worst = marl.micro_gradcheck(marl.micro_config())
    ok = worst < GRADCHECK_THRESHOLD
    print(f"[{'PASS' if ok else 'FAIL'}] end-to-end gradient check: max rel "
          f"err = {worst:.3e} (threshold {GRADCHECK_THRESHOLD:.0e})")
    return 0 if ok else 1


def _parse_values(text: str, flag: str, kind=str):
    if not (values := [v.strip() for v in text.split(",") if v.strip()]):
        raise ValueError(f"{flag} lists no value: {text!r}")
    try:
        return [kind(v) for v in values]
    except ValueError as exc:  # int's message quotes the bad value
        raise ValueError(f"{flag}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fasloc",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="train or roll out one scheme")
    p_run.add_argument("--config", default=None)
    # --seed, --scheme and --episodes stand for the run.* key their dest
    # names; main applies them after every --override
    p_run.add_argument("--seed", dest="run.seed", metavar="SEED", type=int)
    p_run.add_argument("--scheme", dest="run.scheme", metavar="SCHEME")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--override", action="append", default=[],
                       metavar="section.key=value")

    p_eval = sub.add_parser("evaluate", help="greedy rollouts from a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", dest="run.eval_episodes",
                        metavar="EPISODES", type=int,
                        help="default: the checkpoint config's run.eval_episodes")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--override", action="append", default=[])

    p_sweep = sub.add_parser("sweep", help="axis sweep over a trained policy")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma separated, e.g. 5,10,15")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma separated seeds (default: config seed)")
    p_sweep.add_argument("--episodes", dest="run.eval_episodes",
                         metavar="EPISODES", type=int)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--override", action="append", default=[])

    sub.add_parser("gradcheck", help="finite-difference training-gradient check")

    args = parser.parse_args(argv)
    flags = [f"{key}={value}" for key, value in vars(args).items()
             if key.startswith("run.") and value is not None]
    try:
        if args.verb == "run":
            return run_experiment(args.config, args.override + flags, args.out)
        if args.verb == "evaluate":
            stats = evaluate_policy(args.checkpoint, args.seed,
                                    overrides=args.override + flags)
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        if args.verb == "sweep":
            values = _parse_values(args.values, "--values")
            seeds = (None if args.seeds is None else
                     _parse_values(args.seeds, "--seeds", int))
            sweep(args.config, args.override + flags, args.axis, values,
                  args.out, seeds=seeds)
            return 0
        if args.verb == "gradcheck":
            return gradcheck()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
