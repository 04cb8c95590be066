"""Compare two checkouts' end-to-end benchmark metrics over paired runs.

    python3 tools/bench_pairs.py OLD NEW --workload train_ar_marl --pairs 10 --seconds 12 \
        [--json PATH]

OLD and NEW are directories that each hold a checkout of this repository,
for instance one made with ``git archive <commit> | tar -x -C <dir>``.
Pair i (1..N) runs ``bench/run_bench.py --trace 0 --seed i`` in OLD and
in NEW, one run at a time, OLD first in odd pairs and NEW first in even
ones, each in its own checkout with its own ``src/`` and
``PYTHONDONTWRITEBYTECODE=1``, so that the two sides of a pair see the
same host.  For every end-to-end metric that NEW's
``BENCHMARK.json`` declares, it prints each side's median, the change of
the medians against the metric's bound (negative is worse), the number
of pairs in which NEW did better, and the spread of OLD's runs between
their quartiles as a share of OLD's median.  A run whose output check
fails is reported and its pair left out.  With --json PATH it also
writes every run of both sides, left-out pairs included, to PATH: the
run's seed, side and place in its pair's order, its summary, and the
host's name and CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout root: its summary (the last line of
    run_bench's output)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: no output, exit {done.returncode}\n"
                           f"{done.stderr}")
    return json.loads(lines[-1])


def gain(old: float, new: float, better: str) -> float:
    """The relative change from old to new, positive when new is better."""
    change = new / old - 1.0
    return change if better == "higher" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", type=Path,
                        help="write every run of both sides to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    spec = json.loads((args.new / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])

    runs = {"old": [], "new": []}
    record = []     # every run, for --json
    for seed in range(1, args.pairs + 1):
        order = ("old", "new") if seed % 2 else ("new", "old")
        pair = {side: run_once(getattr(args, side), args.workload, seed,
                               args.seconds) for side in order}
        record += [{"seed": seed, "side": side, "order": order.index(side),
                    "node": platform.node(), "cpu_count": os.cpu_count(),
                    "summary": pair[side]} for side in order]
        failed = [side for side, summary in pair.items()
                  if not summary["correct"] or summary["failed"]]
        if failed:
            print(f"pair {seed}: output check failed on {', '.join(failed)}; "
                  f"pair left out")
            continue
        for side, summary in pair.items():
            runs[side].append(summary["metrics"])
        print(f"pair {seed}: done", flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "runs": record},
            indent=1, sort_keys=True) + "\n")
    if not runs["old"]:
        return 1

    print(f"{'metric':36s} {'old':>10s} {'new':>10s} {'change':>8s} "
          f"{'bound':>6s} {'wins':>6s} {'old IQR':>8s}")
    for name in names:
        for metric in spec["end_to_end"]:
            key = (f"{name}.{metric['name']}" if args.workload == "all"
                   else metric["name"])
            old = [m[key]["value"] for m in runs["old"]]
            new = [m[key]["value"] for m in runs["new"]]
            better = metric["better"]
            wins = sum(gain(o, n, better) > 0 for o, n in zip(old, new))
            old_median = statistics.median(old)
            change = gain(old_median, statistics.median(new), better)
            quartiles = (statistics.quantiles(old, n=4) if len(old) > 1
                         else [old_median] * 3)
            spread = (quartiles[2] - quartiles[0]) / old_median
            flag = "  WORSE THAN BOUND" if change < -metric["bound"] else ""
            print(f"{name + '.' + metric['name']:36s} {old_median:10.4g} "
                  f"{statistics.median(new):10.4g} {change:+8.1%} "
                  f"{metric['bound']:6.0%} {wins:3d}/{len(old):<2d} "
                  f"{spread:8.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
