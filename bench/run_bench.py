"""fasloc benchmark: train, simulate and evaluate workloads, end to end
and, in a separate traced run, layer by layer.

    python3 bench/run_bench.py --workload train_ar_marl --seed 0 --seconds 25 --trace 0
    python3 bench/run_bench.py --workload all --seed 0 --seconds 25

Workloads: train_ar_marl, rollout_random, eval_port_sweep (see
bench/workloads.py), or ``all`` for the three in one process.  The run is
a closed loop on one thread: each operation starts when the previous one
ends, and operations start until --seconds of operation time is measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
operations, each untraced and then again traced, and prints the
per-layer metrics (bench/README.md lists them and explains the choices).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is nonzero when an
output check fails.  Reports and span files go to .bench_out/.
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

PROBE_EVERY_S = 0.25    # operation time between two host-speed probes
# End-to-end times are scaled to a host on which calib_probe takes this
# long: the host's speed drifts by 25% or more over minutes and flips
# within seconds, and the probe tracks it (see README.md).
PROBE_REF_S = 0.030
CALIB_SOLVES, CALIB_RECORDS, CALIB_DENSE = 500, 6000, 300
# nominal operation length per workload, used only to fix the number of
# operations of a traced run so that its counts repeat for a fixed seed
TRACE_OP_SECONDS = {"train_ar_marl": 0.3, "rollout_random": 0.13,
                    "eval_port_sweep": 0.2}


def calib_probe() -> float:
    """CPU seconds taken by a fixed reference kernel shaped like the
    program's hot paths: damped 4x3 normal-equation solves (the solver),
    dict and list churn (Python-level bookkeeping) and 64-wide dense math
    (the nets).  It never changes, so it tracks how fast the host runs."""
    started = workloads.CLOCK()
    a = np.linspace(-1.0, 1.0, 12).reshape(4, 3) + np.eye(4, 3)
    b = np.linspace(0.5, 2.0, 4)
    damp = 1e-3 * np.eye(3)
    acc = 0.0
    for _ in range(CALIB_SOLVES):
        acc += float(np.linalg.norm(np.linalg.solve(a.T @ a + damp, a.T @ b)))
    tally, records = {}, []
    for i in range(CALIB_RECORDS):
        rec = {"k": i, "v": (i * 7) % 13, "s": str(i % 97)}
        tally[rec["s"]] = tally.get(rec["s"], 0) + rec["v"]
        records.append(rec)
    records.sort(key=lambda r: (r["v"], r["k"]))
    w = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    x = np.linspace(-1.0, 1.0, 64)
    m = np.linspace(-1.0, 1.0, 8 * 32).reshape(8, 32)
    for _ in range(CALIB_DENSE):
        h = np.tanh(x @ w)
        w2 = w - 1e-4 * np.outer(h, x)
        s = m @ m.T
        p = np.exp(s - s.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        acc += float(h[0] + w2[0, 0] + p[0, 0])
    elapsed = workloads.CLOCK() - started
    if not np.isfinite(acc) or records[0]["k"] != 0:
        raise RuntimeError("calibration kernel gave a wrong result")
    return elapsed


def _pct_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3


@dataclass
class Timed:
    """One operation's outcome, its CPU and wall time, and the mean of the
    two host-speed probes that bracket it."""

    outcome: workloads.Outcome
    cpu_s: float
    wall_s: float
    probe_s: float = math.nan

    @property
    def scale(self) -> float:
        """Factor from this operation's CPU seconds to reference seconds."""
        return PROBE_REF_S / self.probe_s


def _run_ops(wl, probes, n_ops=None, seconds=None) -> list[Timed]:
    """Run operations 0, 1, ... back to back, n_ops of them or until
    `seconds` of operation time are measured.  A probe runs first, last,
    and between operations after every PROBE_EVERY_S of operation time;
    each operation gets the mean of the probes on either side of it."""
    ops, block, measured, since_probe, index = [], [], 0.0, 0.0, 0
    probes.append(calib_probe())
    while index < n_ops if n_ops is not None else measured < seconds:
        started, wall_started = workloads.CLOCK(), time.perf_counter()
        outcome = wl.operation(index)
        index += 1
        took = workloads.CLOCK() - started
        block.append(Timed(outcome, took, time.perf_counter() - wall_started))
        measured += took
        since_probe += took
        if since_probe >= PROBE_EVERY_S:
            ops += _close_block(block, probes)
            block, since_probe = [], 0.0
    if block:
        ops += _close_block(block, probes)
    return ops


def _close_block(block: list[Timed], probes: list[float]) -> list[Timed]:
    probes.append(calib_probe())
    for op in block:
        op.probe_s = (probes[-2] + probes[-1]) / 2
    return block


def _checks(wl, outcomes, reference) -> list[str]:
    """Output checks shared by both modes; returns the problems found."""
    problems = []
    first = outcomes[0]
    if (first.output, first.error) != (reference.output, reference.error):
        problems.append("replay of operation 0 is not bit-identical")
    ok = [o for o in outcomes if not o.failed]
    if not ok:
        problems.append("every operation failed")
    for outcome in ok:
        msg = wl.check(outcome)
        if msg:
            problems.append(msg)
            break
    return problems


def measure(wl, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced run: repeated set-up, one warm-up operation that is also
    the replay reference, then operations until `seconds` are measured."""
    setup_s, probe = [], calib_probe()
    for _ in range(wl.setup_repeats):
        started = workloads.CLOCK()
        wl.setup(workloads.load_modules(fresh=True), seed, workdir)
        took = workloads.CLOCK() - started
        probe, before = calib_probe(), probe
        setup_s.append(took * PROBE_REF_S / ((before + probe) / 2))
    reference = wl.operation(0)

    probes = []
    ops = _run_ops(wl, probes, seconds=seconds)
    measured = sum(op.cpu_s for op in ops)

    # each operation's times are scaled by the probes that bracket it
    episodes = [t * op.scale for op in ops if not op.outcome.failed
                for t in op.outcome.episode_s]
    failed = sum(op.outcome.failed for op in ops)
    metrics = {
        "episodes_per_s": (len(episodes) / sum(op.cpu_s * op.scale for op in ops),
                           "episodes/s"),
        "episode_ms.p50": (_pct_ms(episodes, 50) if episodes else 0.0, "ms"),
        "episode_ms.p90": (_pct_ms(episodes, 90) if episodes else 0.0, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    extra = {
        "failed_ratio": (failed / len(ops), "failed/attempted"),
        "host.calib_ms": (statistics.median(probes) * 1e3, "ms"),
        "episodes": (float(len(episodes)), "count"),
        "measured_s": (measured, "s"),
        "cpu.episodes_per_s": (len(episodes) / measured, "episodes/s"),
        "wall.episodes_per_s": (len(episodes) / sum(op.wall_s for op in ops),
                                "episodes/s"),
        "steal_ratio": (1.0 - measured / sum(op.wall_s for op in ops), "ratio"),
    }
    return {
        "problems": _checks(wl, [op.outcome for op in ops], reference),
        "attempted": len(ops), "failed": failed,
        "metrics": metrics, "extra": extra,
        "digest.first_op": workloads.digest(ops[0].outcome.output),
        "setup_samples_s": setup_s, "probe_samples_ms": [p * 1e3 for p in probes],
    }


def trace_run(wl, seed: int, seconds: float, workdir: Path) -> dict:
    """Traced run: a fixed number of operations, each run untraced and
    then again under the span recorder, so both see the same host speed.
    The per-layer metrics come from the traced runs; the CPU-time ratio
    of traced to untraced is the tracing cost."""
    n_ops = max(1, round(seconds / 4 / TRACE_OP_SECONDS[wl.name]))
    mods = workloads.load_modules(fresh=True)
    wl.setup(mods, seed, workdir)
    reference = wl.operation(0)

    rec = tracing.SpanRecorder()
    rec.latency_budget = wl.cfg.scenario.latency_budget

    def register(trainer):
        nets = trainer.target_nets
        rec.register_targets(nets.modules() if nets is not None else [])

    tracing.install(rec, mods)
    try:
        setup_root = rec.open("bench.setup", episode=-1)
        wl.setup(mods, seed, workdir)
        rec.close(setup_root)
    finally:
        rec.uninstall()
    rec.counters.clear()

    probes = [calib_probe()]
    untraced, traced, op_spans = [], [], []
    untraced_s = traced_s = 0.0
    for i in range(n_ops):
        started = workloads.CLOCK()
        untraced.append(wl.operation(i))
        untraced_s += workloads.CLOCK() - started
        tracing.install(rec, mods)
        try:
            started = workloads.CLOCK()
            sid = rec.open("bench.op", episode=-1)
            traced.append(wl.operation(i, on_trainer=register))
            rec.close(sid)
            traced_s += workloads.CLOCK() - started
        finally:
            rec.uninstall()
        op_spans.append(sid)
        probes.append(calib_probe())

    problems = _checks(wl, untraced, reference)
    if any(t.output != u.output for t, u in zip(traced, untraced)):
        problems.append("traced outputs differ from untraced outputs")
    gap = tracing.self_time_gap(rec, op_spans)
    if gap > 1e-6:
        problems.append(f"self times miss the traced wall time by {gap:.2e}")

    metrics = tracing.layer_metrics(rec, op_spans, setup_root)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["host.calib_ms"] = (statistics.median(probes) * 1e3, "ms")
    rec.write_jsonl(workdir / f"spans-{wl.name}-seed{seed}.jsonl")
    failed = sum(o.failed for o in traced)
    return {
        "problems": problems, "attempted": n_ops, "failed": failed,
        "metrics": metrics,
        "extra": {"failed_ratio": (failed / n_ops, "failed/attempted"),
                  "trace.spans": (float(len(rec.names)), "count")},
        "digest.first_op": workloads.digest(traced[0].output),
        "digest.all_ops": workloads.digest("".join(o.output for o in traced)),
    }


def _print_table(name, seed, trace, result):
    print(f"workload {name} seed {seed} trace {trace}")
    rows = {**result["metrics"], **result["extra"]}
    for key, (value, unit) in rows.items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    for key in ("digest.first_op", "digest.all_ops"):
        if key in result:
            print(f"  {key:44s} {result[key]}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "fasloc" / "__init__.py").is_file():
        print(f"fasloc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    run = trace_run if args.trace else measure
    results = {}
    for name in names:
        result = run(workloads.make(name), args.seed, args.seconds, OUT_DIR)
        _print_table(name, args.seed, args.trace, result)
        report = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps(result, indent=1, sort_keys=True))
        results[name] = result

    prefix = len(names) > 1
    summary = {
        "correct": not any(r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
                    for name, r in results.items()
                    for key, (value, unit) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
