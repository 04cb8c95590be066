"""Self-tests of the benchmark: self-time arithmetic on a synthetic span
tree, the replay check on a perturbed output, failure accounting, and a
tiny-length smoke run of every workload in both modes that must report
every metric of BENCHMARK.json with its unit and a finite value.

    python3 -m pytest bench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["run.epochs=1", "world.slots_per_episode=3"]


def test_self_times_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    own = tracing.self_times(parents, ends - starts)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0
    assert tracing.subtree_mask(parents, [1]).tolist() == [False, True, True, False]
    assert tracing.subtree_mask(parents, [2, 3]).tolist() == [False, False, True, True]


def test_recorded_self_times_sum_to_wall():
    rec = tracing.SpanRecorder()
    leaf = rec.wrap(lambda: sum(range(1000)), "nn.leaf")
    inner = rec.wrap(lambda: [leaf() for _ in range(3)], "marl.inner",
                     starts_episode=True)
    roots = []
    for _ in range(2):
        roots.append(rec.open("bench.op", episode=-1))
        inner()
        rec.close(roots[-1])
    assert tracing.self_time_gap(rec, roots) < 1e-9
    assert rec.names.count("nn.leaf") == 6
    assert rec.episodes == [-1, 0, 0, 0, 0, -1, 1, 1, 1, 1]
    assert rec.parents[:3] == [-1, 0, 1]
    assert rec.parents[5] == -1


class _Replay(workloads.Workload):
    """Gives the listed outputs in turn, then repeats the last one."""

    name = "replay"

    def __init__(self, outputs):
        super().__init__()
        self.outputs = list(outputs)
        self.calls = 0

    def _operation(self, index, on_trainer):
        output = self.outputs[min(self.calls, len(self.outputs) - 1)]
        self.calls += 1
        return workloads.Outcome(output=output, episode_s=[0.1])


def test_replay_check_fires_on_perturbed_output():
    same, perturbed = _Replay(["a\n1.5", "a\n1.5"]), _Replay(["a\n1.5", "a\n1.6"])
    for wl, expect in ((same, []), (perturbed, ["replay of operation 0 is not bit-identical"])):
        reference = wl._operation(0, None)
        assert run_bench._checks(wl, [wl._operation(0, None)], reference) == expect


def test_failed_operation_counts_and_run_goes_on(tmp_path):
    wl = workloads.make("rollout_random", TINY)
    wl.setup(workloads.load_modules(fresh=True), 0, tmp_path)
    ok = wl._operation
    error = wl.mods["channel"].ChannelError

    def failing(index, on_trainer):
        if index == 1:
            raise error("target coincides with a UAV")
        return ok(index, on_trainer)

    wl._operation = failing
    ops = run_bench._run_ops(wl, [], n_ops=3)
    assert [op.outcome.failed for op in ops] == [False, True, False]
    assert ops[1].outcome.error == "ChannelError"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric(name, trace, tmp_path):
    run = run_bench.trace_run if trace else run_bench.measure
    result = run(workloads.make(name, TINY), 0, 0.01, tmp_path)
    assert result["problems"] == []
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        value, unit = result["metrics"][m["name"]]
        assert unit == m["unit"], m["name"]
        assert math.isfinite(value), m["name"]


def test_exit_code_nonzero_when_a_check_fails(tmp_path, monkeypatch, capsys):
    wl = _Replay(["x", "y"])
    wl.setup = lambda *args, **kwargs: None
    wl.setup_repeats = 1
    monkeypatch.setattr(workloads, "make", lambda name: wl)
    monkeypatch.setattr(workloads, "load_modules", lambda fresh: {})
    monkeypatch.setattr(run_bench, "OUT_DIR", tmp_path)
    code = run_bench.main(["--workload", "rollout_random", "--seed", "0",
                           "--seconds", "0.01"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
