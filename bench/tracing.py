"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
recorder swaps module attributes (``fasloc.positioning.estimate_position``
and friends, which ``marl`` reaches through ``pos.``/``ch.``/``wd.``) and
class methods (``LocalQNet.forward``, ``Linear.backward``, ...) for timing
wrappers, and puts the originals back on ``uninstall``.  Nothing in the
package itself changes.

Each span keeps a name, start, end, the index of the span that was open
when it started (its parent, -1 at the top) and an episode id shared by
all spans of one episode.  Spans stay in parallel Python lists until the
run ends and are then written out and reduced to per-layer figures.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter

import numpy as np

PARENT_NONE = -1
TARGET_SUFFIX = "@target"   # spans on the target-network instances


class SpanRecorder:
    """Parallel span lists plus the outcome counters the hooks fill."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.episodes: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.current = PARENT_NONE
        self.episode = -1
        self.episode_depth = 0      # open spans that started the episode
        self.counters: Counter = Counter()
        self.target_ids: set[int] = set()
        self.latency_budget = math.inf
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str, episode: int | None = None) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.current)
        self.episodes.append(self.episode if episode is None else episode)
        self.ends.append(0.0)
        self.current = sid
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.ends[sid] = time.perf_counter()
        self.current = self.parents[sid]

    def wrap(self, fn, name: str, hook=None, starts_episode: bool = False,
             split_target: bool = False):
        """Timing wrapper around fn.

        hook(recorder, result) runs after the span closes.  starts_episode
        opens a new episode id unless an enclosing span already did.
        split_target names the span with TARGET_SUFFIX when the bound
        instance (args[0]) is registered in target_ids.
        """
        rec = self
        names, parents, episodes = self.names, self.parents, self.episodes
        starts, ends = self.starts, self.ends
        clock = time.perf_counter
        target_name = name + TARGET_SUFFIX

        def wrapped(*args, **kwargs):
            sid = len(names)
            if split_target and id(args[0]) in rec.target_ids:
                names.append(target_name)
            else:
                names.append(name)
            if starts_episode:
                if rec.episode_depth == 0:
                    rec.episode += 1
                rec.episode_depth += 1
            parents.append(rec.current)
            episodes.append(rec.episode)
            ends.append(0.0)
            rec.current = sid
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                rec.current = parents[sid]
                if starts_episode:
                    rec.episode_depth -= 1
            if hook is not None:
                hook(rec, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def patch(self, owner, attr: str, name: str, **options):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def register_targets(self, modules):
        """Mark these module instances as target networks."""
        self.target_ids = {id(m) for m in modules}

    # -- output ---------------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.names, dtype=object),
                np.asarray(self.parents, dtype=np.int64),
                np.asarray(self.episodes, dtype=np.int64),
                np.asarray(self.starts, dtype=float),
                np.asarray(self.ends, dtype=float))

    def write_jsonl(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "episode": self.episodes[i],
                    "start_us": round((self.starts[i] - t0) * 1e6, 3),
                    "end_us": round((self.ends[i] - t0) * 1e6, 3)}) + "\n")


# ---------------------------------------------------------------------------
# what gets wrapped


def _fix_outcome(rec: SpanRecorder, est):
    c = rec.counters
    c["fixes"] += 1
    c["fix_iterations"] += est.iterations
    c["fixes_converged"] += bool(est.converged)
    c["fixes_degenerate"] += bool(est.degenerate)


def _latency_outcome(rec: SpanRecorder, latencies):
    rec.counters["uplinks"] += len(latencies)
    rec.counters["uplinks_in_budget"] += int(np.sum(latencies <= rec.latency_budget))


def _slot_outcome(rec: SpanRecorder, result):
    _, info = result
    rec.counters["slots"] += 1
    rec.counters["stale_slots"] += bool(info["stale"])


def install(rec: SpanRecorder, mods) -> SpanRecorder:
    """Wrap every traced entry point of the loaded fasloc modules.

    mods maps module short names (positioning, channel, world, marl, nn,
    cli) to the imported modules.
    """
    pos, ch, wd = mods["positioning"], mods["channel"], mods["world"]
    marl, nn, cli = mods["marl"], mods["nn"], mods["cli"]

    rec.patch(pos, "estimate_position", "positioning.estimate_position",
              hook=_fix_outcome)
    rec.patch(pos, "sample_range", "positioning.sample_range")
    rec.patch(pos, "true_range_sum", "positioning.true_range_sum")
    for fn in ("draw_channel", "fas_gain", "bistatic_snr", "path_loss_db",
               "uplink_sinr"):
        rec.patch(ch, fn, f"channel.{fn}")
    rec.patch(ch, "uplink_latencies", "channel.uplink_latencies",
              hook=_latency_outcome)
    rec.patch(wd, "step_controlled", "world.step_controlled")
    rec.patch(wd, "check_constraints", "world.check_constraints")
    rec.patch(wd.TargetTrajectory, "step", "world.target_step")

    rec.patch(marl.PositioningEnv, "reset", "marl.env_reset",
              starts_episode=True)
    rec.patch(marl.PositioningEnv, "step", "marl.env_step", hook=_slot_outcome)
    rec.patch(marl.MarlTrainer, "__init__", "marl.trainer_init")
    rec.patch(marl.MarlTrainer, "run", "marl.run")
    rec.patch(marl.MarlTrainer, "rollout", "marl.rollout", starts_episode=True)
    rec.patch(marl.MarlTrainer, "train_on_episode", "marl.train_on_episode")
    rec.patch(marl, "evaluate_rollouts", "marl.evaluate_rollouts")
    for cls, tag in ((marl.LocalQNet, "local"), (marl.Coordinator, "coordinator"),
                     (marl.Mixer, "mixer")):
        fwd = "marl.local_forward" if tag == "local" else f"marl.{tag}.forward"
        bwd = "marl.local_backward" if tag == "local" else f"marl.{tag}.backward"
        rec.patch(cls, "forward", fwd, split_target=True)
        rec.patch(cls, "backward", bwd)

    for cls, tag in ((nn.Linear, "linear"), (nn.GRUCell, "gru"),
                     (nn.AttentionUnit, "attention")):
        rec.patch(cls, "forward", f"nn.{tag}.forward")
        rec.patch(cls, "backward", f"nn.{tag}.backward")
    rec.patch(nn, "save_params", "nn.save_params")
    rec.patch(nn, "load_params", "nn.load_params")
    rec.patch(cli, "load_trainer_from_checkpoint",
              "cli.load_trainer_from_checkpoint")
    return rec


# ---------------------------------------------------------------------------
# reduction to per-layer figures


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans recorded on one thread nest, so the children of a span never
    overlap and their summed duration is the part of it they cover.
    """
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                          minlength=len(durations))
    return durations - covered


def subtree_mask(parents: np.ndarray, roots: list[int]) -> np.ndarray:
    """Spans at or below any of roots; parents precede their children."""
    inside = np.zeros(len(parents), dtype=bool)
    inside[roots] = True
    for i in range(min(roots) + 1, len(parents)):
        p = parents[i]
        if p >= 0 and inside[p]:
            inside[i] = True
    return inside


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def base_name(name: str) -> str:
    return name[:-len(TARGET_SUFFIX)] if name.endswith(TARGET_SUFFIX) else name


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYERS = ("positioning", "channel", "world", "marl", "nn")


def layer_metrics(rec: SpanRecorder, roots: list[int],
                  setup_root: int | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the spans below roots.

    Span-based times come from the subtrees of roots (the traced
    operations), whose summed duration is the traced wall time; the
    checkpoint timings come from setup_root.
    Outcome ratios come from rec.counters, which the caller clears when
    the measurement block opens.  Returns {name: (value, unit)}.
    """
    names, parents, episodes, starts, ends = rec.arrays()
    dur = ends - starts
    own = self_times(parents, dur)
    inside = subtree_mask(parents, roots)
    wall = float(dur[roots].sum())
    base = np.array([base_name(n) for n in names], dtype=object)
    layer = np.array([layer_of(n) for n in names], dtype=object)
    out: dict[str, tuple[float, str]] = {}

    def sel(name, mask=inside):
        return (base == name) & mask

    def us(name, q):
        return _pct(dur[sel(name)], q) * 1e6

    est = sel("positioning.estimate_position")
    out["positioning.estimate_position.calls"] = (float(est.sum()), "count")
    out["positioning.estimate_position.us_p50"] = (us("positioning.estimate_position", 50), "us")
    out["positioning.estimate_position.us_p90"] = (us("positioning.estimate_position", 90), "us")
    c = rec.counters
    out["positioning.iterations_mean"] = (_ratio(c["fix_iterations"], c["fixes"]), "count/count")
    out["positioning.converged_ratio"] = (_ratio(c["fixes_converged"], c["fixes"]), "count/count")
    out["positioning.degenerate_ratio"] = (_ratio(c["fixes_degenerate"], c["fixes"]), "count/count")
    out["positioning.stale_ratio"] = (_ratio(c["stale_slots"], c["slots"]), "count/count")
    out["positioning.sample_range.us_p50"] = (us("positioning.sample_range", 50), "us")
    out["positioning.true_range_sum.us_p50"] = (us("positioning.true_range_sum", 50), "us")

    for fn in ("draw_channel", "fas_gain", "bistatic_snr", "path_loss_db",
               "uplink_sinr", "uplink_latencies"):
        out[f"channel.{fn}.us_p50"] = (us(f"channel.{fn}", 50), "us")
    out["channel.latency_ok_ratio"] = (_ratio(c["uplinks_in_budget"], c["uplinks"]), "count/count")

    for fn in ("step_controlled", "target_step", "check_constraints"):
        out[f"world.{fn}.us_p50"] = (us(f"world.{fn}", 50), "us")

    out["marl.env_step.self_us_p50"] = (_pct(own[sel("marl.env_step")], 50) * 1e6, "us")
    out["marl.rollout.ms_p50"] = (_pct(dur[sel("marl.rollout")], 50) * 1e3, "ms")
    learn = sel("marl.train_on_episode")
    out["marl.train_on_episode.ms_p50"] = (_pct(dur[learn], 50) * 1e3, "ms")
    out["marl.train_on_episode.self_ms_p50"] = (_pct(own[learn], 50) * 1e3, "ms")
    out["marl.learn_share"] = (_ratio(float(dur[learn].sum()), wall), "ratio")
    out["marl.local_forward.calls"] = (float(sel("marl.local_forward").sum()), "count")
    out["marl.local_forward.us_p50"] = (us("marl.local_forward", 50), "us")
    out["marl.local_backward.us_p50"] = (us("marl.local_backward", 50), "us")
    for part in ("coordinator", "mixer"):
        for way in ("forward", "backward"):
            out[f"marl.{part}.{way}.us_p50"] = (us(f"marl.{part}.{way}", 50), "us")
    target = inside & np.array([n.endswith(TARGET_SUFFIX) for n in names], dtype=bool)
    per_episode = np.bincount(episodes[target], weights=dur[target]) if target.any() else np.zeros(0)
    out["marl.target_pass.ms_p50"] = (_pct(per_episode[per_episode > 0], 50) * 1e3, "ms")
    out["marl.evaluate_rollouts.ms_p50"] = (_pct(dur[sel("marl.evaluate_rollouts")], 50) * 1e3, "ms")

    out["nn.linear.forward.calls"] = (float(sel("nn.linear.forward").sum()), "count")
    for tag in ("linear", "gru", "attention"):
        for way in ("forward", "backward"):
            out[f"nn.{tag}.{way}.us_p50"] = (us(f"nn.{tag}.{way}", 50), "us")

    in_setup = (subtree_mask(parents, [setup_root]) if setup_root is not None
                else np.zeros(len(names), dtype=bool))
    for name in ("nn.save_params", "nn.load_params", "cli.load_trainer_from_checkpoint"):
        out[f"{name}.ms"] = (float(dur[sel(name, in_setup)].sum()) * 1e3, "ms")

    for lay in LAYERS:
        mine = inside & (layer == lay)
        out[f"{lay}.calls"] = (float(mine.sum()), "count")
        out[f"{lay}.self_ms"] = (float(own[mine].sum()) * 1e3, "ms")
        out[f"{lay}.share"] = (_ratio(float(own[mine].sum()), wall), "ratio")
    return out


def self_time_gap(rec: SpanRecorder, roots: list[int]) -> float:
    """|sum of self times below roots - their duration| / their duration."""
    names, parents, _, starts, ends = rec.arrays()
    dur = ends - starts
    own = self_times(parents, dur)
    inside = subtree_mask(parents, roots)
    wall = float(dur[roots].sum())
    return abs(float(own[inside].sum()) - wall) / wall
