"""The benchmark's workloads and the checks on their outputs.

Each workload has a set-up and an operation.  Operations run in a closed
loop: the next starts when the previous one ends.  Every seed the
program sees is derived from the workload seed, so the same workload
seed gives the same inputs and the same outputs.

- ``train_ar_marl``: back-to-back ``MarlTrainer(cfg).run()`` calls for the
  full scheme at the default config (shortened to OP_EPOCHS epochs), one
  derived seed per operation.  Rollout, local-net forward and backward,
  coordinator, mixer, target pass and SGD all run.
- ``rollout_random``: the same ``run()`` path with ``scheme=random``.  No
  network is built, so only ``world``, ``channel`` and ``positioning`` run.
- ``eval_port_sweep``: greedy ``marl.evaluate_rollouts`` over the 8/16/32
  port menus of ``cli.port_menu_for``, cycling one menu per operation.
  The policy is trained briefly in set-up, saved with ``nn.save_params``
  and reloaded through ``cli.load_trainer_from_checkpoint``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("world", "channel", "positioning", "config", "nn", "marl", "cli")

# One training operation is one epoch (2 episodes), so that host-speed
# probes can bracket every few tenths of a second of operation time.
OP_EPOCHS = 1
PRETRAIN_EPOCHS = 4       # eval set-up: 8 training episodes
# The evaluated policy is a fixed artifact, pre-trained from this seed
# whatever the workload seed; the workload seed picks the evaluation
# episodes.  A policy's greedy behaviour sets how hard the solver works
# (0.15-0.23 CPU s per operation over five pre-training seeds), which
# would otherwise swamp the run-to-run comparison.
PRETRAIN_SEED = 0
EVAL_EPISODES_PER_OP = 2  # episodes per evaluate_rollouts call
PORT_COUNTS = (8, 16, 32)

# Operation and set-up times are CPU time of this (single-threaded)
# process.  The benchmark host is a shared virtual machine whose
# hypervisor takes the CPU away for 5-50% of an operation at random
# (the steal column of /proc/stat); wall time counts that, CPU time does
# not.  The operations do no I/O and run on one thread, so on an
# unshared host the two agree.
CLOCK = time.process_time

def derived_seed(seed: int, index: int) -> int:
    """Seed of operation `index` of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def load_modules(fresh: bool) -> dict:
    """Import the fasloc modules; fresh drops any already imported first,
    so the import itself is part of a timed set-up."""
    if fresh:
        for name in [n for n in sys.modules if n == "fasloc" or n.startswith("fasloc.")]:
            del sys.modules[name]
    return {name: importlib.import_module(f"fasloc.{name}") for name in MODULES}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """One operation: its output text, the per-episode times, and the
    failure that stopped it, if any."""

    output: str
    episode_s: list = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    """Set-up and operation for one workload.

    overrides are ``section.key=value`` strings applied on top of the
    workload's own; the self-tests use them to shrink a run.
    """

    name = ""
    setup_repeats = 7

    def __init__(self, overrides=()):
        self.overrides = list(overrides)
        self.mods: dict = {}
        self.cfg = None
        self.seed = 0

    def failures(self) -> tuple:
        """Exceptions that fail one operation without ending the run."""
        m = self.mods
        return (m["channel"].ChannelError, m["positioning"].PositioningError,
                m["marl"].TrainingDiverged)

    def setup(self, mods: dict, seed: int, workdir):
        raise NotImplementedError

    def operation(self, index: int, on_trainer=None) -> Outcome:
        """on_trainer(trainer) is called on every trainer the operation
        builds, before it runs."""
        try:
            return self._operation(index, on_trainer)
        except self.failures() as exc:
            return Outcome(output=f"{type(exc).__name__}: {exc}",
                           error=type(exc).__name__)

    def _operation(self, index, on_trainer) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> str | None:
        """Structural check on a successful output; a message if wrong."""
        return None


class TrainRuns(Workload):
    """Back-to-back MarlTrainer(cfg).run() calls of one scheme."""

    def __init__(self, name: str, scheme: str, overrides=()):
        super().__init__(overrides)
        self.name = name
        self.scheme = scheme

    def setup(self, mods, seed, workdir):
        self.mods, self.seed = mods, seed
        self.cfg = mods["config"].load_config(None, [
            f"run.scheme={self.scheme}", f"run.epochs={OP_EPOCHS}",
            *self.overrides])
        mods["marl"].MarlTrainer(self.cfg)

    def _operation(self, index, on_trainer):
        cfg = self.cfg
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(
            cfg.run, seed=derived_seed(self.seed, index)))
        trainer = self.mods["marl"].MarlTrainer(cfg)
        if on_trainer is not None:
            on_trainer(trainer)
        # episode boundaries: each rollout starts one episode, which runs
        # until the next rollout starts (or run() returns)
        starts = []
        rollout = trainer.rollout

        def timed_rollout(*args, **kwargs):
            starts.append(CLOCK())
            return rollout(*args, **kwargs)

        trainer.rollout = timed_rollout
        log = trainer.run()
        starts.append(CLOCK())
        outcome = Outcome(output=log.to_jsonl(), episode_s=list(np.diff(starts)))
        if not all(_finite(r.mean_error, r.mean_reward, r.loss) for r in log.records):
            outcome.error = "non-finite error, reward or loss"
        return outcome

    def check(self, outcome):
        lines = outcome.output.splitlines()
        head = json.loads(lines[0])
        if head["scheme"] != self.scheme:
            return f"log scheme {head['scheme']!r}, expected {self.scheme!r}"
        epochs = [json.loads(ln)["epoch"] for ln in lines[1:]]
        if epochs != list(range(self.cfg.run.epochs)):
            return f"log epochs {epochs}"
        expected = self.cfg.run.epochs * self.cfg.run.episodes_per_epoch
        if len(outcome.episode_s) != expected:
            return f"{len(outcome.episode_s)} episodes, expected {expected}"
        return None


class EvalPortSweep(Workload):
    """Greedy evaluation of a briefly trained, reloaded policy over the
    8/16/32-port menus."""

    name = "eval_port_sweep"
    setup_repeats = 3   # each set-up pre-trains a policy

    def setup(self, mods, seed, workdir):
        self.mods, self.seed = mods, seed
        config, marl, nn, cli = mods["config"], mods["marl"], mods["nn"], mods["cli"]
        cfg = config.load_config(None, [
            "run.scheme=ar_marl", f"run.epochs={PRETRAIN_EPOCHS}",
            f"run.seed={PRETRAIN_SEED}", *self.overrides])
        trainer = marl.MarlTrainer(cfg)
        trainer.run()
        path = str(workdir / f"{self.name}-seed{seed}.npz")
        nn.save_params(path, trainer.checkpoint_arrays(),
                       meta={"scheme": trainer.scheme, "seed": cfg.run.seed,
                             "config_ini": config.to_ini(cfg)})
        self.cfg, self.trainer = cli.load_trainer_from_checkpoint(path)
        saved, loaded = trainer.checkpoint_arrays(), self.trainer.checkpoint_arrays()
        if saved.keys() != loaded.keys() or any(
                not np.array_equal(saved[k], loaded[k]) for k in saved):
            raise RuntimeError("checkpoint round trip changed the parameters")
        self.menus = [cli.port_menu_for(self.cfg.channel.n_ports, count)
                      for count in PORT_COUNTS]

    def _operation(self, index, on_trainer):
        menu = self.menus[index % len(self.menus)]
        started = CLOCK()
        stats = self.mods["marl"].evaluate_rollouts(
            self.cfg, self.trainer, EVAL_EPISODES_PER_OP,
            seed=derived_seed(self.seed, index), port_menu=menu)
        per_episode = (CLOCK() - started) / EVAL_EPISODES_PER_OP
        stats["ports"] = len(menu)
        outcome = Outcome(output=json.dumps(stats, sort_keys=True),
                          episode_s=[per_episode] * EVAL_EPISODES_PER_OP)
        if not _finite(stats["mean_error"], stats["std_error"], stats["mean_reward"]):
            outcome.error = "non-finite error or reward"
        return outcome

    def check(self, outcome):
        stats = json.loads(outcome.output)
        if stats["episodes"] != EVAL_EPISODES_PER_OP:
            return f"{stats['episodes']} episodes, expected {EVAL_EPISODES_PER_OP}"
        for key in ("stale_rate", "violation_rate"):
            if not 0.0 <= stats[key] <= 1.0:
                return f"{key} {stats[key]} outside [0, 1]"
        return None


def make(name: str, overrides=()) -> Workload:
    if name == "train_ar_marl":
        return TrainRuns(name, "ar_marl", overrides)
    if name == "rollout_random":
        return TrainRuns(name, "random", overrides)
    if name == "eval_port_sweep":
        return EvalPortSweep(overrides)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train_ar_marl", "rollout_random", "eval_port_sweep")
