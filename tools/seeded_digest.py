"""Print a JSON digest of fasloc's seeded outputs.

A change meant to leave behaviour alone is checked by running this script
in a checkout from before and one from after the change and diffing the
two outputs.  The script calls fasloc's current interfaces, so each
checkout runs its own copy against its own source tree:

    (cd <old checkout> && PYTHONPATH=src python3 tools/seeded_digest.py) > old.json
    PYTHONPATH=src python3 tools/seeded_digest.py > new.json
    diff old.json new.json

It covers, at acceptance criterion 8's config (10 slots, 6 epochs, one
episode per epoch, seed 11):

- the sha256 of every scheme's training log (``TrainingLog.to_jsonl``),
  and, as ``train_behaviour_sha256``, of the same log's records with
  ``loss`` dropped, so a change that moves only the learner's rounding
  can show in one entry that every epoch's error, reward, violation count
  and epsilon is unchanged,
- the greedy ``evaluate_rollouts`` statistics of the trained ar_marl and
  no_fas policies and of the random policy, with every port and with the
  8-port menu of 32 (the random policy's menu-restricted draw included),
- the checkpoint path of the trained ar_marl policy: saved with
  ``nn.save_params`` and the meta ``fasloc run`` writes, reloaded through
  ``cli.load_trainer_from_checkpoint``, whether every array round-trips,
  and the reloaded policy's greedy ``evaluate_rollouts`` statistics,
- the worst relative error of ``micro_gradcheck(micro_config())``,
- and, over a fixed seeded batch of geometries, near-degenerate ones
  included, ``fix_sha256`` of every ``estimate_position`` fix (position
  bytes, residual norm, iterations, converged) and, apart, the count and
  ``degenerate_sha256`` of its ``degenerate`` flags, so a change to the
  rank test alone shows in those two entries only.  Training logs record
  neither ``iterations`` nor ``degenerate``, so only this section sees a
  change in them,
- and the sha256 of every slot's ``(error, stale, feasible, late)``
  outcomes over ENV_EPISODES seeded episodes of ``env.PositioningEnv``
  at the default config, each UAV taking uniformly random steering
  indices and grid ports, with the count of infeasible slots,
- and, for every trainable scheme at the default config (25 slots, so
  the history windows fill and slide), the sha256 of LEARNER_ROUNDS
  seeded learner rounds: the ``td_targets`` bytes and the loss
  ``train_on_episode`` returns each round, and every
  ``checkpoint_arrays()`` value after the last round.  The rounds cross
  one target-network sync.  Only this section sees a change in a
  gradient that the short criterion-8 runs happen not to reach,
- and a ``cli`` section that drives only ``cli.main`` argument lists at
  tiny sizes in a temporary directory: ``run`` with ``--seed/--scheme``,
  with the same values as ``--override``, and with the flags after
  conflicting overrides; ``evaluate --episodes`` of the first run's
  checkpoint; and a ``sweep`` on each axis with ``--seeds`` and
  ``--episodes``.  It records each exit code and the sha256 of each
  stdout and of every output file but ``run_info.json`` (a checkpoint by
  its archive members, whose bytes do not depend on the zip timestamps),
- and a ``config`` section: the sorted ``section.key`` list of every
  settable config value, the sha256 of ``to_ini(default_config())``, and
  ``errors``, the sha256 of the messages that ``from_ini`` and
  ``apply_overrides`` give for each of the malformed INI texts and
  overrides in CONFIG_ERRORS (each as ``<exception type>: <message>``,
  one per line), so a change to the config surface or to any config
  error text shows as one named entry.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from fasloc import cli, marl, nn
from fasloc.config import (SCHEME_TRAITS, apply_overrides, default_config,
                           from_ini, to_ini)
from fasloc.env import N_AGENTS, N_ANGLE, PositioningEnv
from fasloc.positioning import estimate_position

SCHEMES = tuple(SCHEME_TRAITS)
EVALUATED = ("ar_marl", "no_fas", "random")
EVAL_EPISODES = 10
EVAL_SEED = 8000
SOLVER_SEED = 6
SOLVER_CASES = 2000
ENV_SEED = 21
ENV_EPISODES = 40
LEARNER_SEED = 31
LEARNER_ROUNDS = 12
LEARNER_EPSILON = 0.5
CLI_TINY = ("run.epochs=3", "run.episodes_per_epoch=1",
            "world.slots_per_episode=4", "channel.n_ports=4",
            "channel.n_paths=2", "marl.gru_hidden=6", "marl.mlp_hidden=6",
            "marl.embed_width=5", "marl.attn_units=2", "marl.attn_width=3",
            "marl.omega_width=4", "marl.history_window=2",
            "marl.mixing_hidden=4")
CLI_RUNS = {
    "run_flags": ["--seed", "3", "--scheme", "no_fas"],
    "run_overrides": ["--override", "run.seed=3",
                      "--override", "run.scheme=no_fas"],
    "run_flags_after_overrides": ["--override", "run.seed=9",
                                  "--override", "run.scheme=vd_marl",
                                  "--seed", "3", "--scheme", "no_fas"],
}
CLI_SWEEPS = {"target_speed": "5,10", "uncertainty": "0,0.5",
              "port_count": "2,4"}
# (reader, input): malformed INI texts for from_ini, overrides for
# apply_overrides
CONFIG_ERRORS = (
    ("ini", "[world]\nspeed = 5.0\n  bogus = 9\n"),
    ("ini", "[world]\nspeed = 5%\n"),
    ("ini", "[run]\nepochs = 7\nseed = %(epochs)s\n"),
    ("ini", "[world]\nspeed = 5.0\nSpeed: 6.0\n"),
    ("ini", "[world]\nspeed = 5.0\n[run]\nseed = 1\n[World]\n"),
    ("ini", "speed = 5.0\n[world]\n"),
    ("ini", "[world]\nspeed 5.0\n"),
    ("ini", "[world]\nspeed = fast\n"),
    ("ini", "[world]\n# the UAVs' speed\nspeed = 0\n"),
    ("ini", "[world]\nspeed = 5.0\n[Quantum] # note\nfoo = 1\n"),
    ("ini", "[marl]\ndiscount = 0.9\n"),
    ("ini", "[run]\nscheme = alphago\n"),
    ("override", "world.speed=0"),
    ("override", "target.speed=nan"),
    ("override", "run.seed=-1"),
    ("override", "channel.n_ports=1"),
    ("override", "world.bogus=1"),
    ("override", "quantum.foo=1"),
    ("override", "nonsense"),
)


def criterion_8_config(scheme: str):
    cfg = default_config()
    return dataclasses.replace(
        cfg,
        world=dataclasses.replace(cfg.world, slots_per_episode=10),
        run=dataclasses.replace(cfg.run, epochs=6, episodes_per_epoch=1,
                                seed=11, scheme=scheme))


def solver_cases(rng):
    """Yield (measured, q0, qs, prior) for SOLVER_CASES fixes: generic 3-
    and 4-measurement geometries, passive UAVs clustered within
    millimetres, coplanar and collinear layouts, and one measurement."""
    for i in range(SOLVER_CASES):
        kind = i % 6
        u = rng.uniform(200, 800, 3)
        q0 = u + rng.uniform(-400, 400, 3)
        qs = u + rng.uniform(-400, 400, (3 if kind == 1 else 4, 3))
        prior = u + rng.normal(0.0, 50.0, 3)
        if kind == 2:
            qs = qs[0] + rng.uniform(-1e-3, 1e-3, qs.shape)
        elif kind == 3:
            q0[2] = qs[:, 2] = u[2] = prior[2] = 300.0
        elif kind == 4:
            axis = rng.standard_normal(3)
            q0, *rows = [u + t * axis for t in rng.uniform(50, 300, 5)]
            qs = np.array(rows)
        elif kind == 5:
            qs = qs[:1]
        measured = (np.linalg.norm(q0 - u) + np.linalg.norm(qs - u, axis=1)
                    + rng.normal(0.0, 1.0, len(qs)))
        yield measured, q0, qs, prior


def solver_digest() -> dict:
    fix, flags = hashlib.sha256(), hashlib.sha256()
    degenerate = 0
    for measured, q0, qs, prior in solver_cases(
            np.random.default_rng(SOLVER_SEED)):
        est = estimate_position(measured, q0, qs, prior)
        fix.update(est.position.tobytes())
        fix.update(repr((est.residual_norm, est.iterations,
                         bool(est.converged))).encode())
        flags.update(repr(bool(est.degenerate)).encode())
        degenerate += bool(est.degenerate)
    return {"cases": SOLVER_CASES, "degenerate": degenerate,
            "degenerate_sha256": flags.hexdigest(),
            "fix_sha256": fix.hexdigest()}


def env_digest() -> dict:
    cfg = default_config()
    n_ports = cfg.channel.n_ports
    h = hashlib.sha256()
    slots = infeasible = 0
    for episode in range(ENV_EPISODES):
        env = PositioningEnv(cfg, np.random.default_rng(ENV_SEED + episode))
        pick = np.random.default_rng(10_000 + ENV_SEED + episode)
        env.reset()
        for _ in range(cfg.world.slots_per_episode):
            steer = pick.integers(0, N_ANGLE, size=(N_AGENTS, 2))
            ports = pick.integers(1, n_ports + 1, size=N_AGENTS)
            # a port is drawn for every UAV, the active one's unused
            _, info = env.step(steer[:, 0] * N_ANGLE + steer[:, 1],
                               ports[1:])
            h.update(repr((info["error"], bool(info["stale"]),
                           bool(info["feasible"]),
                           np.asarray(info["late"]).tolist())).encode())
            slots += 1
            infeasible += not info["feasible"]
    return {"episodes": ENV_EPISODES, "slots": slots,
            "infeasible": infeasible, "sha256": h.hexdigest()}


def learner_digest() -> dict:
    out = {}
    for scheme in SCHEMES:
        cfg = default_config()
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(
            cfg.run, seed=LEARNER_SEED, scheme=scheme))
        trainer = marl.MarlTrainer(cfg)
        if not trainer.trains:
            continue
        env = PositioningEnv(cfg, trainer.env_rng)
        h = hashlib.sha256()
        for _ in range(LEARNER_ROUNDS):
            episode, = trainer.rollout([env], LEARNER_EPSILON)
            h.update(np.ascontiguousarray(trainer.td_targets(episode)).tobytes())
            h.update(repr(float(trainer.train_on_episode(episode))).encode())
        for name, value in sorted(trainer.checkpoint_arrays().items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(value).tobytes())
        out[scheme] = h.hexdigest()
    return {"rounds": LEARNER_ROUNDS, "slots": cfg.world.slots_per_episode,
            "sha256": out}


def checkpoint_digest(cfg, trainer) -> dict:
    saved = trainer.checkpoint_arrays()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.npz")
        nn.save_params(path, saved, meta={"scheme": trainer.scheme,
                                          "seed": cfg.run.seed,
                                          "config_ini": to_ini(cfg)})
        loaded_cfg, loaded = cli.load_trainer_from_checkpoint(path)
    back = loaded.checkpoint_arrays()
    return {
        "arrays": len(saved),
        "round_trip": list(saved) == list(back) and all(
            saved[k].tobytes() == back[k].tobytes() for k in saved),
        "evaluate": marl.evaluate_rollouts(loaded_cfg, loaded, EVAL_EPISODES,
                                           EVAL_SEED),
    }


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    if path.endswith(".npz"):
        with np.load(path) as data:
            for name in sorted(data.files):
                h.update(name.encode())
                h.update(data[name].tobytes())
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cli(argv) -> dict:
    """Exit code, stdout hash and output-file hashes of cli.main(argv);
    the output directory is the argument after --out, if any."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    out = {"exit": code,
           "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    if "--out" in argv:
        out_dir = argv[argv.index("--out") + 1]
        out["files"] = {name: _file_sha256(os.path.join(out_dir, name))
                        for name in sorted(os.listdir(out_dir))
                        if name != "run_info.json"}
    return out


def cli_digest() -> dict:
    tiny = [arg for ov in CLI_TINY for arg in ("--override", ov)]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in CLI_RUNS.items():
            out[name] = _cli(["run", "--out", os.path.join(tmp, name),
                              *tiny, *flags])
        out["evaluate"] = _cli([
            "evaluate", "--checkpoint",
            os.path.join(tmp, "run_flags", "checkpoint.npz"),
            "--episodes", "2", "--seed", "5"])
        for axis, values in CLI_SWEEPS.items():
            out[f"sweep_{axis}"] = _cli([
                "sweep", "--axis", axis, "--values", values, "--seeds", "0,1",
                "--episodes", "2", "--out", os.path.join(tmp, f"sweep_{axis}"),
                *tiny])
    return out


def config_digest() -> dict:
    cfg = default_config()
    keys = [f"{sect.name}.{f.name}" for sect in dataclasses.fields(cfg)
            for f in dataclasses.fields(getattr(cfg, sect.name))]
    messages = []
    for reader, given in CONFIG_ERRORS:
        try:
            if reader == "ini":
                from_ini(given)
            else:
                apply_overrides(cfg, [given])
            messages.append("no error")
        except Exception as exc:  # an error that is no ConfigError too
            messages.append(f"{type(exc).__name__}: {exc}")
    return {"keys": sorted(keys),
            "ini_sha256": hashlib.sha256(to_ini(cfg).encode()).hexdigest(),
            "errors": hashlib.sha256(
                "\n".join(messages).encode()).hexdigest()}


def digest() -> dict:
    out = {"train_log_sha256": {}, "train_behaviour_sha256": {},
           "evaluate": {}}
    for scheme in SCHEMES:
        cfg = criterion_8_config(scheme)
        trainer = marl.MarlTrainer(cfg)
        log = trainer.run()
        out["train_log_sha256"][scheme] = hashlib.sha256(
            log.to_jsonl().encode()).hexdigest()
        behaviour = [{k: v for k, v in dataclasses.asdict(r).items()
                      if k != "loss"} for r in log.records]
        out["train_behaviour_sha256"][scheme] = hashlib.sha256(
            json.dumps(behaviour, sort_keys=True).encode()).hexdigest()
        if scheme in EVALUATED:
            menus = {"all": None,
                     "menu_8": cli.port_menu_for(cfg.channel.n_ports, 8)}
            out["evaluate"][scheme] = {
                name: marl.evaluate_rollouts(cfg, trainer, EVAL_EPISODES,
                                             EVAL_SEED, port_menu=menu)
                for name, menu in menus.items()}
        if scheme == "ar_marl":
            out["checkpoint"] = checkpoint_digest(cfg, trainer)
    out["micro_gradcheck"] = marl.micro_gradcheck(marl.micro_config())
    out["solver"] = solver_digest()
    out["env"] = env_digest()
    out["learner"] = learner_digest()
    out["cli"] = cli_digest()
    out["config"] = config_digest()
    return out


if __name__ == "__main__":
    print(json.dumps(digest(), indent=2, sort_keys=True))
