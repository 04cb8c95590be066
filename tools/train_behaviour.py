"""Print, as JSON, what long seeded trainings do, leaving out their loss.

A change meant to move only the learner's rounding (the order in which
a gradient or a loss adds its terms) changes every logged ``loss`` and
every weight, but should leave every action unchanged.  This script
checks that on longer runs than ``tools/seeded_digest.py``'s criterion-8
config: run it in a checkout from before and one from after the change
and diff the two outputs:

    (cd <old checkout> && PYTHONPATH=src python3 tools/train_behaviour.py) > old.json
    PYTHONPATH=src python3 tools/train_behaviour.py > new.json
    diff old.json new.json

It trains, at the default config for EPOCHS epochs, ``ar_marl`` and
``no_fas`` on seeds 0-5 and ``vd_marl``, ``no_rnn`` and
``no_transformer`` on seeds 0-2, and records every epoch's training-log
record without ``loss`` (``mean_error``, ``mean_reward``, ``violations``,
``epsilon``).  For ``ar_marl`` on acceptance seeds 0-2 it adds acceptance
criterion 7's greedy ``evaluate_rollouts`` grid: 40 episodes at each
target speed and with each port menu.  Each training runs in turn; the
whole takes some minutes.
"""

from __future__ import annotations

import dataclasses
import json

from fasloc import cli, marl
from fasloc.config import default_config

EPOCHS = 200
RUNS = ([("ar_marl", s) for s in range(6)] + [("no_fas", s) for s in range(6)]
        + [(scheme, s) for scheme in ("vd_marl", "no_rnn", "no_transformer")
           for s in range(3)])
GRID_SEEDS = (0, 1, 2)
GRID_EPISODES = 40
SPEEDS = (5.0, 10.0, 15.0)
PORT_COUNTS = (8, 16, 32)


def criterion_7_grid(cfg, trainer, seed: int) -> dict:
    grid = {}
    for speed in SPEEDS:
        speed_cfg = dataclasses.replace(
            cfg, target=dataclasses.replace(cfg.target, speed=speed))
        grid[f"speed_{speed}"] = marl.evaluate_rollouts(
            speed_cfg, trainer, episodes=GRID_EPISODES, seed=7000 + seed)
    for count in PORT_COUNTS:
        grid[f"ports_{count}"] = marl.evaluate_rollouts(
            cfg, trainer, episodes=GRID_EPISODES, seed=8000 + seed,
            port_menu=cli.port_menu_for(cfg.channel.n_ports, count))
    return grid


def behaviour() -> dict:
    out = {}
    for scheme, seed in RUNS:
        cfg = default_config()
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(
            cfg.run, epochs=EPOCHS, seed=seed, scheme=scheme))
        trainer = marl.MarlTrainer(cfg)
        log = trainer.run()
        entry = {"records": [{k: v for k, v in dataclasses.asdict(r).items()
                              if k != "loss"} for r in log.records]}
        if scheme == "ar_marl" and seed in GRID_SEEDS:
            entry["criterion_7_grid"] = criterion_7_grid(cfg, trainer, seed)
        out[f"{scheme}/seed_{seed}"] = entry
    return out


if __name__ == "__main__":
    print(json.dumps(behaviour(), indent=1, sort_keys=True))
