"""Print a JSON digest of fasloc's seeded outputs.

A change meant to leave behaviour alone is checked by running this script
against the source tree before and after the change and diffing the two
outputs:

    PYTHONPATH=<old checkout>/src python3 tools/seeded_digest.py > old.json
    PYTHONPATH=src python3 tools/seeded_digest.py > new.json
    diff old.json new.json

It covers, at acceptance criterion 8's config (10 slots, 6 epochs, one
episode per epoch, seed 11):

- the sha256 of every scheme's training log (``TrainingLog.to_jsonl``),
- the greedy ``evaluate_rollouts`` statistics of the trained ar_marl and
  no_fas policies, with every port and with the 8-port menu of 32,
- and the worst relative error of ``micro_gradcheck(micro_config())``.

Only long-standing public names are used, so the script runs unchanged
on older checkouts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from fasloc import cli, marl
from fasloc.config import default_config

SCHEMES = ("ar_marl", "vd_marl", "independent_q", "no_fas", "no_rnn",
           "no_transformer", "random")
EVALUATED = ("ar_marl", "no_fas")
EVAL_EPISODES = 10
EVAL_SEED = 8000


def criterion_8_config(scheme: str):
    cfg = default_config()
    return dataclasses.replace(
        cfg,
        world=dataclasses.replace(cfg.world, slots_per_episode=10),
        run=dataclasses.replace(cfg.run, epochs=6, episodes_per_epoch=1,
                                seed=11, scheme=scheme))


def digest() -> dict:
    out = {"train_log_sha256": {}, "evaluate": {}}
    for scheme in SCHEMES:
        cfg = criterion_8_config(scheme)
        trainer = marl.MarlTrainer(cfg)
        text = trainer.run().to_jsonl()
        out["train_log_sha256"][scheme] = hashlib.sha256(
            text.encode()).hexdigest()
        if scheme in EVALUATED:
            menus = {"all": None,
                     "menu_8": cli.port_menu_for(cfg.channel.n_ports, 8)}
            out["evaluate"][scheme] = {
                name: marl.evaluate_rollouts(cfg, trainer, EVAL_EPISODES,
                                             EVAL_SEED, port_menu=menu)
                for name, menu in menus.items()}
    out["micro_gradcheck"] = marl.micro_gradcheck(marl.micro_config())
    return out


if __name__ == "__main__":
    print(json.dumps(digest(), indent=2, sort_keys=True))
