import dataclasses
import json
import os

import numpy as np
import pytest

from fasloc import cli, marl, nn
from fasloc.config import (ConfigError, default_config, from_ini, load_config,
                           to_ini)
from fasloc.marl import micro_config

TINY_OVERRIDES = [
    "run.epochs=3",
    "run.episodes_per_epoch=1",
    "world.slots_per_episode=4",
    "channel.n_ports=4",
    "channel.n_paths=2",
    "marl.gru_hidden=6",
    "marl.mlp_hidden=6",
    "marl.embed_width=5",
    "marl.attn_units=2",
    "marl.attn_width=3",
    "marl.omega_width=4",
    "marl.history_window=2",
    "marl.mixing_hidden=4",
]


class TestConfig:
    def test_roundtrip_through_ini(self):
        cfg = default_config()
        text = to_ini(cfg)
        back = from_ini(text)
        assert back == cfg

    def test_unknown_key_rejected_with_line(self):
        text = "[world]\nspeed = 5.0\nwarp_factor = 9\n"
        with pytest.raises(ConfigError) as err:
            from_ini(text)
        assert "warp_factor" in str(err.value)
        assert "line 3" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            from_ini("[quantum]\nfoo = 1\n")

    def test_bad_value_reports_section_and_key(self):
        with pytest.raises(ConfigError) as err:
            from_ini("[world]\nspeed = fast\n")
        assert "[world] speed" in str(err.value)

    def test_override_parsing(self):
        cfg = load_config(None, ["marl.delta=0.75", "run.seed=9"])
        assert cfg.marl.delta == 0.75
        assert cfg.run.seed == 9
        with pytest.raises(ConfigError):
            load_config(None, ["nonsense"])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["run.scheme=alphago"])

    def test_tuple_fields_roundtrip(self):
        cfg = load_config(None, ["scenario.active_start=1 2 3"])
        assert cfg.scenario.active_start == (1.0, 2.0, 3.0)
        back = from_ini(to_ini(cfg))
        assert back.scenario.active_start == (1.0, 2.0, 3.0)


class TestRunVerb:
    def test_run_writes_expected_files(self, tmp_path):
        out = tmp_path / "run1"
        rc = cli.run_experiment(None, TINY_OVERRIDES, str(out), seed=1)
        assert rc == 0
        names = set(os.listdir(out))
        assert {"metrics.jsonl", "summary.csv", "config_resolved.ini",
                "checkpoint.npz", "run_info.json"} <= names

    def test_identical_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.run_experiment(None, TINY_OVERRIDES, str(out), seed=5) == 0
            outs.append(out)
        for fname in ("metrics.jsonl", "summary.csv", "config_resolved.ini"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname

    def test_scheme_override_lands_in_log(self, tmp_path):
        out = tmp_path / "nofas"
        rc = cli.run_experiment(None, TINY_OVERRIDES, str(out), seed=1,
                                scheme="no_fas")
        assert rc == 0
        head = (out / "metrics.jsonl").read_text().splitlines()[0]
        assert json.loads(head)["scheme"] == "no_fas"

    def test_rerunning_from_snapshot_reproduces_metrics(self, tmp_path):
        out1 = tmp_path / "orig"
        assert cli.run_experiment(None, TINY_OVERRIDES, str(out1), seed=2) == 0
        out2 = tmp_path / "snap"
        snapshot = out1 / "config_resolved.ini"
        assert cli.run_experiment(str(snapshot), [], str(out2)) == 0
        assert ((out1 / "metrics.jsonl").read_bytes()
                == (out2 / "metrics.jsonl").read_bytes())

    def test_invalid_config_fails_with_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[world]\nspeed = -3\n")
        rc = cli.run_experiment(str(bad), [], str(tmp_path / "o"))
        assert rc != 0


class TestEvaluateVerb:
    def test_evaluate_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES, str(out), seed=4) == 0
        stats = cli.evaluate_policy(str(out / "checkpoint.npz"), episodes=2,
                                    seed=0)
        assert stats["episodes"] == 2
        assert stats["mean_error"] > 0.0
        assert 0.0 <= stats["violation_rate"] <= 1.0

    def test_zero_episodes_rejected(self, tmp_path):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES, str(out), seed=4) == 0
        with pytest.raises(ValueError):
            cli.evaluate_policy(str(out / "checkpoint.npz"), episodes=0, seed=0)

    def test_manifest_mismatch_detected(self, tmp_path):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES, str(out), seed=4) == 0
        arrays, meta = nn.load_params(out / "checkpoint.npz")
        key = next(iter(arrays))
        arrays[key] = np.zeros((2, 2))
        nn.save_params(out / "broken.npz", arrays, meta)
        with pytest.raises(nn.ShapeError):
            cli.evaluate_policy(str(out / "broken.npz"), episodes=1, seed=0)

    def test_malformed_override_message(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES, str(out), seed=4) == 0
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                       "--episodes", "1", "--override", "bogus"])
        assert rc == 2
        assert "section.key=value" in capsys.readouterr().err

    def test_cli_main_evaluate(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES, str(out), seed=4) == 0
        capsys.readouterr()  # drop the run's own console line
        rc = cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                       "--episodes", "1", "--seed", "3"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert "mean_error" in stats


class TestSweepVerb:
    def test_port_menus_nest(self):
        m8 = set(cli.port_menu_for(32, 8))
        m16 = set(cli.port_menu_for(32, 16))
        m32 = set(cli.port_menu_for(32, 32))
        assert m8 < m16 < m32
        assert len(m8) == 8 and len(m32) == 32

    def test_invalid_menu_count(self):
        with pytest.raises(ValueError):
            cli.port_menu_for(32, 7)
        with pytest.raises(ValueError):
            cli.port_menu_for(32, 64)

    def test_sweep_table_with_failure_cell(self, tmp_path):
        out = tmp_path / "sweep"
        rows = cli.sweep(None, TINY_OVERRIDES, "port_count", ["2", "3"],
                         str(out), seeds=[1], eval_episodes=2)
        assert len(rows) == 2
        ok = [r for r in rows if "error" not in r]
        bad = [r for r in rows if "error" in r]
        assert len(ok) == 1 and len(bad) == 1  # 3 does not divide 4 ports
        assert (out / "sweep.csv").exists()
        data = json.loads((out / "sweep.json").read_text())
        assert len(data) == 2

    def test_speed_axis_changes_environment(self, tmp_path):
        out = tmp_path / "sweep2"
        rows = cli.sweep(None, TINY_OVERRIDES, "target_speed", ["5", "15"],
                         str(out), seeds=[0], eval_episodes=2)
        assert all("error" not in r for r in rows)
        assert {r["value"] for r in rows} == {"5", "15"}

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.sweep(None, TINY_OVERRIDES, "altitude", ["1"], str(tmp_path))


class TestOtherVerbs:
    def test_gradcheck_verb(self, capsys):
        rc = cli.main(["gradcheck"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle_verb(self, capsys):
        rc = cli.main(["oracle", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_run_verb_through_main(self, tmp_path):
        args = ["run", "--out", str(tmp_path / "o"), "--seed", "1"]
        for ov in TINY_OVERRIDES:
            args += ["--override", ov]
        assert cli.main(args) == 0

    def test_config_error_through_main(self, tmp_path):
        rc = cli.main(["run", "--out", str(tmp_path / "x"),
                       "--override", "world.bogus=1"])
        assert rc == 2
