import configparser
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasloc import cli, marl, nn, world
from fasloc.config import (SCHEME_TRAITS, SPEED_MAX, ConfigError,
                           apply_overrides, default_config, from_ini,
                           load_config, to_ini)

# one malformed INI text or override per row, and the ConfigError it gives
MALFORMED = {
    # no continuation line: an indented line stands alone
    "indented_line": ("[world]\nspeed = 5.0\n  bogus = 9\n",
                      "unknown key 'bogus' in section [world] (line 3)"),
    # no % interpolation, so % is only a character of a value
    "percent": ("[world]\nspeed = 5%\n",
                "[world] speed (line 2): could not convert string to float: "
                "'5%'"),
    "interpolation": ("[run]\nepochs = 7\nseed = %(epochs)s\n",
                      "[run] seed (line 3): invalid literal for int() with "
                      "base 10: '%(epochs)s'"),
    "repeated_key": ("[world]\nspeed = 5.0\nSpeed: 6.0\n",
                     "repeated key 'speed' in section [world] (line 3)"),
    "repeated_section": ("[world]\nspeed = 5.0\n[run]\nseed = 1\n[World]\n",
                         "repeated section [world] (line 5)"),
    "key_before_section": ("speed = 5.0\n[world]\n",
                           "key 'speed' before any section (line 1)"),
    "no_delimiter": ("[world]\nspeed 5.0\n",
                     "not a [section], key = value or comment: 'speed 5.0' "
                     "(line 2)"),
    "bad_value": ("[world]\nspeed = fast\n",
                  "[world] speed (line 2): could not convert string to float: "
                  "'fast'"),
    "out_of_range": ("[world]\n# the UAVs' speed\nspeed = 0\n",
                     "[world] speed (line 3): speed must be positive"),
    "override": ("world.speed=0",
                 "[world] speed (override 'world.speed=0'): speed must be "
                 "positive"),
    # faster than world.DIST_MAX per slot
    "override_world_speed": ("world.speed=1e8",
                             "[world] speed (override 'world.speed=1e8'): "
                             "speed must be at most 1000.0"),
    "override_target_speed": ("target.speed=1e200",
                              "[target] speed (override 'target.speed=1e200'):"
                              " speed must be at most 1000.0"),
}

_FINITE = {"allow_nan": False, "allow_infinity": False}
# a strategy for every settable value, drawing only valid ones
VALID_VALUES = {
    "world": {"speed": st.floats(0.0, SPEED_MAX, exclude_min=True),
              "slots_per_episode": st.integers(min_value=1)},
    "target": {"speed": st.floats(0.0, SPEED_MAX),
               "uncertainty": st.floats(0.0, 1.0)},
    "scenario": {"latency_budget": st.floats(**_FINITE)},
    "channel": {"n_ports": st.integers(min_value=2),
                "n_paths": st.integers(min_value=1)},
    "marl": {key: st.integers(min_value=1) for key in (
        "gru_hidden", "mlp_hidden", "embed_width", "attn_units", "attn_width",
        "omega_width", "history_window", "mixing_hidden")},
    "run": {"epochs": st.integers(min_value=1),
            "episodes_per_epoch": st.integers(min_value=1),
            "seed": st.integers(min_value=0),
            "scheme": st.sampled_from(list(SCHEME_TRAITS)),
            "eval_episodes": st.integers(min_value=1)},
}
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_NOTE = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                              exclude_characters="%"), max_size=12)


def _with_values(values: dict):
    """The default config with {section: {key: value}} set."""
    return apply_overrides(default_config(), [
        f"{section}.{key}={value!r}" if isinstance(value, float)
        else f"{section}.{key}={value}"
        for section, kv in values.items() for key, value in kv.items()])


@st.composite
def valid_ini(draw):
    """(text, values): a valid INI text without % or continuation lines,
    varying name case, delimiter, spacing, comments, blank lines, section
    order and key subsets, and the {section: {key: value}} it sets."""
    lines, values = [], {}

    def cased(name):
        return "".join(c.upper() if draw(st.booleans()) else c for c in name)

    def note():   # an inline comment, or none
        if draw(st.booleans()):
            return ""
        return draw(st.sampled_from([" ", "\t", "  "])) + \
            draw(st.sampled_from("#;")) + draw(_NOTE)

    def filler():  # blank and full-line comment lines
        for _ in range(draw(st.integers(0, 2))):
            comment = draw(st.sampled_from("#;")) + draw(_NOTE)
            lines.append(draw(_SPACE) + draw(st.sampled_from(["", comment])))

    sections = draw(st.permutations(list(VALID_VALUES)))
    for section in sections[:draw(st.integers(0, len(sections)))]:
        filler()
        lines.append(f"[{draw(_SPACE)}{cased(section)}{draw(_SPACE)}]{note()}")
        values[section] = {}
        keys = draw(st.permutations(list(VALID_VALUES[section])))
        for key in keys[:draw(st.integers(0, len(keys)))]:
            filler()
            value = draw(VALID_VALUES[section][key])
            text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{cased(key)}{draw(_SPACE)}"
                         f"{draw(st.sampled_from('=:'))}{draw(_SPACE)}"
                         f"{text}{note()}")
            values[section][key] = value
    filler()
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), values


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
        # warp_factor never existed; the others are removed keys, which a
        # checkpoint's config_ini from an older version may still carry
        for section, known, key in (
                ("world", "speed = 5.0", "warp_factor"),
                ("world", "speed = 5.0", "n_controlled"),
                ("world", "speed = 5.0", "yaw_min"),
                ("world", "speed = 5.0", "yaw_max"),
                ("world", "speed = 5.0", "light_speed"),
                ("scenario", "latency_budget = 0.03", "channel_coherence"),
                ("scenario", "latency_budget = 0.03", "initial_heading"),
                ("marl", "gru_hidden = 64", "monotone_mixing"),
                ("marl", "gru_hidden = 64", "mixing_weight_floor"),
                *(("marl", "gru_hidden = 64", key) for key in (
                    "discount", "delta", "learning_rate", "lr_final_fraction",
                    "grad_clip", "target_sync", "eps_start", "eps_end",
                    "port_eps_floor", "port_lr_multiplier", "anneal_fraction",
                    "penalty_clip", "reward_scale")),
                ("target", "speed = 5.0", "mode"),
                ("channel", "n_ports = 32", "amp_db_divisor"),
                # the simulator's fixed physics (channel.TX_POWER_ACTIVE, ...)
                *(("channel", "n_ports = 32", key) for key in (
                    "tx_power_active", "tx_power_passive", "unit_path_gain",
                    "reflect_coeff", "noise_power", "fas_size",
                    "carrier_freq", "ref_distance", "path_loss_exp",
                    "shadow_std_db", "rician_k", "dominant_paths",
                    "dominant_share", "data_bits", "bandwidth",
                    "uplink_noise")),
                *(("world", "speed = 5.0", key) for key in (
                    "slot_duration", "dist_min", "dist_max", "pitch_min",
                    "pitch_max")),
                ("target", "speed = 5.0", "start"),
                *(("scenario", "latency_budget = 0.03", key) for key in (
                    "active_start", "passive_starts", "bs_position"))):
            text = f"[{section}]\n{known}\n{key} = 9\n"
            with pytest.raises(ConfigError) as err:
                from_ini(text)
            assert key in str(err.value)
            assert "line 3" in str(err.value)
        # configparser lowercases keys and also splits them off at ":"
        for line in ("Bogus = 9", "bogus: 9", "BOGUS : 9  # note"):
            with pytest.raises(ConfigError, match=(
                    r"^unknown key 'bogus' in section \[world\] \(line 3\)$")):
                from_ini(f"[world]\nspeed = 5.0\n{line}\n")

    @pytest.mark.parametrize("override", [
        "marl.history_window=0",
        "world.slots_per_episode=0",
        "run.epochs=0",
        "run.episodes_per_epoch=0",
        "world.speed=0",
        "target.speed=-1",
        "world.speed=1000.5",
        "target.speed=1e200",
        "target.uncertainty=1.5",
        "channel.n_ports=1",
        "channel.n_paths=0",
        # values that would stop the first episode or every sweep cell
        "marl.gru_hidden=0",
        "marl.embed_width=0",
        "marl.mlp_hidden=0",
        "marl.attn_units=0",
        "marl.attn_width=0",
        "marl.omega_width=0",
        "marl.mixing_hidden=0",
        "marl.attn_units=-1",
        "run.eval_episodes=0",
        "run.seed=-1",
        # the learner's recipe is marl's constants, so an override of a
        # removed key fails as an unknown key whatever its value
        "marl.target_sync=0",
        "marl.reward_scale=0",
        "marl.eps_start=2",
        "marl.eps_end=-0.5",
        "marl.grad_clip=-5",
        "marl.learning_rate=-0.05",
        "marl.penalty_clip=-200",
        "marl.port_lr_multiplier=0",
        "marl.delta=-1",
        "marl.port_eps_floor=1.5",
        "marl.discount=1.5",
        "marl.lr_final_fraction=-0.2",
        "marl.anneal_fraction=2",
        # the simulator's physics is module constants (channel.NOISE_POWER,
        # world.PITCH_MIN, env.MIN_USABLE, ...), so an override of a removed
        # key fails as an unknown key, or unknown section, whatever its value
        "positioning.min_usable=0",
        "positioning.min_usable=5",
        "positioning.variance_scale=-1",
        "scenario.passive_starts=1 2 3, 4 5 6, 7 8 9",
        "scenario.active_start=1 2",
        "scenario.bs_position=0 0",
        "target.start=1 2",
        "scenario.active_start=nan 300 300",
        "target.start=inf 615 533",
        "scenario.active_start=445 615 533",
        "scenario.passive_starts=445 615 533, 310 743 891, 832 497 328, "
        "548 647 400",
        "channel.noise_power=0",
        "channel.bandwidth=0",
        "channel.rician_k=-1",
        "channel.reflect_coeff=0",
        "channel.dominant_share=1.5",
        "channel.dominant_share=-0.5",
        "channel.data_bits=-1",
        "channel.unit_path_gain=0",
        "channel.carrier_freq=0",
        "channel.ref_distance=0",
        "channel.shadow_std_db=-1",
        "channel.uplink_noise=-1",
        "channel.dominant_paths=-1",
        "world.pitch_min=2",
        "world.pitch_min=-2",
        "world.pitch_max=2",
    ])
    def test_out_of_range_value_rejected_at_load(self, override):
        with pytest.raises(ConfigError) as err:
            load_config(None, [override])
        key = override.split("=")[0].split(".")[1]
        assert key in str(err.value)

    @pytest.mark.parametrize("override", [
        "target.speed=0", "target.uncertainty=0", "target.uncertainty=1",
        "channel.n_ports=2", "channel.n_paths=1", "world.speed=1000",
        "target.speed=1000"])
    def test_closed_range_ends_load(self, override):
        key, value = override.split("=")
        section, name = key.split(".")
        assert getattr(getattr(load_config(None, [override]), section),
                       name) == float(value)

    def test_speed_ceiling_is_one_range_per_slot(self):
        assert SPEED_MAX == world.DIST_MAX / world.SLOT_DURATION

    def test_settable_values_are_pinned(self):
        # the training recipe is marl's constants (marl.DISCOUNT, ...) and
        # the simulator's physics channel's, world's and env's; a new
        # settable value is an edit here
        parser = configparser.ConfigParser()
        parser.read_string(to_ini(default_config()))
        keys = sorted(f"{section}.{key}" for section in parser.sections()
                      for key in parser[section])
        assert keys == [
            "channel.n_paths", "channel.n_ports",
            "marl.attn_units", "marl.attn_width", "marl.embed_width",
            "marl.gru_hidden", "marl.history_window", "marl.mixing_hidden",
            "marl.mlp_hidden", "marl.omega_width",
            "run.episodes_per_epoch", "run.epochs", "run.eval_episodes",
            "run.scheme", "run.seed",
            "scenario.latency_budget",
            "target.speed", "target.uncertainty",
            "world.slots_per_episode", "world.speed"]

    def test_unknown_section_rejected(self):
        # even an empty one, and [DEFAULT] too: it is no defaults section
        for text, line in (
                ("[quantum]\nfoo = 1\n", 1),
                ("[world]\nspeed = 5.0\n\n[quantum]\n", 4),
                ("[world]\nspeed = 5.0\n[Quantum] # note\nfoo = 1\n", 3),
                ("[DEFAULT]\nspeed = 5.0\n", 1),
                # the simulator's old section, as older checkpoints store it
                ("[world]\nspeed = 5.0\n[positioning]\nmin_usable = 3\n",
                 3)):
            with pytest.raises(ConfigError, match=(
                    rf"^unknown section \[\w+\] \(line {line}\)$")):
                from_ini(text)

    def test_bad_value_reports_section_and_key(self):
        with pytest.raises(ConfigError) as err:
            from_ini("[world]\nspeed = fast\n")
        assert "[world] speed" in str(err.value)

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_input_names_its_line_or_override(self, case, tmp_path,
                                                        capsys):
        """One ConfigError naming the line or override, and through
        fasloc run one error: line, exit code 2 and no output."""
        source, message = MALFORMED[case]
        out = tmp_path / "out"
        if case.startswith("override"):
            with pytest.raises(ConfigError) as err:
                apply_overrides(default_config(), [source])
            argv, line = ["--override", source], f"error: {message}"
        else:
            with pytest.raises(ConfigError) as err:
                from_ini(source)
            path = tmp_path / "bad.ini"
            path.write_text(source)
            argv, line = ["--config", str(path)], f"error: {path}: {message}"
        assert str(err.value) == message
        assert cli.main(["run", "--out", str(out), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line] and captured.out == ""
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(ini=valid_ini())
    def test_reader_agrees_with_configparser(self, ini):
        """A valid INI text means what configparser's reading of it means,
        and sets the values it spells out."""
        text, values = ini
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(text)
        read = apply_overrides(default_config(), [
            f"{section}.{key}={parser.get(section, key)}"
            for section in parser.sections() for key in parser[section]])
        assert from_ini(text) == read == _with_values(values)

    @settings(max_examples=200, deadline=None)
    @given(values=st.fixed_dictionaries({
        section: st.fixed_dictionaries(kv)
        for section, kv in VALID_VALUES.items()}))
    def test_resolved_ini_round_trips(self, values):
        cfg = _with_values(values)
        assert from_ini(to_ini(cfg)) == cfg
        # the strategies draw every settable value
        assert sum(map(len, values.values())) == to_ini(cfg).count(" = ")

    def test_override_parsing(self):
        cfg = load_config(None, ["marl.gru_hidden=12", "run.seed=9"])
        assert cfg.marl.gru_hidden == 12
        assert cfg.run.seed == 9
        # section and key names are case-blind, as in an INI file
        assert load_config(None, ["MARL.Gru_Hidden=12", "Run.SEED = 9"]) == cfg
        with pytest.raises(ConfigError):
            load_config(None, ["nonsense"])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["run.scheme=alphago"])

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "[world]\nspeed = 6.0\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        cfg = load_config(str(marked))
        assert cfg == load_config(str(plain)) and cfg.world.speed == 6.0


class TestRunVerb:
    def test_run_writes_expected_files(self, tmp_path):
        out = tmp_path / "run1"
        rc = cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=1"], str(out))
        assert rc == 0
        names = set(os.listdir(out))
        assert {"metrics.jsonl", "summary.csv", "config_resolved.ini",
                "checkpoint.npz", "run_info.json"} <= names

    def test_run_info_times_the_phases(self, tmp_path):
        out = tmp_path / "timed"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=1"],
                                  str(out)) == 0
        info = json.loads((out / "run_info.json").read_text())
        timers = ("rollout_s", "env_s", "solver_s", "learn_s", "target_s")
        for key in ("wall_time_s", *timers):
            assert math.isfinite(info[key]) and info[key] > 0.0, key
        # each inner phase is part of its outer one
        assert info["env_s"] <= info["rollout_s"]
        assert 0.0 < info["solver_s"] <= info["env_s"]
        assert info["target_s"] <= info["learn_s"]
        # timings stay out of the deterministic metrics
        for line in (out / "metrics.jsonl").read_text().splitlines():
            assert not set(timers) & set(json.loads(line))

    def test_identical_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=5"],
                                      str(out)) == 0
            outs.append(out)
        for fname in ("metrics.jsonl", "summary.csv", "config_resolved.ini"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname

    def test_scheme_override_lands_in_log(self, tmp_path):
        out = tmp_path / "nofas"
        rc = cli.run_experiment(
            None, TINY_OVERRIDES + ["run.seed=1", "run.scheme=no_fas"], str(out))
        assert rc == 0
        head = (out / "metrics.jsonl").read_text().splitlines()[0]
        assert json.loads(head)["scheme"] == "no_fas"

    def test_rerunning_from_snapshot_reproduces_metrics(self, tmp_path):
        out1 = tmp_path / "orig"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=2"],
                                  str(out1)) == 0
        out2 = tmp_path / "snap"
        snapshot = out1 / "config_resolved.ini"
        assert cli.run_experiment(str(snapshot), [], str(out2)) == 0
        assert ((out1 / "metrics.jsonl").read_bytes()
                == (out2 / "metrics.jsonl").read_bytes())

    def test_diverging_run_keeps_completed_epochs(self, tmp_path, monkeypatch,
                                                  capsys):
        real = marl.weighted_td_loss
        calls = []

        def nan_from_third_call(*args, **kwargs):
            calls.append(None)
            loss, weights = real(*args, **kwargs)
            return (math.nan if len(calls) >= 3 else loss), weights

        monkeypatch.setattr(marl, "weighted_td_loss", nan_from_third_call)
        out = tmp_path / "diverged"
        args = ["run", "--out", str(out), "--seed", "1"]
        for ov in TINY_OVERRIDES:   # 3 epochs of one episode each
            args += ["--override", ov]
        assert cli.main(args) == 3
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(ln)["epoch"] for ln in lines[1:]] == [0, 1]
        diverged = json.loads((out / "diverged.json").read_text())
        assert diverged["completed_epochs"] == 2
        assert "diverged" in capsys.readouterr().err

    def test_flags_are_overrides_applied_last(self, tmp_path, capsys):
        tiny = [arg for ov in TINY_OVERRIDES for arg in ("--override", ov)]
        argvs = {
            "flags": ["--seed", "3", "--scheme", "no_fas"],
            "overrides": ["--override", "run.seed=3",
                          "--override", "run.scheme=no_fas"],
            "flag_after_override": ["--override", "run.seed=9",
                                    "--override", "run.scheme=vd_marl",
                                    "--seed", "3", "--scheme", "no_fas"],
        }
        for name, argv in argvs.items():
            assert cli.main(["run", "--out", str(tmp_path / name)]
                            + tiny + argv) == 0
        capsys.readouterr()
        for name in ("overrides", "flag_after_override"):
            for fname in ("metrics.jsonl", "summary.csv", "config_resolved.ini"):
                assert ((tmp_path / "flags" / fname).read_bytes()
                        == (tmp_path / name / fname).read_bytes()), (name, fname)
            want, want_meta = nn.load_params(tmp_path / "flags" / "checkpoint.npz")
            got, got_meta = nn.load_params(tmp_path / name / "checkpoint.npz")
            assert got_meta == want_meta and list(got) == list(want)
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        head = (tmp_path / "flags" / "metrics.jsonl").read_text().splitlines()[0]
        assert json.loads(head)["scheme"] == "no_fas"
        assert "seed = 3\n" in (tmp_path / "flags" / "config_resolved.ini").read_text()

    def test_negative_seed_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert cli.main(["run", "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_fails_with_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[world]\nspeed = -3\n")
        assert cli.main(["run", "--config", str(bad), "--out",
                         str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: [world] speed (line 2): speed must be positive\n")
        assert not (tmp_path / "o").exists()

    def test_run_and_sweep_print_one_error_line(self, tmp_path, capsys):
        # every verb reports a config error through main's one error: line
        line = ("error: [world] speed (override 'world.speed=0'): speed "
                "must be positive\n")
        for argv in (["run"], ["sweep", "--axis", "port_count", "--values",
                               "2"]):
            assert cli.main([*argv, "--out", str(tmp_path / "o"),
                             "--override", "world.speed=0"]) == 2
            assert capsys.readouterr().err == line
        assert not (tmp_path / "o").exists()


class TestEvaluateVerb:
    def test_evaluate_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                  str(out)) == 0
        stats = cli.evaluate_policy(str(out / "checkpoint.npz"), seed=0,
                                    overrides=["run.eval_episodes=2"])
        assert stats["episodes"] == 2
        assert stats["mean_error"] > 0.0
        assert 0.0 <= stats["violation_rate"] <= 1.0

    def test_scheme_override_must_fit_the_checkpoint(self, tmp_path):
        # the trainer's scheme is the overridden config's, not the one the
        # checkpoint records, so no_fas finds ar_marl's port heads extra
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                  str(out)) == 0
        with pytest.raises(ValueError, match="not no_fas parameters"):
            cli.evaluate_policy(str(out / "checkpoint.npz"), seed=0,
                                overrides=["run.eval_episodes=1",
                                           "run.scheme=no_fas"])

    def test_zero_episodes_rejected(self, tmp_path):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                  str(out)) == 0
        with pytest.raises(ValueError):
            cli.evaluate_policy(str(out / "checkpoint.npz"), seed=0,
                                overrides=["run.eval_episodes=0"])

    def test_manifest_mismatch_detected(self, tmp_path):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                  str(out)) == 0
        arrays, meta = nn.load_params(out / "checkpoint.npz")
        key = next(iter(arrays))
        arrays[key] = np.zeros((2, 2))
        nn.save_params(out / "broken.npz", arrays, meta)
        with pytest.raises(nn.ShapeError):
            cli.evaluate_policy(str(out / "broken.npz"), seed=0,
                                overrides=["run.eval_episodes=1"])

    def test_malformed_override_message(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                  str(out)) == 0
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                       "--episodes", "1", "--override", "bogus"])
        assert rc == 2
        assert "section.key=value" in capsys.readouterr().err

    def test_stored_config_error_names_the_checkpoint(self, tmp_path, capsys):
        # a checkpoint from before a key or section removal stores it; its
        # config error must not read as one in a file the user passed
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                  str(out)) == 0
        arrays, meta = nn.load_params(out / "checkpoint.npz")
        current = meta["config_ini"]
        with_positioning = current + ("[positioning]\nvariance_scale = 0.001\n"
                                      "min_usable = 3\n")
        line = with_positioning.splitlines().index("[positioning]") + 1
        for name, stored, error in (
                ("old.npz", current.replace("[marl]\n",
                                            "[marl]\ndiscount = 0.9\n"),
                 "unknown key 'discount' in section [marl] (line "),
                ("older.npz", with_positioning,
                 f"unknown section [positioning] (line {line})")):
            old = out / name
            nn.save_params(old, arrays, {**meta, "config_ini": stored})
            capsys.readouterr()
            rc = cli.main(["evaluate", "--checkpoint", str(old),
                           "--episodes", "1"])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {old}: the run config stored in "
                                  f"this checkpoint does not load: {error}")
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_cli_main_evaluate(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                  str(out)) == 0
        capsys.readouterr()  # drop the run's own console line
        rc = cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                       "--episodes", "1", "--seed", "3"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert "mean_error" in stats

    def test_negative_seed_names_the_evaluation_seed(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                  str(out)) == 0
        capsys.readouterr()
        rc = cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                       "--episodes", "1", "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: evaluation seed must be non-negative, got -1\n")

    def test_episodes_default_to_the_checkpoint_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.run_experiment(
            None, TINY_OVERRIDES + ["run.eval_episodes=2", "run.seed=4"],
            str(out)) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--checkpoint",
                         str(out / "checkpoint.npz")]) == 0
        assert json.loads(capsys.readouterr().out)["episodes"] == 2


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

    def test_sweep_table_with_failure_cell(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rows = cli.sweep(None, TINY_OVERRIDES + ["run.eval_episodes=2"],
                         "port_count", ["2", "3"], str(out), seeds=[1])
        assert len(rows) == 2
        ok = [r for r in rows if "error" not in r]
        bad = [r for r in rows if "error" in r]
        assert len(ok) == 1 and len(bad) == 1  # 3 does not divide 4 ports
        assert ("sweep cell failed (port_count=3 seed=1): ValueError"
                in capsys.readouterr().err)
        assert (out / "sweep.csv").exists()
        data = json.loads((out / "sweep.json").read_text())
        assert len(data) == 2

    def test_speed_axis_changes_environment(self, tmp_path):
        out = tmp_path / "sweep2"
        rows = cli.sweep(None, TINY_OVERRIDES + ["run.eval_episodes=2"],
                         "target_speed", ["5", "15"], str(out), seeds=[0])
        assert all("error" not in r for r in rows)
        assert {r["value"] for r in rows} == {"5", "15"}

    def test_non_finite_speed_cells_fail_as_config_errors(self, tmp_path,
                                                           capsys):
        out = tmp_path / "speeds"
        rows = cli.sweep(None, TINY_OVERRIDES + ["run.eval_episodes=2"],
                         "target_speed", ["nan", "inf", "5"], str(out),
                         seeds=[0])
        assert [r["value"] for r in rows] == ["nan", "inf", "5"]
        for row in rows[:2]:
            assert row["error"].startswith("ConfigError: [target] speed")
            assert "mean_error" not in row
        assert "error" not in rows[2] and math.isfinite(rows[2]["mean_error"])
        assert capsys.readouterr().err.count("sweep cell failed") == 2

    def test_diverging_seed_fails_its_cells_and_the_sweep_goes_on(
            self, tmp_path, monkeypatch, capsys):
        real = marl.weighted_td_loss
        calls = []

        def nan_on_third_call(*args, **kwargs):
            calls.append(None)
            loss, weights = real(*args, **kwargs)
            return (math.nan if len(calls) == 3 else loss), weights

        monkeypatch.setattr(marl, "weighted_td_loss", nan_on_third_call)
        out = tmp_path / "sweep"
        args = ["sweep", "--axis", "port_count", "--values", "2,4",
                "--seeds", "1,2", "--episodes", "1", "--out", str(out)]
        for ov in TINY_OVERRIDES:   # 3 epochs of one episode per seed
            args += ["--override", ov]
        assert cli.main(args) == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert [(r["seed"], r["value"]) for r in rows] == [
            (1, "2"), (1, "4"), (2, "2"), (2, "4")]
        for row in rows[:2]:
            assert row["error"].startswith("TrainingDiverged: ")
            assert "mean_error" not in row
        assert all("error" not in r for r in rows[2:])
        assert capsys.readouterr().err.count(
            "sweep cell failed (port_count=") == 2
        assert len((out / "sweep.csv").read_text().splitlines()) == 5

    def test_zero_episodes_rejected_before_training(self, tmp_path, capsys):
        # 0 is a count, not "unset": it must not fall back to the config's
        args = ["sweep", "--axis", "port_count", "--values", "4",
                "--episodes", "0", "--out", str(tmp_path / "s")]
        for ov in TINY_OVERRIDES:
            args += ["--override", ov]
        assert cli.main(args) == 2
        assert "eval_episodes" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("seeds, message", [
        ("0,-1", "seed must be at least 0"),
        ("1,x", "error: --seeds: invalid literal for int() with base 10: 'x'"),
    ], ids=["negative", "not_an_integer"])
    def test_bad_sweep_seed_rejected_before_output(self, seeds, message,
                                                   tmp_path, capsys):
        out = tmp_path / "s"
        args = ["sweep", "--axis", "port_count", "--values", "4",
                "--seeds", seeds, "--out", str(out)]
        for ov in TINY_OVERRIDES:
            args += ["--override", ov]
        assert cli.main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--values", "--seeds"])
    @pytest.mark.parametrize("text", [",", " , ", ""],
                             ids=["comma", "spaced_comma", "empty"])
    def test_empty_list_rejected_before_training(self, flag, text, tmp_path,
                                                 capsys):
        # an empty list neither sweeps nothing nor falls back to a default
        out = tmp_path / "s"
        args = ["sweep", "--axis", "port_count", "--values", "4",
                "--out", str(out), flag, text]
        for ov in TINY_OVERRIDES:
            args += ["--override", ov]
        assert cli.main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} lists no value")
        assert not out.exists()

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.sweep(None, TINY_OVERRIDES, "altitude", ["1"], str(tmp_path))


class TestOtherVerbs:
    def test_gradcheck_verb(self, capsys):
        rc = cli.main(["gradcheck"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["oracle"])
        assert exit_.value.code == 2
        assert "invalid choice: 'oracle'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, flags", [
        (None, ["-h"]),
        ("run", ["-h", "--config", "--seed", "--scheme", "--out", "--override"]),
        ("evaluate", ["-h", "--checkpoint", "--episodes", "--seed",
                      "--override"]),
        ("sweep", ["-h", "--config", "--axis", "--values", "--seeds",
                   "--episodes", "--out", "--override"]),
        ("gradcheck", ["-h"]),
    ])
    def test_help_lists_the_same_flags(self, verb, flags, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(([verb] if verb else []) + ["--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        options = text[text.index("options:"):]
        assert re.findall(r"^  (-h|--[a-z]+)", options, re.M) == flags
        usage = " ".join(text[:text.index("options:")].split())
        for flag, metavar in (("--seed", "SEED"), ("--scheme", "SCHEME"),
                              ("--episodes", "EPISODES")):
            if flag in flags:
                assert f"{flag} {metavar}" in usage

    @pytest.mark.parametrize("case", [
        "missing_checkpoint", "checkpoint_is_a_directory",
        "npz_without_manifest", "checkpoint_without_run_config",
        "npy_array", "truncated_npz", "manifest_without_shapes",
        "manifest_is_a_list", "meta_is_a_number", "run_config_is_a_number",
        "run_config_is_null", "text_file", "override_misfits_checkpoint",
        "missing_sweep_config", "run_out_is_a_file"])
    def test_unreadable_input_ends_in_one_error_line(self, case, tmp_path,
                                                      capsys):
        """An input that cannot be read exits 2 with one error: line that
        names the path, not a traceback."""
        plain = tmp_path / "plain.npz"
        np.savez(plain, weights=np.zeros(3))
        bare = tmp_path / "bare.npz"
        nn.save_params(bare, {"w": np.zeros(2)})
        npy = tmp_path / "array.npy"
        np.save(npy, np.zeros(3))
        truncated = tmp_path / "truncated.npz"
        whole = bare.read_bytes()
        truncated.write_bytes(whole[:len(whole) // 2])
        no_shapes = tmp_path / "no_shapes.npz"
        listed = tmp_path / "listed.npz"
        for path, manifest in ((no_shapes, {"version": 1}), (listed, [1])):
            np.savez(path, __manifest__=np.frombuffer(
                json.dumps(manifest).encode(), dtype=np.uint8))
        meta_number = tmp_path / "meta_number.npz"
        nn.save_params(meta_number, {}, meta=5)
        config_number = tmp_path / "config_number.npz"
        nn.save_params(config_number, {}, meta={"config_ini": 5})
        config_null = tmp_path / "config_null.npz"
        nn.save_params(config_null, {}, meta={"config_ini": None})
        text = tmp_path / "text.npz"
        text.write_text("not a checkpoint\n")
        trained = tmp_path / "run" / "checkpoint.npz"
        if case == "override_misfits_checkpoint":
            assert cli.run_experiment(None, TINY_OVERRIDES + ["run.seed=4"],
                                      str(trained.parent)) == 0
            capsys.readouterr()
        taken = tmp_path / "taken"
        taken.write_text("")
        evaluate = ["evaluate", "--checkpoint"]
        sweep = ["sweep", "--axis", "port_count", "--values", "2",
                 "--out", str(tmp_path / "sweep"), "--config"]
        path, argv = {
            "missing_checkpoint": (tmp_path / "none.npz", evaluate),
            "checkpoint_is_a_directory": (tmp_path, evaluate),
            "npz_without_manifest": (plain, evaluate),
            "checkpoint_without_run_config": (bare, evaluate),
            "npy_array": (npy, evaluate),
            "truncated_npz": (truncated, evaluate),
            "manifest_without_shapes": (no_shapes, evaluate),
            "manifest_is_a_list": (listed, evaluate),
            "meta_is_a_number": (meta_number, evaluate),
            "run_config_is_a_number": (config_number, evaluate),
            "run_config_is_null": (config_null, evaluate),
            "text_file": (text, evaluate),
            "override_misfits_checkpoint": (
                trained, ["evaluate", "--override", "marl.gru_hidden=8",
                          "--checkpoint"]),
            "missing_sweep_config": (tmp_path / "none.ini", sweep),
            "run_out_is_a_file": (taken, ["run", "--out"]),
        }[case]
        assert cli.main(argv + [str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(path) in err[0]

    def test_run_verb_through_main(self, tmp_path):
        args = ["run", "--out", str(tmp_path / "o"), "--seed", "1"]
        for ov in TINY_OVERRIDES:
            args += ["--override", ov]
        assert cli.main(args) == 0

    def test_config_error_through_main(self, tmp_path):
        rc = cli.main(["run", "--out", str(tmp_path / "x"),
                       "--override", "world.bogus=1"])
        assert rc == 2
