import dataclasses
import json
import math

import numpy as np
import pytest

from fasloc import cli, marl
from fasloc.config import MarlConfig, default_config
from fasloc.marl import (AgentAction, Coordinator, EpochRecord, LocalQNet,
                         MarlTrainer, Mixer, PositioningEnv, TrainingLog,
                         build_observation, build_td_targets, decode_action,
                         encode_action, micro_config, micro_gradcheck,
                         port_menu_mask, reward, select_action,
                         weighted_td_loss)
from fasloc.world import ConstraintReport

FEASIBLE = ConstraintReport(True, True, True, True, True, True)
VIOLATED = ConstraintReport(False, True, True, True, True, True)


def tiny_config(**run_kw):
    cfg = micro_config()
    run_kw.setdefault("epochs", 3)
    run_kw.setdefault("episodes_per_epoch", 1)
    return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, **run_kw))


class TestActions:
    def test_action_space_sizes(self):
        assert marl.active_action_count() == 25
        assert marl.passive_action_count(32) == 800

    def test_encode_decode_roundtrip(self):
        for n_ports in (None, 8, 32):
            count = 25 * (n_ports or 1)
            for idx in range(0, count, 7):
                act = decode_action(idx, n_ports)
                assert encode_action(act, n_ports) == idx
                assert 0 <= act.yaw_idx < 5 and 0 <= act.pitch_idx < 5
                if n_ports:
                    assert 1 <= act.port <= n_ports
                else:
                    assert act.port is None

    def test_angle_levels(self):
        act = decode_action(encode_action(AgentAction(0, 4, 3), 8), 8)
        assert act.yaw == pytest.approx(math.radians(-60.0))
        assert act.pitch == pytest.approx(math.radians(60.0))

    def test_port_menu_mask(self):
        mask = port_menu_mask(25 * 8, 8, [1, 5])
        assert mask.sum() == 25 * 2
        for idx in np.flatnonzero(mask):
            assert decode_action(int(idx), 8).port in (1, 5)


class TestObservations:
    def test_active_observation_is_position(self):
        positions = np.arange(15, dtype=float).reshape(5, 3)
        obs = build_observation(0, positions, None, 0.0)
        np.testing.assert_array_equal(obs, positions[0])
        assert obs.shape == (3,)

    def test_passive_layout_and_length(self):
        positions = np.arange(15, dtype=float).reshape(5, 3)
        aod = np.linspace(0.1, 2.8, 5)
        obs = build_observation(2, positions, aod, 812.5)
        assert obs.shape == (3 + 5 + 1,)
        np.testing.assert_array_equal(obs[:3], positions[2])
        np.testing.assert_array_equal(obs[3:8], aod)
        assert obs[-1] == 812.5

    def test_first_slot_has_zero_prev_range(self):
        cfg = tiny_config()
        env = PositioningEnv(cfg, np.random.default_rng(0))
        obs = env.reset()
        for k in range(1, 5):
            assert obs[k][-1] == 0.0


class TestLocalQ:
    def test_zero_parameters_give_flat_q(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        net = trainer.nets.local[1]
        for p in net.params():
            p.value[...] = 0.0
        q, _, _ = net.forward(np.zeros(12), net.initial_state())
        assert np.all(q == q[0])

    def test_q_vector_lengths(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        q0, _, _ = trainer.nets.local[0].forward(
            np.zeros(5), trainer.nets.local[0].initial_state())
        q1, _, _ = trainer.nets.local[1].forward(
            np.zeros(12), trainer.nets.local[1].initial_state())
        assert len(q0) == 25
        assert len(q1) == 25 * cfg.channel.n_ports

    def test_recurrent_state_changes_output(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        net = trainer.nets.local[1]
        rng = np.random.default_rng(1)
        # output layers start at zero; give them weight so the head reads
        # the trunk at all
        net.angle_head.layers[-1].w.value[...] = rng.standard_normal(
            net.angle_head.layers[-1].w.value.shape) * 0.1
        x = rng.standard_normal(12) * 0.5
        q_a, _, _ = net.forward(x, np.zeros(net.hidden_size))
        q_b, _, _ = net.forward(x, 0.5 * np.ones(net.hidden_size))
        assert np.max(np.abs(q_a - q_b)) > 1e-9

    def test_additive_head_structure(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        net = trainer.nets.local[1]
        rng = np.random.default_rng(2)
        for head in (net.angle_head, net.port_head):
            lay = head.layers[-1]
            lay.w.value[...] = rng.standard_normal(lay.w.value.shape) * 0.1
            lay.b.value[...] = rng.standard_normal(lay.b.value.shape) * 0.1
        x = rng.standard_normal(12) * 0.3
        q, _, _ = net.forward(x, net.initial_state())
        grid = q.reshape(25, cfg.channel.n_ports)
        # additive decomposition: grid rows differ by constants
        rows = grid - grid[:, :1]
        np.testing.assert_allclose(rows, np.tile(rows[0], (25, 1)), atol=1e-12)
        assert np.std(grid[:, 0]) > 0 and np.std(grid[0]) > 0

    def test_port_fit_trains_only_the_chosen_port_score(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        net = trainer.nets.local[1]
        rng = np.random.default_rng(3)
        lay = net.port_head.layers[-1]
        lay.b.value[...] = rng.standard_normal(lay.b.value.shape) * 0.1
        x = rng.standard_normal(12) * 0.3
        _, _, cache = net.forward(x, net.initial_state())
        port, target = 4, -1.5
        dq = np.zeros(net.n_actions)
        dq[7 * cfg.channel.n_ports + port] = 0.8
        net.zero_grads()
        net.backward(dq, np.zeros(net.hidden_size), cache, port_fit=(port, target))
        port_raw = cache[5][1]     # (port-head cache, raw port scores)
        expected = np.zeros(cfg.channel.n_ports)
        expected[port] = 2.0 * (port_raw[port] - target)
        np.testing.assert_allclose(lay.b.grad, expected, atol=1e-12)
        # dq still reaches the steering and value heads
        assert np.any(net.value_head.b.grad != 0.0)


class TestSelectAction:
    def test_greedy_is_argmax(self):
        rng = np.random.default_rng(0)
        q = np.array([0.1, 3.0, -1.0, 2.9])
        assert select_action(q, 0.0, rng) == 1

    def test_ties_break_to_lowest_index(self):
        rng = np.random.default_rng(0)
        q = np.array([1.0, 5.0, 5.0, 0.0])
        assert select_action(q, 0.0, rng) == 1

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(0)
        q = np.random.default_rng(5).standard_normal(25)
        assert select_action(q, 0.0, rng) == select_action(123.4 * q, 0.0, rng)

    def test_full_exploration_is_uniform(self):
        rng = np.random.default_rng(7)
        q = np.zeros(10)
        counts = np.zeros(10)
        n = 100_000
        for _ in range(n):
            counts[select_action(q, 1.0, rng)] += 1
        np.testing.assert_allclose(counts / n, 0.1, atol=0.01)

    def test_allowed_mask_respected(self):
        rng = np.random.default_rng(1)
        q = np.array([9.0, 1.0, 5.0, 7.0])
        allowed = np.array([False, True, True, False])
        assert select_action(q, 0.0, rng, allowed) == 2
        for _ in range(100):
            assert allowed[select_action(q, 1.0, rng, allowed)]

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            select_action(np.zeros(3), 1.5, np.random.default_rng(0))


class TestCoordinator:
    def test_identical_rows_reduce_to_mean_row_projection(self):
        cfg = MarlConfig(attn_units=1, attn_width=4, embed_width=6,
                        mlp_hidden=8, omega_width=3)
        rng = np.random.default_rng(3)
        coord = Coordinator(7, cfg, rng)
        row = rng.standard_normal(7) * 0.5
        rows = np.tile(row, (5, 1))
        mask = np.ones(5, dtype=bool)
        omega, _ = coord.forward(rows, mask)
        # uniform attention over identical rows = value projection of the row
        e = np.maximum(row @ coord.row_embed.w.value + coord.row_embed.b.value, 0.0)
        v = e @ coord.units[0].wv.value
        expected, _ = coord.out_mlp.forward(v)
        np.testing.assert_allclose(omega, expected, atol=1e-10)

    def test_swapping_identical_agent_blocks_is_invariant(self):
        cfg = MarlConfig(attn_units=2, attn_width=4, embed_width=6,
                        mlp_hidden=8, omega_width=3)
        rng = np.random.default_rng(4)
        coord = Coordinator(10, cfg, rng)
        rng2 = np.random.default_rng(5)
        block = rng2.standard_normal(4)
        head = rng2.standard_normal(2)
        row = np.concatenate([head, block, block])        # two identical agents
        swapped = np.concatenate([head, block, block])
        rows = np.tile(row, (4, 1))
        mask = np.ones(4, dtype=bool)
        omega_a, _ = coord.forward(rows, mask)
        omega_b, _ = coord.forward(np.tile(swapped, (4, 1)), mask)
        np.testing.assert_array_equal(omega_a, omega_b)

    def test_output_width_independent_of_window_fill(self):
        cfg = MarlConfig(attn_units=2, attn_width=4, embed_width=6,
                        mlp_hidden=8, omega_width=5, history_window=6)
        rng = np.random.default_rng(6)
        coord = Coordinator(9, cfg, rng)
        rows = rng.standard_normal((6, 9))
        for valid in (1, 3, 6):
            mask = np.zeros(6, dtype=bool)
            mask[-valid:] = True
            omega, _ = coord.forward(rows, mask)
            assert omega.shape == (5,)

    def test_empty_window_rejected(self):
        cfg = MarlConfig(attn_units=1, attn_width=2, embed_width=4,
                        mlp_hidden=4, omega_width=2)
        coord = Coordinator(5, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            coord.forward(np.zeros((3, 5)), np.zeros(3, dtype=bool))


class TestMixer:
    def _omega(self, width=32):
        return np.random.default_rng(9).standard_normal(width) * 0.3

    def test_identity_construction_reduces_to_sum(self):
        cfg = MarlConfig()
        mixer = Mixer(5, cfg, np.random.default_rng(10))
        # hypernet emitting all-ones first-layer weights, huge positive bias
        # to stay on the linear branch, uniform second layer, cancelling b2
        shift = 1000.0
        m = cfg.mixing_hidden
        mixer.h_w1.w.value[...] = 0.0
        mixer.h_w1.b.value[...] = 1.0
        mixer.h_b1.w.value[...] = 0.0
        mixer.h_b1.b.value[...] = shift
        mixer.h_w2.w.value[...] = 0.0
        mixer.h_w2.b.value[...] = 1.0 / m
        mixer.h_b2.w.value[...] = 0.0
        mixer.h_b2.b.value[...] = -shift
        qs = np.array([-3.0, -1.5, 0.2, -0.7, -2.2])
        out, _ = mixer.forward(qs, self._omega())
        assert out == pytest.approx(qs.sum(), rel=1e-12)

    def test_sum_mode_matches_identity_construction(self):
        cfg = MarlConfig()
        plain = Mixer(5, cfg, np.random.default_rng(11), mode="sum")
        qs = np.array([-5.0, -1.0, -0.5, -2.0, -3.3])
        out, _ = plain.forward(qs, np.zeros(cfg.omega_width))
        assert out == pytest.approx(qs.sum())

    def test_monotone_in_every_local_q(self):
        cfg = MarlConfig(monotone_mixing=True)
        rng = np.random.default_rng(12)
        mixer = Mixer(5, cfg, rng)
        omega = self._omega()
        qs = rng.standard_normal(5) * 2.0 - 3.0
        base, _ = mixer.forward(qs, omega)
        for k in range(5):
            for bump in (0.1, 1.0, 10.0):
                qs2 = qs.copy()
                qs2[k] += bump
                out, _ = mixer.forward(qs2, omega)
                assert out >= base - 1e-12

    def test_backward_matches_finite_differences(self):
        from fasloc.nn import finite_diff_check
        cfg = MarlConfig(mixing_hidden=6, omega_width=5)
        rng = np.random.default_rng(13)
        mixer = Mixer(5, cfg, rng)
        omega = rng.standard_normal(5) * 0.5
        qs = rng.standard_normal(5) - 2.0

        def loss():
            return mixer.forward(qs, omega)[0]

        mixer.zero_grads()
        out, cache = mixer.forward(qs, omega)
        mixer.backward(1.0, cache)
        assert finite_diff_check(loss, mixer.params(), eps=1e-6) < 1e-5

    def test_backward_is_zero_where_weight_floor_binds(self):
        from fasloc.nn import finite_diff_check
        cfg = MarlConfig(mixing_hidden=6, omega_width=5)
        rng = np.random.default_rng(14)
        mixer = Mixer(5, cfg, rng)
        mixer.h_w1.b.value[...] = 0.0   # puts some |w1_raw| below the floor
        omega = rng.standard_normal(5) * 0.05
        qs = rng.standard_normal(5) - 2.0
        floor = cfg.mixing_weight_floor / cfg.mixing_hidden
        w1_raw, _ = mixer.h_w1.forward(omega)
        below = np.abs(w1_raw) < floor
        assert below.any() and not below.all()

        def loss():
            return mixer.forward(qs, omega)[0]

        mixer.zero_grads()
        out, cache = mixer.forward(qs, omega)
        mixer.backward(1.0, cache)
        # the bias gradient of a clamped entry is exactly zero
        assert np.all(mixer.h_w1.b.grad[below] == 0.0)
        assert np.all(mixer.h_w1.b.grad[~below] != 0.0)
        assert finite_diff_check(loss, mixer.params(), eps=1e-7) < 1e-5


class TestPortCredit:
    def test_sole_late_agent_gets_the_penalty_margin(self):
        credit = marl.slot_port_credit([False, True, False, False], VIOLATED,
                                       -2.0, -0.07)
        np.testing.assert_allclose(credit, [0.0, -1.93, 0.0, 0.0])

    def test_no_credit_when_several_are_late(self):
        credit = marl.slot_port_credit([True, True, False, False], VIOLATED,
                                       -2.0, -0.07)
        np.testing.assert_array_equal(credit, np.zeros(4))

    def test_no_credit_when_another_constraint_fails(self):
        report = ConstraintReport(False, True, True, True, False, True)
        credit = marl.slot_port_credit([False, False, True, False], report,
                                       -2.0, -0.07)
        np.testing.assert_array_equal(credit, np.zeros(4))

    def test_no_credit_in_a_feasible_slot(self):
        credit = marl.slot_port_credit([False] * 4, FEASIBLE, -0.07, -0.07)
        np.testing.assert_array_equal(credit, np.zeros(4))


class TestRewardAndLoss:
    def test_perfect_feasible_estimate(self):
        assert reward([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], FEASIBLE) == 0.0

    def test_violation_gives_exact_penalty(self):
        assert reward([0.0, 0.0, 0.0], [500.0, 0.0, 0.0], VIOLATED) == -1.0e6

    def test_five_meter_error(self):
        assert reward([3.0, 4.0, 0.0], [0.0, 0.0, 0.0], FEASIBLE) == pytest.approx(-5.0)

    def test_reward_never_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            est, tru = rng.uniform(-100, 100, (2, 3))
            assert reward(est, tru, FEASIBLE) <= 0.0

    def test_td_targets_terminal_and_zero_discount(self):
        rewards = np.array([-1.0, -2.0, -3.0])
        nxt = np.array([-10.0, -20.0])
        targets = build_td_targets(rewards, nxt, 0.0)
        np.testing.assert_array_equal(targets, rewards)
        targets = build_td_targets(rewards, nxt, 0.9)
        assert targets[-1] == -3.0

    def test_td_targets_hand_computed_two_slot(self):
        targets = build_td_targets(np.array([-1.5, -0.5]), np.array([-10.0]), 0.9)
        np.testing.assert_allclose(targets, [-1.5 + 0.9 * -10.0, -0.5])

    def test_td_targets_length_validation(self):
        with pytest.raises(ValueError):
            build_td_targets(np.zeros(3), np.zeros(3), 0.9)

    def test_weighted_loss_delta_one_is_plain_mse(self):
        rng = np.random.default_rng(14)
        q, t = rng.standard_normal((2, 10))
        loss, _ = weighted_td_loss(q, t, 1.0)
        assert loss == pytest.approx(float(np.sum((q - t) ** 2)))

    def test_all_negative_errors_ignore_delta(self):
        q = np.array([-5.0, -4.0])
        t = np.array([-1.0, -2.0])
        l1, _ = weighted_td_loss(q, t, 0.1)
        l2, _ = weighted_td_loss(q, t, 10.0)
        assert l1 == l2

    def test_mixed_signs_hand_computed(self):
        q = np.array([1.0, -1.0])
        t = np.array([0.0, 0.0])
        loss, w = weighted_td_loss(q, t, 0.5)
        np.testing.assert_array_equal(w, [0.5, 1.0])
        assert loss == pytest.approx(0.5 * 1.0 + 1.0 * 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_td_loss(np.zeros(3), np.zeros(2), 0.5)


class TestTrainerMachinery:
    def test_target_network_staleness(self):
        cfg = tiny_config()
        trainer = MarlTrainer(cfg)
        env = PositioningEnv(cfg, trainer.env_rng)
        episode = trainer.rollout(env, 0.5)
        before = trainer.td_targets(episode).copy()
        # mutate live parameters: target copies must not move until a sync
        for p in trainer.nets.params():
            p.value += 0.05
        after = trainer.td_targets(episode)
        np.testing.assert_array_equal(before, after)

    def test_sync_copies_live_parameters(self):
        cfg = tiny_config()
        trainer = MarlTrainer(cfg)
        for p in trainer.nets.params():
            p.value += 0.1
        trainer.updates = cfg.marl.target_sync - 1
        env = PositioningEnv(cfg, trainer.env_rng)
        episode = trainer.rollout(env, 0.5)
        trainer.train_on_episode(episode)
        for live, tgt in zip(trainer.nets.params(), trainer.target_nets.params()):
            np.testing.assert_array_equal(live.value, tgt.value)

    def test_training_is_deterministic(self):
        logs = []
        for _ in range(2):
            cfg = tiny_config(epochs=4, seed=3)
            logs.append(marl.train(cfg).to_jsonl())
        assert logs[0] == logs[1]

    def test_schemes_all_run(self):
        for scheme in ("ar_marl", "vd_marl", "independent_q", "no_fas",
                       "no_rnn", "no_transformer", "random"):
            cfg = tiny_config(epochs=2, scheme=scheme)
            log = marl.run_baseline(scheme, cfg)
            assert len(log.records) == 2
            assert log.scheme == scheme

    def test_unknown_scheme_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            marl.run_baseline("nonsense", cfg)

    def test_independent_q_exchanges_no_messages(self):
        cfg = tiny_config(epochs=3, scheme="independent_q")
        trainer = MarlTrainer(cfg)
        trainer.run()
        assert trainer.inter_agent_messages == 0

    def test_factorized_schemes_exchange_messages(self):
        cfg = tiny_config(epochs=2, scheme="ar_marl")
        trainer = MarlTrainer(cfg)
        trainer.run()
        assert trainer.inter_agent_messages > 0

    def test_random_port_assignment_is_uniform(self):
        cfg = dataclasses.replace(tiny_config(scheme="no_fas"))
        trainer = MarlTrainer(cfg)
        n = cfg.channel.n_ports
        ports = np.arange(1, n + 1)
        allowed = port_menu_mask(25 * n, n, ports)
        qs = [np.zeros(25)] * 5
        draws = np.array([
            [a.port for a in trainer.act(qs, 0.0, 0.0, trainer.policy_rng,
                                         ports, allowed)[1][1:]]
            for _ in range(25_000)]).ravel()
        counts = np.bincount(draws, minlength=n + 1)[1:]
        np.testing.assert_allclose(counts / len(draws), 1.0 / n, atol=0.01)

    def test_vd_marl_mixes_by_plain_sum(self):
        cfg = tiny_config(scheme="vd_marl")
        trainer = MarlTrainer(cfg)
        assert trainer.nets.mixer.mode == "sum"
        qs = np.array([-1.0, -2.0, -3.0, -4.0, -5.0])
        out, _ = trainer.nets.mixer.forward(qs, np.zeros(cfg.marl.omega_width))
        assert out == pytest.approx(-15.0)

    def test_zero_epsilon_rollout_is_greedy_in_every_factor(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        rng = np.random.default_rng(5)
        for net in trainer.nets.local[1:]:
            for p in net.port_head.layers[-1].params():
                p.value += rng.standard_normal(p.value.shape)
        env = PositioningEnv(cfg, trainer.env_rng)
        episode = trainer.rollout(env, 0.0)
        n = cfg.channel.n_ports
        greedy_ports = set()
        for t in range(len(episode)):
            for k in range(5):
                q = episode.live_q[t][k]
                assert episode.action_ids[t][k] == int(np.argmax(q))
                if k:
                    greedy = decode_action(int(np.argmax(q)), n).port
                    assert episode.actions[t][k].port == greedy
                    greedy_ports.add(greedy)
        assert len(greedy_ports) > 1   # the perturbed heads disagree

    @pytest.mark.parametrize("scheme", ["ar_marl", "no_fas", "random"])
    def test_evaluation_sends_only_menu_ports(self, scheme, monkeypatch):
        base = default_config()
        cfg = dataclasses.replace(
            base, world=dataclasses.replace(base.world, slots_per_episode=4),
            run=dataclasses.replace(base.run, scheme=scheme))
        trainer = MarlTrainer(cfg)
        if trainer.nets is not None and trainer.nets.learned_ports:
            # spread the greedy ports beyond port 1
            rng = np.random.default_rng(8)
            for net in trainer.nets.local[1:]:
                for p in net.port_head.layers[-1].params():
                    p.value += rng.standard_normal(p.value.shape)
        menu = cli.port_menu_for(32, 8)
        sent = []
        step = PositioningEnv.step

        def recording_step(env, actions):
            sent.extend(a.port for a in actions[1:])
            return step(env, actions)

        monkeypatch.setattr(PositioningEnv, "step", recording_step)
        marl.evaluate_rollouts(cfg, trainer, 3, seed=2, port_menu=menu)
        assert len(sent) == 3 * 4 * 4
        assert set(sent) <= set(menu)
        assert len(set(sent)) > 1


class TestEndToEndGradient:
    def test_micro_episode_finite_difference(self):
        cfg = micro_config()
        assert micro_gradcheck(cfg) < 1e-4

    def test_doubled_port_fit_gradient_is_caught(self, monkeypatch):
        backward = LocalQNet.backward

        def doubled(net, dq, dh_next, cache, port_fit=None):
            heads = net.port_head.params() if net.port_head is not None else []
            before = [p.grad.copy() for p in heads]
            dh = backward(net, dq, dh_next, cache, port_fit=port_fit)
            if port_fit is not None:
                for p, old in zip(heads, before):
                    p.grad += p.grad - old
            return dh

        monkeypatch.setattr(LocalQNet, "backward", doubled)
        assert micro_gradcheck(micro_config()) > 1e-4


class TestEnvironment:
    def test_stale_slots_keep_previous_estimate(self):
        cfg = tiny_config()
        # impossible latency budget: every report is late, fix never moves
        cfg = dataclasses.replace(
            cfg, scenario=dataclasses.replace(cfg.scenario, latency_budget=0.0))
        env = PositioningEnv(cfg, np.random.default_rng(0))
        env.reset()
        first_fix = env.estimate.copy()
        acts = [AgentAction(2, 2, None if k == 0 else 1) for k in range(5)]
        for _ in range(2):
            _, info = env.step(acts)
            assert info["stale"]
            assert not info["feasible"]
        np.testing.assert_array_equal(env.estimate, first_fix)

    def test_rewards_match_reported_errors_when_feasible(self):
        cfg = tiny_config()
        env = PositioningEnv(cfg, np.random.default_rng(1))
        env.reset()
        rng = np.random.default_rng(2)
        for _ in range(20):
            acts = [AgentAction(int(rng.integers(5)), int(rng.integers(5)),
                                None if k == 0 else int(rng.integers(1, 4)))
                    for k in range(5)]
            _, info = env.step(acts)
            if info["feasible"]:
                assert info["reward"] == pytest.approx(-info["error"])
            else:
                assert info["reward"] == -1.0e6


class TestTrainingLog:
    def test_jsonl_roundtrip(self):
        log = TrainingLog("ar_marl", 7)
        log.records = [EpochRecord(0, 5.0, -9.0, 1.25, 3, 1.0),
                       EpochRecord(1, 4.0, -7.0, 1.0, 2, 0.9)]
        back = TrainingLog.from_jsonl(log.to_jsonl())
        assert back.scheme == "ar_marl" and back.seed == 7
        assert back.records == log.records

    def test_non_monotone_epochs_rejected(self):
        lines = [json.dumps({"scheme": "x", "seed": 0}),
                 json.dumps({"epoch": 1, "mean_error": 1.0, "mean_reward": 0.0,
                             "loss": 0.0, "violations": 0, "epsilon": 1.0}),
                 json.dumps({"epoch": 0, "mean_error": 1.0, "mean_reward": 0.0,
                             "loss": 0.0, "violations": 0, "epsilon": 1.0})]
        with pytest.raises(ValueError):
            TrainingLog.from_jsonl("\n".join(lines))
