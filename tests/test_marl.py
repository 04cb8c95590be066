import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from fasloc import channel, cli, marl, nn, positioning, world
from fasloc.config import ConfigError, MarlConfig, default_config, to_ini
from fasloc.env import N_ANGLE, N_STEER, EpisodeData, PositioningEnv
from fasloc.marl import (Coordinator, EpochRecord, LocalQNet, MarlTrainer,
                         Mixer, TrainingLog, build_td_targets, encode_actions,
                         micro_config, micro_gradcheck, select_action,
                         slot_rewards, weighted_td_loss)

# one slot's (late, range_ok) outcomes: every report on time and both
# range constraints held, or one report late
FEASIBLE = ([False] * 4, (True, True))
VIOLATED = ([True, False, False, False], (True, True))


def tiny_config(**run_kw):
    cfg = micro_config()
    run_kw.setdefault("epochs", 3)
    run_kw.setdefault("episodes_per_epoch", 1)
    return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, **run_kw))


def _flat_greedy(q, port, menu):
    """The first argmax of the flat steering x port outer sum restricted to
    the menu's ports, as an id steer * n_ports + port - 1."""
    flat = np.add.outer(q, port).ravel()
    ids = np.flatnonzero(np.isin(np.arange(flat.size) % len(port) + 1, menu))
    return int(ids[np.argmax(flat[ids])])


def _ref_act(trainer, values, epsilon, port_eps, rng, ports):
    """MarlTrainer.act as it ran agent by agent before the team's actions
    were arrays: values holds each agent's (q, port) and the actions are
    (steer, port) pairs, port None for the active UAV."""
    if not trainer.trains:
        acts = [(int(rng.integers(N_STEER)), None)]
        for _ in range(4):
            steer, i = divmod(int(rng.integers(N_STEER * len(ports))),
                              len(ports))
            acts.append((steer, int(ports[i])))
        return acts
    learned_ports = trainer.nets.local[1].port_head is not None
    slot_ports = (None if learned_ports
                  else ports[rng.integers(len(ports), size=4)])
    acts = []
    for k, (q, port_adv) in enumerate(values):
        if k == 0 or not learned_ports:
            acts.append((select_action(q, epsilon, rng),
                         int(slot_ports[k - 1]) if k else None))
            continue
        steer = int(np.argmax(q))
        if epsilon > 0.0 and rng.uniform() < epsilon:
            yaw = int(rng.integers(N_ANGLE))
            steer = yaw * N_ANGLE + int(rng.integers(N_ANGLE))
        port = int(ports[np.argmax(port_adv[ports - 1])])
        if port_eps > 0.0 and rng.uniform() < port_eps:
            port = int(ports[rng.integers(len(ports))])
        acts.append((steer, port))
    return acts


class TestActions:
    def test_action_space_sizes(self):
        assert N_STEER == N_ANGLE ** 2 == 25

    def test_encode_decode_roundtrip(self):
        """Each steering combo is yaw * N_ANGLE + pitch, and its action
        features give back both indices and the port."""
        n = 32
        steer = np.tile(np.arange(N_STEER), (5, 1))
        ports = np.tile(np.arange(N_STEER) % n + 1, (4, 1))
        active, passive = encode_actions(steer, ports, n)
        for features in (active, passive):
            yaw, pitch = np.rint(features[..., :2] * 2.0 + 2.0).astype(int).T
            assert set(yaw.ravel()) | set(pitch.ravel()) == set(range(5))
            np.testing.assert_array_equal((yaw * 5 + pitch).T, steer[:len(features)])
        np.testing.assert_array_equal(
            np.rint((passive[..., 2] + 1.0) * (n - 1) / 2.0 + 1.0), ports)

    def test_angle_levels(self):
        """A steering combo turns the heading by ANGLE_CHOICES[yaw] and
        ANGLE_CHOICES[pitch]; combo 12 holds course."""
        env = PositioningEnv(default_config(), np.random.default_rng(0))
        env.reset()
        env.headings[:] = 0.0
        env.step(np.array([0 * 5 + 4, 12, 4 * 5 + 0, 0 * 5 + 2, 4 * 5 + 2]),
                 np.ones(4, int))
        np.testing.assert_allclose(
            env.headings,
            np.radians([[-60, 60], [0, 0], [60, -60], [-60, 0], [60, 0]]),
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("count", [8, 16, 32])
    def test_greedy_act_is_first_argmax_of_menu_masked_outer_sum(self, count):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        n = cfg.channel.n_ports
        menu = cli.port_menu_for(n, count)
        rng = np.random.default_rng(count)
        for trial in range(200):
            # generic values, then small integers, whose sums tie exactly
            draw = ((lambda size: rng.standard_normal(size)) if trial % 2 == 0
                    else (lambda size: rng.integers(0, 3, size).astype(float)))
            values = [(draw((1, 1, N_STEER)), None),
                      (draw((4, 1, N_STEER)), draw((4, 1, n)))]
            steer, ports = trainer.act(values, 0.0, 0.0, rng, np.array(menu))
            assert steer[0] == int(np.argmax(values[0][0]))
            assert ports.shape == (4,)
            q, port = values[1]
            for j in range(4):
                assert (steer[j + 1] * n + ports[j] - 1
                        == _flat_greedy(q[j, 0], port[j, 0], menu))

    def test_features_equal_the_per_agent_reference(self):
        """The per-net action features are byte-equal to the agent-by-agent
        ones (tests/test_env.py checks the observations the same way)."""
        n_ports = default_config().channel.n_ports
        rng = np.random.default_rng(23)
        for _ in range(500):
            steer = rng.integers(0, N_STEER, 5)
            ports = rng.integers(1, n_ports + 1, 4)
            acts = [(s, int(p) if k else None)
                    for k, (s, p) in enumerate(zip(steer, [None, *ports]))]
            net_enc = encode_actions(steer, ports, n_ports)
            team = [(i, j) for i, e in enumerate(net_enc) for j in range(len(e))]
            for k, (i, j) in enumerate(team):
                assert (net_enc[i][j].tobytes()
                        == _ref_encode_action(acts[k], k == 0, n_ports).tobytes())

    @pytest.mark.parametrize("scheme", ["ar_marl", "no_fas", "random"])
    def test_act_matches_the_per_agent_reference(self, scheme):
        """act returns the reference's actions as arrays and leaves the
        generator where the reference leaves it, draw for draw."""
        base = default_config()
        cfg = dataclasses.replace(base, run=dataclasses.replace(base.run,
                                                                scheme=scheme))
        trainer = MarlTrainer(cfg)
        n = cfg.channel.n_ports
        learned = trainer.trains and trainer.nets.local[1].port_head is not None
        rng = np.random.default_rng(41)
        for menu in (np.arange(1, n + 1), np.array(cli.port_menu_for(n, 8))):
            for epsilon in (0.0, 0.3, 1.0):
                for port_eps in (0.0, 0.3, 1.0):
                    for trial in range(20):
                        # generic values, then small integers that tie
                        q, port = ((rng.standard_normal(size) if trial % 2
                                    else rng.integers(0, 3, size).astype(float))
                                   for size in ((5, N_STEER), (4, n)))
                        port = port if learned else None
                        values = [] if not trainer.trains else [
                            (q[:1, None], None),
                            (q[1:, None], None if port is None else port[:, None])]
                        per_agent = [(q[0], None)] + [
                            (q[k], None if port is None else port[k - 1])
                            for k in range(1, 5)]
                        seed = int(rng.integers(2**32))
                        new_rng = np.random.default_rng(seed)
                        ref_rng = np.random.default_rng(seed)
                        steer, ports = trainer.act(values, epsilon, port_eps,
                                                   new_rng, menu)
                        ref = _ref_act(trainer, per_agent, epsilon, port_eps,
                                       ref_rng, menu)
                        assert steer.tolist() == [s for s, _ in ref]
                        assert ports.tolist() == [p for _, p in ref[1:]]
                        assert (new_rng.bit_generator.state
                                == ref_rng.bit_generator.state)


def _ref_encode_action(action, is_active, n_ports):
    """One agent's [-1, 1] action features from its (steer, port) pair
    (port None for the active UAV); zeros for no action."""
    dim = 2 if is_active else 3
    if action is None:
        return np.zeros(dim)
    steer, port = action
    yaw_idx, pitch_idx = divmod(int(steer), N_ANGLE)
    enc = [(yaw_idx - 2) / 2.0, (pitch_idx - 2) / 2.0]
    if not is_active:
        enc.append(2.0 * (port - 1) / max(n_ports - 1, 1) - 1.0)
    return np.array(enc)


class TestLocalQ:
    # nets.local[0] is the active UAV's net (one agent), nets.local[1] the
    # four passive UAVs' nets stacked on a leading agent axis

    def test_zero_parameters_give_flat_q(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        net = trainer.nets.local[1]
        for p in net.params():
            p.value[...] = 0.0
        (q, port), _ = net.step(np.zeros((4, 1, 12)), net.initial_state())
        assert np.all(q == q[..., :1])
        assert np.all(port == 0.0)

    def test_q_vector_lengths(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        (q0, port0), _ = trainer.nets.local[0].step(
            np.zeros((1, 1, 5)), trainer.nets.local[0].initial_state())
        (q1, port1), _ = trainer.nets.local[1].step(
            np.zeros((4, 1, 12)), trainer.nets.local[1].initial_state())
        assert q0.shape == (1, 1, 25) and port0 is None
        assert q1.shape == (4, 1, 25)
        assert port1.shape == (4, 1, cfg.channel.n_ports)
        (q_seq, port_seq), _ = trainer.nets.local[1].forward(np.zeros((4, 3, 12)))
        assert q_seq.shape == (4, 3, 25)
        assert port_seq.shape == (4, 3, cfg.channel.n_ports)

    def test_recurrent_state_changes_output(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        net = trainer.nets.local[1]
        rng = np.random.default_rng(1)
        # output layers start at zero; give them weight so the head reads
        # the trunk at all
        net.angle_head.layers[-1].w.value[...] = rng.standard_normal(
            net.angle_head.layers[-1].w.value.shape) * 0.1
        x = rng.standard_normal((4, 1, 12)) * 0.5
        (q_a, _), _ = net.step(x, np.zeros((4, 1, net.hidden_size)))
        (q_b, _), _ = net.step(x, 0.5 * np.ones((4, 1, net.hidden_size)))
        assert np.all(np.max(np.abs(q_a - q_b), axis=-1) > 1e-9)

    def test_additive_head_structure(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        net = trainer.nets.local[1]
        rng = np.random.default_rng(2)
        for head in (net.angle_head, net.port_head):
            lay = head.layers[-1]
            lay.w.value[...] = rng.standard_normal(lay.w.value.shape) * 0.1
            lay.b.value[...] = rng.standard_normal(lay.b.value.shape) * 0.1
        x = rng.standard_normal((4, 1, 12)) * 0.3
        (q, port), _ = net.step(x, net.initial_state())
        lo, hi = net.aod_slice
        raw = net.port_head.forward(np.cos(math.pi * x[..., lo:hi]))[0]
        for k in range(4):
            # the port head's output enters as a centered advantage
            np.testing.assert_allclose(port[k, 0], raw[k, 0] - raw[k, 0].mean(),
                                       atol=1e-15)
            assert abs(port[k, 0].mean()) < 1e-12
            assert np.std(q[k, 0]) > 0 and np.std(port[k, 0]) > 0

    def test_port_fit_trains_only_the_chosen_port_score(self):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        net = trainer.nets.local[1]
        rng = np.random.default_rng(3)
        lay = net.port_head.layers[-1]
        lay.b.value[...] = rng.standard_normal(lay.b.value.shape) * 0.1
        x = rng.standard_normal((4, 1, 12)) * 0.3    # one-slot sequences
        _, cache = net.forward(x)
        ports, target = np.array([[4], [0], [4], [7]]), -1.5
        dq = np.zeros((4, 1, N_STEER))
        dq[:, 0, 7] = 0.8
        net.zero_grads()
        net.backward(dq, cache, port_fit=(ports, np.full((4, 1), target)))
        port_raw = cache[-1][-1][:, 0, 0]   # (..., (..., raw port scores))
        expected = np.zeros((4, cfg.channel.n_ports))
        for k, port in enumerate(ports[:, 0]):
            expected[k, port] = 2.0 * (port_raw[k, port] - target)
        np.testing.assert_allclose(lay.b.grad, expected, atol=1e-12)
        # dq still reaches every agent's steering and value heads
        assert np.all(net.value_head.b.grad != 0.0)


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

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            select_action(np.zeros(3), 1.5, np.random.default_rng(0))


class TestCoordinator:
    # one history window is a one-window stack: a unit leading axis

    def test_identical_rows_reduce_to_mean_row_projection(self):
        cfg = MarlConfig(attn_units=1, attn_width=4, embed_width=6,
                        mlp_hidden=8, omega_width=3)
        rng = np.random.default_rng(3)
        coord = Coordinator(7, cfg, rng)
        row = rng.standard_normal(7) * 0.5
        rows = np.tile(row, (1, 5, 1))
        mask = np.ones((1, 5), dtype=bool)
        omega, _ = coord.forward(rows, mask)
        omega = omega[0]
        # uniform attention over identical rows = value projection of the row
        embed = coord.row_embed
        e = np.maximum(row @ embed.w.value[0] + embed.b.value[0], 0.0)
        v = e @ coord.heads.wv.params[0].value
        expected, _ = coord.out_mlp.forward(v[None, None])   # one agent, one row
        np.testing.assert_allclose(omega, expected[0, 0], atol=1e-10)

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
        rows = np.tile(row, (1, 4, 1))
        mask = np.ones((1, 4), dtype=bool)
        omega_a, _ = coord.forward(rows, mask)
        omega_b, _ = coord.forward(np.tile(swapped, (1, 4, 1)), mask)
        np.testing.assert_array_equal(omega_a, omega_b)

    def test_output_width_independent_of_window_fill(self):
        cfg = MarlConfig(attn_units=2, attn_width=4, embed_width=6,
                        mlp_hidden=8, omega_width=5, history_window=6)
        rng = np.random.default_rng(6)
        coord = Coordinator(9, cfg, rng)
        rows = rng.standard_normal((1, 6, 9))
        for valid in (1, 3, 6):
            mask = np.zeros((1, 6), dtype=bool)
            mask[0, -valid:] = True
            omega, _ = coord.forward(rows, mask)
            assert omega[0].shape == (5,)

    def test_empty_window_rejected(self):
        cfg = MarlConfig(attn_units=1, attn_width=2, embed_width=4,
                        mlp_hidden=4, omega_width=2)
        coord = Coordinator(5, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            coord.forward(np.zeros((1, 3, 5)), np.zeros((1, 3), dtype=bool))


class TestMixer:
    # one slot is a one-slot sequence: a unit leading axis on the local
    # Q-values, the context and the output

    def _omega(self, width=32):
        return np.random.default_rng(9).standard_normal((1, width)) * 0.3

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
        qs = np.array([[-3.0, -1.5, 0.2, -0.7, -2.2]])
        out, _ = mixer.forward(qs, self._omega())
        assert out[0] == pytest.approx(qs.sum(), rel=1e-12)

    def test_sum_mode_matches_identity_construction(self):
        cfg = MarlConfig()
        plain = Mixer(5, cfg, np.random.default_rng(11), mode="sum")
        qs = np.array([[-5.0, -1.0, -0.5, -2.0, -3.3]])
        out, _ = plain.forward(qs, np.zeros((1, cfg.omega_width)))
        assert out[0] == pytest.approx(qs.sum())

    def test_monotone_in_every_local_q(self):
        cfg = MarlConfig()
        rng = np.random.default_rng(12)
        mixer = Mixer(5, cfg, rng)
        omega = self._omega()
        qs = rng.standard_normal((1, 5)) * 2.0 - 3.0
        base, _ = mixer.forward(qs, omega)
        for k in range(5):
            for bump in (0.1, 1.0, 10.0):
                qs2 = qs.copy()
                qs2[0, k] += bump
                out, _ = mixer.forward(qs2, omega)
                assert out[0] >= base[0] - 1e-12

    def test_backward_matches_finite_differences(self):
        from fasloc.nn import finite_diff_check
        cfg = MarlConfig(mixing_hidden=6, omega_width=5)
        rng = np.random.default_rng(13)
        mixer = Mixer(5, cfg, rng)
        omega = rng.standard_normal((1, 5)) * 0.5
        qs = rng.standard_normal((1, 5)) - 2.0

        def loss():
            return mixer.forward(qs, omega)[0][0]

        mixer.zero_grads()
        out, cache = mixer.forward(qs, omega)
        mixer.backward(np.ones(1), cache)
        assert finite_diff_check(loss, mixer.params(), eps=1e-6) < 1e-5


def _feasible(late, range_ok):
    """PositioningEnv.step's rule: no report late, both ranges held."""
    return not np.any(late) and all(range_ok)


def _slot_records(late, range_ok, errors):
    """An episode record of the given slot outcomes; every action is hold
    course on port 1."""
    T = len(late)
    return EpisodeData(
        observations=[], steer=np.full((T, 5), 12), ports=np.ones((T, 4), int),
        errors=np.asarray(errors, float), stales=np.zeros(T, bool),
        feasible=np.array([_feasible(*slot) for slot in zip(late, range_ok)]),
        late=np.asarray(late, bool), range_ok=np.asarray(range_ok, bool))


def _ref_slot_reward(feasible, error):
    """One slot's shared reward, unscaled: the negated error when the slot
    is feasible, -PENALTY_CLIP otherwise, and never below -PENALTY_CLIP."""
    return max(-error if feasible else -marl.PENALTY_CLIP, -marl.PENALTY_CLIP)


def _slot_reward(error, outcome):
    """slot_rewards of a one-slot record with the given error and
    (late, range_ok) outcome."""
    late, range_ok = outcome
    return slot_rewards(_slot_records([late], [range_ok], [error]))[0]


class TestPortCredit:
    # a 7 m error trains as -0.07 when feasible, the penalty as -2.0

    def _credit(self, late, range_ok):
        episode = _slot_records([late], [range_ok], [7.0])
        return marl.difference_credit(episode)[0]

    def test_sole_late_agent_gets_the_penalty_margin(self):
        credit = self._credit([False, True, False, False], (True, True))
        np.testing.assert_allclose(credit, [0.0, -1.93, 0.0, 0.0])

    def test_no_credit_when_several_are_late(self):
        credit = self._credit([True, True, False, False], (True, True))
        np.testing.assert_array_equal(credit, np.zeros(4))

    def test_no_credit_when_another_constraint_fails(self):
        credit = self._credit([False, False, True, False], (False, True))
        np.testing.assert_array_equal(credit, np.zeros(4))

    def test_no_credit_in_a_feasible_slot(self):
        credit = self._credit(*FEASIBLE)
        np.testing.assert_array_equal(credit, np.zeros(4))

    def test_equals_the_per_slot_reference(self):
        rng = np.random.default_rng(29)
        T = 2000
        late = rng.random((T, 4)) < 0.2
        range_ok = rng.random((T, 2)) < 0.9
        errors = rng.exponential(8.0, T)
        episode = _slot_records(late, range_ok, errors)
        credit = marl.difference_credit(episode)
        assert np.count_nonzero(credit) > 100
        for t in range(T):
            train = (_ref_slot_reward(_feasible(late[t], range_ok[t]),
                                      errors[t]) / marl.REWARD_SCALE)
            ref = _ref_slot_port_credit(late[t], range_ok[t], train,
                                        -errors[t] / marl.REWARD_SCALE)
            assert credit[t].tobytes() == ref.tobytes()


class TestRewardAndLoss:
    def test_perfect_feasible_estimate(self):
        error = positioning.position_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert _slot_reward(error, FEASIBLE) == 0.0

    def test_violation_gives_exact_penalty(self):
        assert marl.PENALTY_CLIP == 200.0
        assert _slot_reward(500.0, VIOLATED) == -200.0
        # the penalty does not depend on the error
        assert _slot_reward(3.0, VIOLATED) == -200.0

    def test_five_meter_error(self):
        error = positioning.position_error([3.0, 4.0, 0.0], [0.0, 0.0, 0.0])
        assert _slot_reward(error, FEASIBLE) == pytest.approx(-5.0)

    def test_reward_never_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            est, tru = rng.uniform(-100, 100, (2, 3))
            error = positioning.position_error(est, tru)
            assert _slot_reward(error, FEASIBLE) <= 0.0

    def test_feasible_reward_is_the_negated_error(self):
        rng = np.random.default_rng(4)
        for error in rng.uniform(0.0, 100.0, 50):
            assert _slot_reward(float(error), FEASIBLE) == -float(error)
            assert _slot_reward(float(error), VIOLATED) == -marl.PENALTY_CLIP
        # an error past PENALTY_CLIP is floored at the penalty
        assert _slot_reward(250.0, FEASIBLE) == -marl.PENALTY_CLIP
        # the whole record at once equals the per-slot reference bit for bit
        errors = rng.uniform(0.0, 400.0, 200)
        outcomes = [FEASIBLE if ok else VIOLATED for ok in rng.random(200) < 0.6]
        late, range_ok = zip(*outcomes)
        rewards = slot_rewards(_slot_records(late, range_ok, errors))
        ref = np.array([_ref_slot_reward(_feasible(*o), e)
                        for o, e in zip(outcomes, errors)])
        assert rewards.tobytes() == ref.tobytes()

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
        episode, = trainer.rollout([env], 0.5)
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
        trainer.updates = marl.TARGET_SYNC - 1
        env = PositioningEnv(cfg, trainer.env_rng)
        episode, = trainer.rollout([env], 0.5)
        trainer.train_on_episode(episode)
        for live, tgt in zip(trainer.nets.params(), trainer.target_nets.params()):
            np.testing.assert_array_equal(live.value, tgt.value)

    def test_training_is_deterministic(self):
        logs = []
        for _ in range(2):
            cfg = tiny_config(epochs=4, seed=3)
            logs.append(MarlTrainer(cfg).run().to_jsonl())
        assert logs[0] == logs[1]

    def test_schemes_all_run(self):
        for scheme in ("ar_marl", "vd_marl", "no_fas", "no_rnn",
                       "no_transformer", "random"):
            cfg = tiny_config(epochs=2, scheme=scheme)
            log = MarlTrainer(cfg).run()
            assert len(log.records) == 2
            assert log.scheme == scheme

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheme 'nonsense'"):
            tiny_config(scheme="nonsense")

    def test_random_port_assignment_is_uniform(self):
        cfg = dataclasses.replace(tiny_config(scheme="no_fas"))
        trainer = MarlTrainer(cfg)
        n = cfg.channel.n_ports
        ports = np.arange(1, n + 1)
        values = [(np.zeros((1, 1, 25)), None), (np.zeros((4, 1, 25)), None)]
        draws = np.array([
            trainer.act(values, 0.0, 0.0, trainer.policy_rng, ports)[1]
            for _ in range(25_000)]).ravel()
        counts = np.bincount(draws, minlength=n + 1)[1:]
        np.testing.assert_allclose(counts / len(draws), 1.0 / n, atol=0.01)

    def test_vd_marl_mixes_by_plain_sum(self):
        cfg = tiny_config(scheme="vd_marl")
        trainer = MarlTrainer(cfg)
        assert trainer.nets.mixer.mode == "sum"
        qs = np.array([[-1.0, -2.0, -3.0, -4.0, -5.0]])    # one slot
        out, _ = trainer.nets.mixer.forward(qs, np.zeros((1, cfg.marl.omega_width)))
        assert out[0] == pytest.approx(-15.0)

    def test_zero_epsilon_rollout_is_greedy_in_every_factor(self, monkeypatch):
        cfg = default_config()
        trainer = MarlTrainer(cfg)
        rng = np.random.default_rng(5)
        for net in trainer.nets.local[1:]:
            for p in net.port_head.layers[-1].params():
                p.value += rng.standard_normal(p.value.shape)
        sent = []
        step = PositioningEnv.step

        def recording_step(env, steer, ports):
            sent.append((steer, ports))
            return step(env, steer, ports)

        monkeypatch.setattr(PositioningEnv, "step", recording_step)
        env = PositioningEnv(cfg, trainer.env_rng)
        episode, = trainer.rollout([env], 0.0)
        # one (T, 25) steering and (T, n_ports) port block per agent
        live = [(q_k, None if port is None else port[j])
                for (q, port), _ in trainer._replay(trainer.nets, episode)
                for j, q_k in enumerate(q)]
        n = cfg.channel.n_ports
        greedy_ports = set()
        for t in range(len(episode)):
            steer, ports = sent[t]
            np.testing.assert_array_equal(steer, episode.steer[t])
            np.testing.assert_array_equal(ports, episode.ports[t])
            for k, (q, port) in enumerate(live):
                if k == 0:
                    assert steer[0] == int(np.argmax(q[t]))
                    continue
                assert (steer[k] * n + ports[k - 1] - 1
                        == int(np.argmax(np.add.outer(q[t], port[t]))))
                greedy_ports.add(int(ports[k - 1]))
        assert len(greedy_ports) > 1   # the perturbed heads disagree

    @pytest.mark.parametrize("scheme", ["ar_marl", "no_fas", "random"])
    def test_evaluation_sends_only_menu_ports(self, scheme, monkeypatch):
        base = default_config()
        cfg = dataclasses.replace(
            base, world=dataclasses.replace(base.world, slots_per_episode=4),
            run=dataclasses.replace(base.run, scheme=scheme))
        trainer = MarlTrainer(cfg)
        if trainer.trains and trainer.nets.local[1].port_head is not None:
            # spread the greedy ports beyond port 1
            rng = np.random.default_rng(8)
            for net in trainer.nets.local[1:]:
                for p in net.port_head.layers[-1].params():
                    p.value += rng.standard_normal(p.value.shape)
        menu = cli.port_menu_for(32, 8)
        sent = []
        step = PositioningEnv.step

        def recording_step(env, steer, ports):
            sent.extend(ports.tolist())
            return step(env, steer, ports)

        monkeypatch.setattr(PositioningEnv, "step", recording_step)
        marl.evaluate_rollouts(cfg, trainer, 3, seed=2, port_menu=menu)
        assert len(sent) == 3 * 4 * 4
        assert set(sent) <= set(menu)
        assert len(set(sent)) > 1

    @pytest.mark.parametrize("scheme", ["ar_marl", "random"])
    def test_evaluation_derives_no_training_signal(self, scheme, monkeypatch):
        def learner_only(*args, **kwargs):
            raise AssertionError("evaluation derived a training signal")

        monkeypatch.setattr(marl, "training_rewards", learner_only)
        monkeypatch.setattr(marl, "difference_credit", learner_only)
        monkeypatch.setattr(MarlTrainer, "_agent_inputs", learner_only)
        cfg = tiny_config(scheme=scheme)
        stats = marl.evaluate_rollouts(cfg, MarlTrainer(cfg), 2, seed=0)
        assert stats["episodes"] == 2 and math.isfinite(stats["mean_error"])

    @pytest.mark.parametrize("scheme", ["ar_marl", "random"])
    def test_logged_mean_reward_is_the_reward_training_uses(self, scheme,
                                                            monkeypatch):
        """Each epoch's mean_reward and greedy evaluation's mean_reward
        average the per-slot reward the learner trains on, unscaled: it
        lies in [-PENALTY_CLIP, 0] even with infeasible slots played."""
        cfg = tiny_config(scheme=scheme, epochs=4)
        played = []
        rollout = MarlTrainer.rollout

        def recording(trainer, *args, **kwargs):
            episodes = rollout(trainer, *args, **kwargs)
            played.extend(episodes)
            return episodes

        def expected(episodes):
            return float(np.mean([_ref_slot_reward(f, e) for ep in episodes
                                  for f, e in zip(ep.feasible, ep.errors)]))

        monkeypatch.setattr(MarlTrainer, "rollout", recording)
        trainer = MarlTrainer(cfg)
        log = trainer.run()
        training = list(played)
        played.clear()
        stats = marl.evaluate_rollouts(cfg, trainer, 3, seed=0)
        # one episode per epoch
        logged = [(r.mean_reward, [ep]) for r, ep in zip(log.records, training)]
        for mean_reward, episodes in logged + [(stats["mean_reward"], played)]:
            assert -marl.PENALTY_CLIP <= mean_reward <= 0.0
            assert mean_reward == pytest.approx(expected(episodes))
        assert not all(f for ep in training + played for f in ep.feasible)

    def test_negative_evaluation_seed_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="evaluation seed must be "
                                             "non-negative, got -1"):
            marl.evaluate_rollouts(cfg, MarlTrainer(cfg), 1, seed=-1)

    @pytest.mark.parametrize("scheme", ["ar_marl", "random", "no_fas"])
    # off the grid, empty, fractional (which an int cast would truncate)
    @pytest.mark.parametrize("menu", [[0, 5], [5, 33], [], [1.5, 2.7]])
    def test_menu_port_off_the_grid_rejected(self, scheme, menu):
        cfg = tiny_config(scheme=scheme)
        with pytest.raises(ValueError, match=re.escape(f"port menu {menu}")):
            marl.evaluate_rollouts(cfg, MarlTrainer(cfg), 1, seed=0,
                                   port_menu=menu)


class TestEndToEndGradient:
    # acceptance criterion 3 bounds micro_gradcheck(micro_config()) itself
    def test_doubled_port_fit_gradient_is_caught(self, monkeypatch):
        backward = LocalQNet.backward

        def doubled(net, dq, cache, port_fit=None):
            heads = net.port_head.params() if net.port_head is not None else []
            before = [p.grad.copy() for p in heads]
            backward(net, dq, cache, port_fit=port_fit)
            if port_fit is not None:
                for p, old in zip(heads, before):
                    p.grad += p.grad - old

        monkeypatch.setattr(LocalQNet, "backward", doubled)
        assert micro_gradcheck(micro_config()) > 1e-4


class TestEnvironment:
    """The learner's view of PositioningEnv's outcomes; tests/test_env.py
    tests the environment itself."""

    def test_rewards_match_reported_errors_when_feasible(self):
        """The env reports outcomes only; the learner scores each slot as
        the negated reported error when feasible, the penalty otherwise."""
        cfg = tiny_config()
        env = PositioningEnv(cfg, np.random.default_rng(1))
        env.reset()
        rng = np.random.default_rng(2)
        infos = []
        for _ in range(20):
            _, info = env.step(rng.integers(N_STEER, size=5),
                               rng.integers(1, 4, size=4))
            assert info.keys() == {"error", "stale", "feasible", "late",
                                   "range_ok"}
            infos.append(info)
        episode = _slot_records([i["late"] for i in infos],
                                [i["range_ok"] for i in infos],
                                [i["error"] for i in infos])
        np.testing.assert_array_equal(episode.feasible,
                                      [i["feasible"] for i in infos])
        rewards = slot_rewards(episode)
        assert {i["feasible"] for i in infos} == {True, False}
        for r, info in zip(rewards, infos):
            if info["feasible"]:
                assert r == pytest.approx(-info["error"])
            else:
                assert r == -marl.PENALTY_CLIP



def test_the_learner_does_not_import_the_physics():
    """marl reaches the scenario only through env."""
    physics = {id(m) for m in (channel, positioning, world)}
    assert not physics & {id(value) for value in vars(marl).values()}


class TestTrainingLog:
    def test_jsonl_roundtrip(self):
        log = TrainingLog("ar_marl", 7)
        log.records = [EpochRecord(0, 5.0, -9.0, 1.25, 3, 1.0),
                       EpochRecord(1, 4.0, -7.0, 1.0, 2, 0.9)]
        text = log.to_jsonl()
        assert text.endswith("\n")
        head, *rows = [json.loads(line) for line in text.splitlines()]
        assert head == {"scheme": "ar_marl", "seed": 7}
        assert [EpochRecord(**row) for row in rows] == log.records


# ---------------------------------------------------------------------------
# per-slot reference learner
#
# The learner as it ran before it was batched over time and agents: one
# forward and one backward call per slot and agent, one coordinator call
# per history window, one mixer call per slot, with each slot's training
# reward, port credit, net inputs and history row built from the recorded
# episode slot by slot and agent by agent.  Each agent's arithmetic reads
# and accumulates into that agent's own Param views (agent k of a stacked
# block), the objects the checkpoint and the update see, and the batched
# path must match it bit for bit.


def _ref_slot_port_credit(late, range_ok, train_reward, feasible_reward):
    """Per passive UAV, the credit for its port choice in one slot: the
    training reward minus the reward at the realised fix when its report is
    the only late one and both range constraints hold, else 0."""
    late = np.asarray(late, dtype=bool)
    target_range_ok, pairwise_range_ok = range_ok
    credit = np.zeros(len(late))
    if late.sum() == 1 and target_range_ok and pairwise_range_ok:
        credit[late] = train_reward - feasible_reward
    return credit


def _ref_train_reward(episode, t):
    return (_ref_slot_reward(episode.feasible[t], episode.errors[t])
            / marl.REWARD_SCALE)


def _ref_action(episode, t, k):
    """Agent k's action (steer, port) at slot t, port None for the active
    UAV, or None before the first slot."""
    if t < 0:
        return None
    return (int(episode.steer[t, k]),
            int(episode.ports[t, k - 1]) if k else None)


def _ref_observation_of(episode, t, k):
    """Agent k's recorded observation at slot t."""
    return [obs[j, t] for obs in episode.observations for j in range(len(obs))][k]


def _ref_net_input(trainer, episode, t, k):
    """Agent k's observation at slot t and its action of the slot before."""
    return np.concatenate([_ref_observation_of(episode, t, k),
                           _ref_encode_action(_ref_action(episode, t - 1, k),
                                              k == 0, trainer.n_ports)])


def _ref_window_row(trainer, episode, t):
    """The joint history row of slot t: each agent's observation and the
    action taken on it, in team order."""
    return np.concatenate([part for k in range(5) for part in (
        _ref_observation_of(episode, t, k),
        _ref_encode_action(_ref_action(episode, t, k), k == 0, trainer.n_ports))])


def _ref_linear(layer, x, k=0):
    return x @ layer.w.params[k].value + layer.b.params[k].value


def _ref_linear_back(layer, dy, x, k=0):
    w, b = layer.w.params[k], layer.b.params[k]
    if x.ndim == 1:
        w.grad += np.outer(x, dy)
        b.grad += dy
    else:
        w.grad += x.T @ dy
        b.grad += dy.sum(axis=0)
    return dy @ w.value.T


def _ref_mlp(mlp, x, k=0):
    caches, h = [], x
    for i, layer in enumerate(mlp.layers):
        c, h = h, _ref_linear(layer, h, k)
        act_mask = None
        if i + 1 < len(mlp.layers):
            act_mask = h > 0.0
            h = np.maximum(h, 0.0)
        caches.append((c, act_mask))
    return h, caches


def _ref_mlp_back(mlp, dy, caches, k=0):
    for i in reversed(range(len(mlp.layers))):
        c, act_mask = caches[i]
        if act_mask is not None:
            dy = dy * act_mask
        dy = _ref_linear_back(mlp.layers[i], dy, c, k)
    return dy


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru_params(g, k):
    """Agent k's (wz, uz, bz, wr, ur, br, wh, uh, bh) Params."""
    return [s.params[k] for s in g.stacks()]


def _ref_gru(g, x, h, k):
    wz, uz, bz, wr, ur, br, wh, uh, bh = _gru_params(g, k)
    z = _sigmoid(x @ wz.value + h @ uz.value + bz.value)
    r = _sigmoid(x @ wr.value + h @ ur.value + br.value)
    rh = r * h
    c = np.tanh(x @ wh.value + rh @ uh.value + bh.value)
    return (1.0 - z) * h + z * c, (x, h, z, r, rh, c)


def _ref_gru_back(g, dh_new, cache, k):
    wz, uz, bz, wr, ur, br, wh, uh, bh = _gru_params(g, k)
    x, h, z, r, rh, c = cache
    dz = dh_new * (c - h)
    dc = dh_new * z
    dh = dh_new * (1.0 - z)
    dac = dc * (1.0 - c * c)
    wh.grad += np.outer(x, dac)
    bh.grad += dac
    drh = dac @ uh.value.T
    uh.grad += np.outer(rh, dac)
    dr = drh * h
    dh += drh * r
    dx = dac @ wh.value.T
    dar = dr * r * (1.0 - r)
    wr.grad += np.outer(x, dar)
    ur.grad += np.outer(h, dar)
    br.grad += dar
    dx += dar @ wr.value.T
    dh += dar @ ur.value.T
    daz = dz * z * (1.0 - z)
    wz.grad += np.outer(x, daz)
    uz.grad += np.outer(h, daz)
    bz.grad += daz
    dx += daz @ wz.value.T
    dh += daz @ uz.value.T
    return dx, dh


def _ref_attention(heads, window, mask, i):
    """Head i of the stacked attention block on one window."""
    wq, wk, wv = (w.params[i] for w in heads.stacks())
    q = window @ wq.value
    k = window @ wk.value
    v = window @ wv.value
    scores = q @ k.T / math.sqrt(heads.n_att)
    scores = np.where(mask[None, :], scores, -1e30)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    return probs @ v, (window, q, k, v, probs)


def _ref_attention_back(heads, dout, cache, i):
    wq, wk, wv = (w.params[i] for w in heads.stacks())
    window, q, k, v, probs = cache
    dprobs = dout @ v.T
    dv = probs.T @ dout
    dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    scale = 1.0 / math.sqrt(heads.n_att)
    dq = dscores @ k * scale
    dk = dscores.T @ q * scale
    wq.grad += window.T @ dq
    wk.grad += window.T @ dk
    wv.grad += window.T @ dv
    return dq @ wq.value.T + dk @ wk.value.T + dv @ wv.value.T


def _ref_local(net, x, h, k):
    e_pre = _ref_linear(net.embed, x, k)
    mask = e_pre > 0.0
    e = np.maximum(e_pre, 0.0)
    if net.gru is not None:
        h_new, c_gru = _ref_gru(net.gru, e, h, k)
        trunk = h_new
    else:
        h_new, c_gru = h, None
        trunk = e
    value = _ref_linear(net.value_head, trunk, k)
    adv_angle, c_angle = _ref_mlp(net.angle_head, trunk, k)
    adv_angle = adv_angle - adv_angle.mean()
    q_angle = value[0] + adv_angle
    if net.port_head is not None:
        lo, hi = net.aod_slice
        port_raw, c_port = _ref_mlp(net.port_head, np.cos(math.pi * x[lo:hi]), k)
        q = np.add.outer(q_angle, port_raw - port_raw.mean()).ravel()
    else:
        port_raw, c_port = None, None
        q = q_angle
    return q, h_new, (x, mask, c_gru, trunk, c_angle, (c_port, port_raw))


def _ref_local_back(net, dq, dh_next, cache, port_fit, k):
    x, mask, c_gru, trunk, c_angle, (c_port, port_raw) = cache
    if net.port_head is not None:
        dq_grid = dq.reshape(N_STEER, len(port_raw))
        dangle = dq_grid.sum(axis=1)
        port, target = port_fit
        dport = np.zeros(len(port_raw))
        dport[port] = 2.0 * (port_raw[port] - target)
        _ref_mlp_back(net.port_head, dport, c_port, k)
    else:
        dangle = dq
    dvalue = dangle.sum()
    dangle = dangle - dangle.mean()
    dhid = _ref_mlp_back(net.angle_head, dangle, c_angle, k)
    dhid = dhid + _ref_linear_back(net.value_head, np.array([dvalue]), trunk, k)
    if net.gru is not None:
        de, dh_prev = _ref_gru_back(net.gru, dhid + dh_next, c_gru, k)
    else:
        de, dh_prev = dhid, np.zeros_like(dh_next)
    _ref_linear_back(net.embed, de * mask, x, k)
    return dh_prev


def _ref_coordinator(coord, rows, mask):
    e_pre = _ref_linear(coord.row_embed, rows)
    act_mask = e_pre > 0.0
    e = np.maximum(e_pre, 0.0)
    pooled, unit_caches = [], []
    n_valid = int(mask.sum())
    for i in range(len(coord.heads.wq.params)):
        out, c = _ref_attention(coord.heads, e, mask, i)
        pooled.append(out[mask].sum(axis=0) / n_valid)
        unit_caches.append(c)
    concat = np.concatenate(pooled)
    omega, c_out = _ref_mlp(coord.out_mlp, concat)
    return omega, (rows, act_mask, mask, n_valid, unit_caches, c_out,
                   pooled[0].shape[0])


def _ref_coordinator_back(coord, domega, cache):
    rows, act_mask, mask, n_valid, unit_caches, c_out, width = cache
    dconcat = _ref_mlp_back(coord.out_mlp, domega, c_out)
    de = np.zeros((rows.shape[0], act_mask.shape[1]))
    for i, c in enumerate(unit_caches):
        dout_rows = np.zeros((rows.shape[0], width))
        dout_rows[mask] = dconcat[i * width:(i + 1) * width] / n_valid
        de += _ref_attention_back(coord.heads, dout_rows, c, i)
    _ref_linear_back(coord.row_embed, de * act_mask, rows)


def _ref_mixer(mixer, q_locals, omega):
    if mixer.mode == "sum":
        return float(q_locals.sum()), None
    w1_raw = _ref_linear(mixer.h_w1, omega).reshape(mixer.n_agents, mixer.hidden)
    b1 = _ref_linear(mixer.h_b1, omega)
    w2_raw = _ref_linear(mixer.h_w2, omega)
    b2 = _ref_linear(mixer.h_b2, omega)
    w1, w2 = np.abs(w1_raw), np.abs(w2_raw)
    pre = q_locals @ w1 + b1
    hid = np.where(pre > 0.0, pre, marl.MIX_LEAK * pre)
    return float(hid @ w2 + b2[0]), (q_locals, w1_raw, w1, pre, hid,
                                      w2_raw, w2, omega)


def _ref_mixer_back(mixer, dout, cache):
    if cache is None:
        return np.full(mixer.n_agents, dout), None
    q_locals, w1_raw, w1, pre, hid, w2_raw, w2, omega = cache
    dhid = dout * w2
    dw2 = dout * hid
    dpre = dhid * np.where(pre > 0.0, 1.0, marl.MIX_LEAK)
    dq = w1 @ dpre
    dw1 = np.outer(q_locals, dpre) * np.sign(w1_raw)
    dw2 = dw2 * np.sign(w2_raw)
    domega = _ref_linear_back(mixer.h_w1, dw1.reshape(-1), omega)
    domega = domega + _ref_linear_back(mixer.h_b1, dpre, omega)
    domega = domega + _ref_linear_back(mixer.h_w2, dw2, omega)
    domega = domega + _ref_linear_back(mixer.h_b2, np.array([dout]), omega)
    return dq, domega


def _ref_window(trainer, episode, t):
    t_h = trainer.cfg.marl.history_window
    rows = np.zeros((t_h, trainer.nets.row_dim))
    mask = np.zeros(t_h, dtype=bool)
    chunk = np.array([_ref_window_row(trainer, episode, s)
                      for s in range(max(0, t + 1 - t_h), t + 1)])
    rows[t_h - len(chunk):] = chunk
    mask[t_h - len(chunk):] = True
    return rows, mask


def _team(nets):
    """Per team agent (0 active, 1-4 passive): its local net and its index
    on that net's agent axis."""
    return [(net, j) for net in nets.local for j in range(net.n_agents)]


def _ref_replay(trainer, nets, episode):
    team = _team(nets)
    hidden = [np.zeros(max(net.hidden_size, 1)) for net, _ in team]
    qs, caches = [], []
    for t in range(len(episode)):
        q_row, c_row = [], []
        for k, (net, j) in enumerate(team):
            q, hidden[k], cache = _ref_local(
                net, _ref_net_input(trainer, episode, t, k), hidden[k], j)
            q_row.append(q)
            c_row.append(cache)
        qs.append(q_row)
        caches.append(c_row)
    return qs, caches


def _ref_mix(trainer, nets, q_chosen, episode, t):
    if nets.coordinator is not None:
        omega, c_coord = _ref_coordinator(nets.coordinator,
                                          *_ref_window(trainer, episode, t))
    else:
        omega, c_coord = np.zeros(nets.omega_width), None
    q_total, c_mix = _ref_mixer(nets.mixer, q_chosen, omega)
    return q_total, (c_coord, c_mix)


def _ref_td_targets(trainer, episode):
    tnets = trainer.target_nets
    qs, _ = _ref_replay(trainer, tnets, episode)
    greedy = np.array([[float(np.max(q)) for q in row] for row in qs])
    boot = np.zeros(len(episode))
    for t in range(len(episode)):
        boot[t], _ = _ref_mix(trainer, tnets, greedy[t], episode, t)
    rewards = np.array([_ref_train_reward(episode, t)
                        for t in range(len(episode))])
    return build_td_targets(rewards, boot[1:], marl.DISCOUNT)


def _ref_port_fit(trainer, episode, t, k):
    if _team(trainer.nets)[k][0].port_head is None:
        return None
    credit = _ref_slot_port_credit(
        episode.late[t], episode.range_ok[t], _ref_train_reward(episode, t),
        -episode.errors[t] / marl.REWARD_SCALE)
    return _ref_action(episode, t, k)[1] - 1, credit[k - 1]


def _ref_action_id(trainer, episode, t, k):
    """The flat id of agent k's action at slot t in the reference's Q-vector:
    steer * n_ports + port - 1 with a port head, steer without."""
    steer, port = _ref_action(episode, t, k)
    if _team(trainer.nets)[k][0].port_head is None:
        return steer
    return steer * trainer.n_ports + port - 1


def _ref_episode_loss(trainer, episode, targets):
    nets = trainer.nets
    T = len(episode)
    qs, caches = _ref_replay(trainer, nets, episode)
    q_chosen = np.array([[qs[t][k][_ref_action_id(trainer, episode, t, k)]
                          for k in range(5)] for t in range(T)])
    q_mix = np.zeros(T)
    mix_caches = []
    for t in range(T):
        q_mix[t], cache = _ref_mix(trainer, nets, q_chosen[t], episode, t)
        mix_caches.append(cache)
    td_loss, weights = weighted_td_loss(q_mix, targets, marl.DELTA)
    port_loss = 0.0
    for t in range(T):
        for k in range(5):
            fit = _ref_port_fit(trainer, episode, t, k)
            if fit is not None:
                port_raw = caches[t][k][5][1]
                port_loss += float((port_raw[fit[0]] - fit[1]) ** 2)
    dq_mix = 2.0 * weights * (q_mix - targets)
    dq = np.zeros((T, 5))
    for t in range(T):
        c_coord, c_mix = mix_caches[t]
        dq[t], domega = _ref_mixer_back(nets.mixer, dq_mix[t], c_mix)
        if nets.coordinator is not None:
            _ref_coordinator_back(nets.coordinator, domega, c_coord)
    for k, (net, j) in enumerate(_team(nets)):
        dh = np.zeros(max(net.hidden_size, 1))
        for t in reversed(range(T)):
            dq_vec = np.zeros(len(qs[t][k]))
            dq_vec[_ref_action_id(trainer, episode, t, k)] = dq[t, k]
            dh = _ref_local_back(net, dq_vec, dh, caches[t][k],
                                 _ref_port_fit(trainer, episode, t, k), j)
    return td_loss, port_loss, weights, qs


TRAINABLE = ("ar_marl", "vd_marl", "no_fas", "no_rnn", "no_transformer")
SHAPES = {"T25": {}, "T1": {"slots": 1},
          "window_past_T": {"slots": 5, "history_window": 9}}


def _perturbed_trainer(scheme, slots=None, history_window=None):
    """A trainer whose live and target nets differ and whose zero-started
    output layers are not zero, so that every gradient path carries a
    signal."""
    base = default_config()
    world, mcfg = base.world, base.marl
    if slots is not None:
        world = dataclasses.replace(world, slots_per_episode=slots)
    if history_window is not None:
        mcfg = dataclasses.replace(mcfg, history_window=history_window)
    cfg = dataclasses.replace(base, world=world, marl=mcfg, run=dataclasses.replace(
        base.run, scheme=scheme, seed=4))
    trainer = MarlTrainer(cfg)
    rng = np.random.default_rng(17)
    for nets in (trainer.nets, trainer.target_nets):
        for p in nets.params():
            p.value += 0.05 * rng.standard_normal(p.value.shape)
    return trainer


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("scheme", TRAINABLE)
def test_sequence_learner_matches_per_slot_reference(scheme, shape):
    trainer = _perturbed_trainer(scheme, **SHAPES[shape])
    env = PositioningEnv(trainer.cfg, trainer.env_rng)
    episode, = trainer.rollout([env], 0.5)

    ref_targets = _ref_td_targets(trainer, episode)
    trainer.nets.zero_grads()
    ref_td, ref_port, ref_weights, ref_q = _ref_episode_loss(
        trainer, episode, ref_targets)
    ref_grads = [p.grad.copy() for p in trainer.nets.params()]

    targets = trainer.td_targets(episode)
    trainer.nets.zero_grads()
    td, port, weights = trainer.episode_loss(episode, targets)

    assert np.array_equal(targets, ref_targets)
    assert td == ref_td and port == ref_port
    assert np.array_equal(weights, ref_weights)
    for p, ref in zip(trainer.nets.params(), ref_grads):
        assert p.grad.tobytes() == ref.tobytes(), p.name
    assert any(np.any(g) for g in ref_grads)
    # the flat outer sum of the factored values is the reference's Q-vector
    seq_q = [q_k if port is None else
             (q_k[:, :, None] + port[j][:, None, :]).reshape(len(q_k), -1)
             for (q, port), _ in trainer._replay(trainer.nets, episode)
             for j, q_k in enumerate(q)]
    assert len(seq_q) == 5
    for k, q in enumerate(seq_q):
        assert np.array_equal(q, np.array([row[k] for row in ref_q]))


@pytest.mark.parametrize("scheme", ["ar_marl", "no_fas", "no_rnn"])
def test_acting_q_equals_sequence_q(scheme, monkeypatch):
    trainer = _perturbed_trainer(scheme)
    acted = []
    step = LocalQNet.step

    def recording_step(net, x, h):
        values, h = step(net, x, h)
        acted.append(values)
        return values, h

    monkeypatch.setattr(LocalQNet, "step", recording_step)
    episode, = trainer.rollout([PositioningEnv(trainer.cfg, trainer.env_rng)],
                               0.5)
    replay = trainer._replay(trainer.nets, episode)
    # one acting call per local net and slot, for all of the net's agents
    assert len(acted) == len(episode) * len(replay)
    for i, (q, port) in enumerate(acted):
        t, k = divmod(i, len(replay))
        (q_seq, port_seq), _ = replay[k]
        assert np.array_equal(q[:, 0], q_seq[:, t])
        assert (port is None) == (port_seq is None)
        if port is not None:
            assert np.array_equal(port[:, 0], port_seq[:, t])


def _episode_bytes(episode):
    """Every array of an EpisodeData, as (dtype, shape, bytes)."""
    arrays = list(episode.observations) + [
        getattr(episode, f.name) for f in dataclasses.fields(EpisodeData)
        if f.name != "observations"]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("menu", [False, True])
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("episodes", [1, 2, 5])
@pytest.mark.parametrize("scheme", ["ar_marl", "no_rnn", "no_fas", "random"])
def test_lockstep_rollout_equals_episodes_played_alone(scheme, episodes,
                                                       epsilon, menu):
    """Each episode of one rollout call over several envs is recorded bit
    for bit as when played alone with the same env and policy streams."""
    trainer = _perturbed_trainer(scheme, slots=6)
    port_menu = cli.port_menu_for(trainer.n_ports, 4) if menu else None

    def streams():
        return ([PositioningEnv(trainer.cfg, np.random.default_rng((9, b, 0)))
                 for b in range(episodes)],
                [np.random.default_rng((9, b, 1)) for b in range(episodes)])

    envs, rngs = streams()
    together = trainer.rollout(envs, epsilon, rngs=rngs, port_menu=port_menu)
    envs, rngs = streams()
    alone = [trainer.rollout([env], epsilon, rngs=[rng], port_menu=port_menu)[0]
             for env, rng in zip(envs, rngs)]
    assert len(together) == episodes
    for played, reference in zip(together, alone):
        assert _episode_bytes(played) == _episode_bytes(reference)
    if episodes > 1:
        assert _episode_bytes(together[0]) != _episode_bytes(together[1])


def test_lockstep_rollout_needs_one_rng_per_env():
    trainer = MarlTrainer(tiny_config())
    envs = [PositioningEnv(trainer.cfg, np.random.default_rng(b))
            for b in range(2)]
    for bad_envs, bad_rngs in (([], []), (envs, [np.random.default_rng(0)])):
        with pytest.raises(ValueError, match="one rng per env"):
            trainer.rollout(bad_envs, 0.0, rngs=bad_rngs)


# ---------------------------------------------------------------------------
# the passive UAVs' nets stacked on a leading agent axis


def _single_agent_nets(trainer):
    """Four one-agent passive nets built like the stacked one and loaded
    from the trainer's checkpoint arrays."""
    nets, cfg = trainer.nets, trainer.cfg
    arrays = trainer.checkpoint_arrays()
    head_ports = cfg.channel.n_ports if nets.local[1].port_head is not None else 0
    singles = []
    for k in range(1, 5):
        net = LocalQNet(nets.input_widths[1], head_ports,
                        (3, 3 + cfg.channel.n_paths), cfg.marl,
                        np.random.default_rng(0),
                        recurrent=nets.local[1].gru is not None,
                        name=f"local{k}")
        net.load_values(arrays)
        singles.append(net)
    return singles


@pytest.mark.parametrize("scheme", TRAINABLE)
def test_stacked_passive_net_equals_four_single_agent_nets(scheme):
    trainer = _perturbed_trainer(scheme)
    stacked = trainer.nets.local[1]
    assert stacked.n_agents == 4
    singles = _single_agent_nets(trainer)
    rng = np.random.default_rng(41)
    n_in, hid = trainer.nets.input_widths[1], max(stacked.hidden_size, 1)

    def agent_bytes(values, k):
        """Agent k's slice of (q, port) as bytes."""
        return [None if v is None else v[k:k + 1].tobytes() for v in values]

    x, h = rng.standard_normal((4, 1, n_in)), rng.standard_normal((4, 1, hid))
    values, h_next = stacked.step(x, h)
    for k, net in enumerate(singles):
        values_k, h_k = net.step(x[k:k + 1], h[k:k + 1])
        assert agent_bytes(values_k, 0) == agent_bytes(values, k)
        assert h_k.tobytes() == h_next[k:k + 1].tobytes()

    T = 25
    xs = rng.standard_normal((4, T, n_in))
    dq = rng.standard_normal((4, T, N_STEER))
    fit = None
    if stacked.port_head is not None:
        fit = (rng.integers(0, trainer.n_ports, (4, T)),
               rng.standard_normal((4, T)))
    stacked.zero_grads()
    values_seq, cache = stacked.forward(xs)
    stacked.backward(dq, cache, port_fit=fit)
    for k, net in enumerate(singles):
        net.zero_grads()
        values_k, cache_k = net.forward(xs[k:k + 1])
        net.backward(dq[k:k + 1], cache_k, port_fit=None if fit is None else
                     (fit[0][k:k + 1], fit[1][k:k + 1]))
        assert agent_bytes(values_k, 0) == agent_bytes(values_seq, k)
        if fit is not None:
            assert (net.port_fit_loss(cache_k, (fit[0][k:k + 1], fit[1][k:k + 1]))
                    .tobytes() == stacked.port_fit_loss(cache, fit)[k:k + 1].tobytes())
        mine = stacked.params()[k * len(net.params()):(k + 1) * len(net.params())]
        for p, own in zip(net.params(), mine):
            assert p.name == own.name
            assert p.grad.tobytes() == own.grad.tobytes(), p.name

    # B episodes' rows in one call give each row's one-row call bit for bit
    for net in trainer.nets.local:
        xb = rng.standard_normal((net.n_agents, 5, net.embed.n_in))
        hb = rng.standard_normal((net.n_agents, 5, hid))
        values_b, h_b = net.step(xb, hb)
        for b in range(5):
            values_1, h_1 = net.step(xb[:, b:b + 1], hb[:, b:b + 1])
            assert ([None if v is None else v[:, b:b + 1].tobytes()
                     for v in values_b]
                    == [None if v is None else v.tobytes() for v in values_1])
            assert h_b[:, b:b + 1].tobytes() == h_1.tobytes()


@pytest.mark.parametrize("scheme", TRAINABLE)
def test_agent_params_are_contiguous_views_of_their_stacks(scheme):
    trainer = MarlTrainer(dataclasses.replace(
        default_config(), run=dataclasses.replace(default_config().run,
                                                  scheme=scheme)))
    for nets in (trainer.nets, trainer.target_nets):
        for net in nets.local:
            views = net.params()
            assert len(views) == net.n_agents * len(net.stacks())
            for s in net.stacks():
                assert s.value.flags.c_contiguous and s.grad.flags.c_contiguous
                for p in s.params:
                    assert any(p is v for v in views)
                    for arr, stack in ((p.value, s.value), (p.grad, s.grad)):
                        assert np.shares_memory(arr, stack)
                        assert arr.flags.c_contiguous


def test_sgd_step_moves_every_agent_slice_as_a_per_agent_update():
    trainer = _perturbed_trainer("ar_marl")
    rng = np.random.default_rng(43)
    params = trainer.nets.params()
    for p in params:
        p.grad[...] = rng.standard_normal(p.grad.shape)
    in_port_heads = {id(p) for net in trainer.nets.local
                     if net.port_head is not None for p in net.port_head.params()}
    grads = [p.grad * (marl.PORT_LR_MULTIPLIER if id(p) in in_port_heads
                       else 1.0)
             for p in params]
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    scale = 1.0 if total <= marl.GRAD_CLIP else marl.GRAD_CLIP / total
    rate = marl.LEARNING_RATE * 0.7
    expected = [p.value - rate * scale * g for p, g in zip(params, grads)]
    trainer._apply_sgd(0.7)
    assert scale < 1.0        # the clip binds, so its norm is exercised
    for p, want in zip(params, expected):
        assert p.value.tobytes() == want.tobytes(), p.name
        assert not np.any(p.grad)


# sha256 of the ordered [key, shape] list of checkpoint_arrays() at the
# default config, as written before the passive nets were stacked
CHECKPOINT_LAYOUT = {
    "ar_marl": (135, "343a6aeca5f3a7854dbc5dd9b7d47748b71611e49298aa07c4eaf50e4f157fce"),
    "no_fas": (111, "27ff056f1b0bdf1ba1af0a7f86d145470ac5405330a2ae600252531547fc6e22"),
    "no_rnn": (90, "5ff1f252dccd3b0d93781bf7481edcd5ffa6dc475cfac16895302c520554f4f7"),
}


@pytest.mark.parametrize("scheme", list(CHECKPOINT_LAYOUT))
def test_checkpoint_layout_is_unchanged(scheme):
    cfg = default_config()
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, scheme=scheme))
    arrays = MarlTrainer(cfg).checkpoint_arrays()
    layout = json.dumps([[k, list(v.shape)] for k, v in arrays.items()])
    assert (len(arrays), hashlib.sha256(layout.encode()).hexdigest()) \
        == CHECKPOINT_LAYOUT[scheme]
    assert "local3.gru.uz" in arrays or scheme == "no_rnn"


def test_checkpoint_round_trips_through_the_cli_loader(tmp_path):
    trainer = _perturbed_trainer("ar_marl")
    path = tmp_path / "ckpt.npz"
    nn.save_params(path, trainer.checkpoint_arrays(),
                   meta={"scheme": "ar_marl",
                         "config_ini": to_ini(trainer.cfg)})
    _, loaded = cli.load_trainer_from_checkpoint(path)
    saved, back = trainer.checkpoint_arrays(), loaded.checkpoint_arrays()
    assert list(saved) == list(back)
    for key in saved:
        assert saved[key].tobytes() == back[key].tobytes(), key
    for live, tgt in zip(loaded.nets.params(), loaded.target_nets.params()):
        assert live.value.tobytes() == tgt.value.tobytes()


@pytest.mark.parametrize("scheme", TRAINABLE)
def test_checkpoint_with_an_extra_array_is_rejected(scheme):
    cfg = micro_config()
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, scheme=scheme))
    trainer = MarlTrainer(cfg)
    arrays = dict(trainer.checkpoint_arrays())
    trainer.load_checkpoint_arrays(arrays)          # its own arrays load
    arrays["coord.att9.wq"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="coord.att9.wq"):
        trainer.load_checkpoint_arrays(arrays)


def test_random_scheme_rejects_any_checkpoint_array():
    cfg = micro_config()
    trainer = MarlTrainer(dataclasses.replace(
        cfg, run=dataclasses.replace(cfg.run, scheme="random")))
    assert trainer.checkpoint_arrays() == {}
    trainer.load_checkpoint_arrays({})
    with pytest.raises(ValueError):
        trainer.load_checkpoint_arrays(
            MarlTrainer(cfg).checkpoint_arrays())   # an ar_marl checkpoint
