import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasloc import channel, positioning, world
from fasloc.channel import ChannelError
from fasloc.config import SPEED_MAX, apply_overrides, default_config
from fasloc.env import (ANGLE_CHOICES, INNOVATION_GATE, MIN_USABLE, N_AGENTS,
                        N_ANGLE, N_STEER, POSITION_SCALE, RANGE_SCALE,
                        VARIANCE_SCALE, EpisodeData, PositioningEnv)

# marl.micro_config's scenario: two-slot episodes, three ports, two paths
SMALL = apply_overrides(default_config(), [
    "world.slots_per_episode=2", "channel.n_ports=3", "channel.n_paths=2"])


def _ref_observation(agent, positions, aod, prev_range):
    """One agent's scaled observation: the active UAV (agent 0) sees its
    position; a passive agent its position, its uplink paths' departure
    angles and its previous measured range sum."""
    if agent == 0:
        return positions[0].copy() * POSITION_SCALE
    scaled = np.concatenate([positions[agent], aod, [prev_range]])
    scaled[:3] *= POSITION_SCALE
    scaled[3:-1] /= math.pi
    scaled[-1] *= RANGE_SCALE
    return scaled


class TestObservations:
    def _env(self):
        env = PositioningEnv(default_config(), np.random.default_rng(0))
        env.reset()
        env.positions = np.arange(15, dtype=float).reshape(5, 3)
        env.aods = np.linspace(0.1, 2.8, 20).reshape(4, 5)
        env.prev_ranges = np.array([812.5, 0.0, 640.0, 901.25])
        return env

    def test_active_observation_is_position(self):
        env = self._env()
        obs = env.observations()[0]
        assert obs.shape == (1, 3)
        np.testing.assert_array_equal(obs[0], env.positions[0] * POSITION_SCALE)

    def test_passive_layout_and_length(self):
        env = self._env()
        obs = env.observations()[1]
        assert obs.shape == (4, 3 + 5 + 1)
        np.testing.assert_array_equal(obs[:, :3],
                                      env.positions[1:] * POSITION_SCALE)
        np.testing.assert_array_equal(obs[:, 3:8], env.aods / math.pi)
        np.testing.assert_array_equal(obs[:, -1], env.prev_ranges * RANGE_SCALE)

    def test_first_slot_has_zero_prev_range(self):
        env = PositioningEnv(SMALL, np.random.default_rng(0))
        obs = env.reset()
        assert np.all(obs[1][:, -1] == 0.0)

    def test_arrays_equal_the_per_agent_reference(self):
        """The per-net observation arrays are byte-equal to the
        agent-by-agent ones (tests/test_marl.py checks the action
        features the same way)."""
        cfg = default_config()
        env = PositioningEnv(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(23)
        for _ in range(500):
            env.positions = rng.uniform(-50.0, 1500.0, (5, 3))
            env.aods = rng.uniform(0.0, math.pi, (4, cfg.channel.n_paths))
            env.prev_ranges = rng.uniform(0.0, 3000.0, 4)
            net_obs = env.observations()
            team = [(i, j) for i, o in enumerate(net_obs) for j in range(len(o))]
            for k, (i, j) in enumerate(team):
                aod = env.aods[k - 1] if k else None
                prev = env.prev_ranges[k - 1] if k else 0.0
                assert (net_obs[i][j].tobytes()
                        == _ref_observation(k, env.positions, aod, prev).tobytes())


# every UAV holds course (steering combo 12: no yaw, no pitch change), and
# every passive UAV sends through port 1
_HOLD_COURSE = (np.full(5, 12), np.ones(4, int))


class TestEnvironment:
    def test_stale_slots_keep_previous_estimate(self):
        # impossible latency budget: every report is late, fix never moves
        cfg = dataclasses.replace(
            SMALL, scenario=dataclasses.replace(SMALL.scenario, latency_budget=0.0))
        env = PositioningEnv(cfg, np.random.default_rng(0))
        env.reset()
        first_fix = env.estimate.copy()
        for _ in range(2):
            _, info = env.step(*_HOLD_COURSE)
            assert info["stale"]
            assert not info["feasible"]
        np.testing.assert_array_equal(env.estimate, first_fix)

    @pytest.mark.parametrize("bad_port", ["zero", "past_the_grid"])
    def test_out_of_range_port_rejected(self, bad_port):
        cfg = default_config()
        port = {"zero": 0, "past_the_grid": cfg.channel.n_ports + 1}[bad_port]
        env = PositioningEnv(cfg, np.random.default_rng(0))
        env.reset()
        steer, ports = _HOLD_COURSE
        ports = ports.copy()
        ports[2] = port
        with pytest.raises(ChannelError, match=f"port {port} outside"):
            env.step(steer, ports)

    def test_out_of_range_port_rejected_before_the_slot_moves(self):
        env = PositioningEnv(default_config(), np.random.default_rng(0))
        env.reset()
        env.step(*_HOLD_COURSE)

        def state():
            return (env.positions.copy(), env.headings.copy(),
                    env.estimate.copy(), env.traj.position.copy(),
                    env.prev_ranges.copy(), env.rng.bit_generator.state)

        before = state()
        with pytest.raises(ValueError, match="port 99 outside"):
            env.step(np.zeros(5, int), np.array([1, 2, 3, 99]))
        after = state()
        for a, b in zip(before[:-1], after[:-1]):
            np.testing.assert_array_equal(a, b)
        assert before[-1] == after[-1]

    def test_nan_latency_counts_as_late(self, monkeypatch):
        monkeypatch.setattr(channel, "uplink_latencies",
                            lambda sinrs: np.array([0.0, np.nan, 0.0, 0.0]))
        env = PositioningEnv(default_config(), np.random.default_rng(0))
        env.reset()
        _, info = env.step(*_HOLD_COURSE)
        assert info["late"].tolist() == [False, True, False, False]
        assert not info["feasible"]

    @pytest.mark.parametrize("steer, ports, name", [
        (np.full(5, 12), np.ones(5, int), "ports"),
        (np.full(6, 12), np.ones(4, int), "steer"),
        (np.full(5, 12), np.array([1.5, 2.7, 1.0, 1.0]), "ports"),
        (np.full(5, N_STEER), np.ones(4, int), "steer"),
        (np.array([12, 12, -1, 12, 12]), np.ones(4, int), "steer"),
        (np.full(5, 12.0), np.ones(4, int), "steer"),
    ])
    def test_malformed_actions_rejected(self, steer, ports, name):
        env = PositioningEnv(default_config(), np.random.default_rng(0))
        env.reset()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            env.step(steer, ports)


class TestFeasibility:
    """A slot is feasible when no report is late and both of
    world.check_constraints's range flags hold."""

    def _slot(self, monkeypatch, latencies, range_ok=None):
        monkeypatch.setattr(channel, "uplink_latencies",
                            lambda sinrs: np.array(latencies))
        if range_ok is not None:
            monkeypatch.setattr(world, "check_constraints",
                                lambda positions, target: range_ok)
        env = PositioningEnv(default_config(), np.random.default_rng(0))
        env.reset()
        return env.step(*_HOLD_COURSE)[1]

    def test_late_uplink_violates_latency_only(self, monkeypatch):
        # 0.05 s misses the default 0.03 s budget; the start is in range
        info = self._slot(monkeypatch, [0.0, 0.05, 0.0, 0.0])
        assert info["late"].tolist() == [False, True, False, False]
        assert info["range_ok"] == (True, True)
        assert not info["feasible"]

    def test_feasible_iff_all_flags(self, monkeypatch):
        for late in (False, True):
            for range_ok in ((True, True), (True, False), (False, True),
                             (False, False)):
                info = self._slot(monkeypatch, [0.05 if late else 0.0, 0.0,
                                                0.0, 0.0], range_ok)
                assert info["range_ok"] == range_ok
                assert info["feasible"] is (not late and all(range_ok))


def _ref_step(env, steer, ports):
    """The per-UAV slot that PositioningEnv.step replaced, with the
    channel and ranging helpers inlined as they were: Python-float math
    per UAV and one RNG call per draw."""
    cfg, params = env.cfg, env.cfg.channel
    turns = ANGLE_CHOICES[np.stack(np.divmod(steer, N_ANGLE), axis=-1)]
    for k in range(N_AGENTS):
        yaw, pitch = env.headings[k] + turns[k]
        yaw = (yaw + math.pi) % (2.0 * math.pi) - math.pi
        pitch = min(max(pitch, world.PITCH_MIN), world.PITCH_MAX)
        env.headings[k] = (yaw, pitch)
        cp = math.cos(pitch)
        env.positions[k] = env.positions[k] + cfg.world.speed * world.SLOT_DURATION * np.array(
            [math.cos(yaw) * cp, math.sin(yaw) * cp, math.sin(pitch)])
    target = env.traj.step(env.rng)
    q0 = env.positions[0]

    measurements = []
    num = (channel.TX_POWER_ACTIVE * channel.UNIT_PATH_GAIN ** 2
           * channel.REFLECT_COEFF ** 2)
    for i in range(4):
        d0 = float(np.linalg.norm(q0 - target))
        dk = float(np.linalg.norm(target - env.positions[1 + i]))
        snr = num / (channel.NOISE_POWER * d0 ** 2 * dk ** 2)
        measurements.append(None if snr == 0.0 else d0 + dk + env.rng.normal(
            0.0, math.sqrt(VARIANCE_SCALE / snr)))

    n, k = params.n_paths, channel.RICIAN_K
    coeff = 2.0 * math.pi * channel.FAS_SIZE / (params.n_ports - 1)
    free_space = 20.0 * math.log10(channel.REF_DISTANCE * channel.CARRIER_FREQ
                                   * 4.0 * math.pi / channel.LIGHT_SPEED)
    gains = np.zeros(4, dtype=complex)
    for i in range(4):
        scatter = (env.rng.standard_normal(n)
                   + 1j * env.rng.standard_normal(n)) / math.sqrt(2.0)
        fading = math.sqrt(k / (k + 1.0)) + math.sqrt(1.0 / (k + 1.0)) * scatter
        fading = fading * np.sqrt(n * channel.path_power_profile(n))
        shadow = float(env.rng.normal(0.0, channel.SHADOW_STD_DB))
        r_bs = float(np.linalg.norm(env.positions[1 + i] - env.bs))
        loss = (free_space + 10.0 * channel.PATH_LOSS_EXP * math.log10(r_bs)
                + shadow)
        amp = 10.0 ** (-loss / 20.0)
        phases = np.exp(-1j * coeff * np.multiply.outer(
            np.array([float(ports[i])]), np.cos(env.aods[i])))[0]
        gains[i] = complex(np.sum(fading * amp * phases))
    sinrs = channel.uplink_sinr(gains)
    latencies = np.array([channel.uplink_latency(float(s)) for s in sinrs])
    late = ~(latencies <= cfg.scenario.latency_budget)

    usable = [(measurements[i], env.positions[1 + i]) for i in range(4)
              if measurements[i] is not None and not late[i]]
    stale = len(usable) < MIN_USABLE
    if not stale:
        fit = positioning.estimate_position(
            [m for m, _ in usable], env.positions[0],
            np.array([p for _, p in usable]), env.estimate)
        jump = float(np.linalg.norm(fit.position - env.estimate))
        if jump > INNOVATION_GATE * (1 + env._gate_rejects):
            env._gate_rejects += 1
            stale = True
        else:
            env._gate_rejects = 0
            env.estimate = fit.position

    error = positioning.position_error(env.estimate, target)
    d_target = np.linalg.norm(env.positions - target[None, :], axis=1)
    dists = np.linalg.norm(env.positions[:, None, :] - env.positions[None, :, :],
                           axis=2)
    pair = dists[np.triu_indices(N_AGENTS, k=1)]
    lo, hi = world.DIST_MIN, world.DIST_MAX
    range_ok = (bool(np.all((d_target >= lo) & (d_target <= hi))),
                bool(np.all((pair >= lo) & (pair <= hi))))
    for i in range(4):
        if measurements[i] is not None:
            env.prev_ranges[i] = measurements[i]
    info = {"error": error, "stale": stale,
            "feasible": not np.any(late) and range_ok[0] and range_ok[1],
            "late": late, "range_ok": range_ok}
    return env.observations(), info


def test_assigned_aods_reach_the_next_uplink(monkeypatch):
    """Assigning env.aods after reset changes the cosines the next step's
    uplink draws with and the observation block, not only the angles."""
    cfg = default_config()
    n_paths = cfg.channel.n_paths
    env = PositioningEnv(cfg, np.random.default_rng(5))
    env.reset()
    aods = np.linspace(0.2, 3.0, 4 * n_paths).reshape(4, n_paths)
    env.aods = aods
    seen = []
    draw_channel = channel.draw_channel

    def recording(rng, cos_aod):
        seen.append(np.array(cos_aod))
        return draw_channel(rng, cos_aod)

    monkeypatch.setattr(channel, "draw_channel", recording)
    obs, _ = env.step(np.full(N_AGENTS, 12), np.ones(4, dtype=int))
    assert len(seen) == 1 and seen[0].tobytes() == np.cos(aods).tobytes()
    assert obs[1][:, 3:3 + n_paths].tobytes() == (aods / math.pi).tobytes()


def _ref_record(observed, steers, played, infos) -> EpisodeData:
    """One episode's record stacked from its per-slot observations (as
    reset and step returned them), steering combos, ports and step
    infos."""

    def column(key):
        return np.array([info[key] for info in infos])

    return EpisodeData(
        observations=[np.stack(obs, axis=1) for obs in zip(*observed)],
        steer=np.array(steers), ports=np.array(played),
        errors=column("error"), stales=column("stale"),
        feasible=column("feasible"), late=column("late"),
        range_ok=column("range_ok"))


def _episode_bytes(episode):
    """Every array of an EpisodeData, as (dtype, shape, bytes)."""
    arrays = [*episode.observations, *(
        getattr(episode, f.name) for f in dataclasses.fields(EpisodeData)
        if f.name != "observations")]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("cfg", [default_config(), SMALL],
                         ids=["default", "small"])
def test_episode_is_the_slots_played_since_reset(cfg):
    """env.episode() is byte-equal to the record stacked slot by slot from
    what reset and step returned, and each reset starts an empty one."""
    env = PositioningEnv(cfg, np.random.default_rng(9))
    pick = np.random.default_rng(10)
    with pytest.raises(ValueError, match="no slot"):
        env.episode()
    for slots in (cfg.world.slots_per_episode, 1, 3):
        observed, steers, played, infos = [env.reset()], [], [], []
        with pytest.raises(ValueError, match="no slot"):
            env.episode()
        for _ in range(slots):
            steer = pick.integers(0, N_STEER, N_AGENTS)
            ports = pick.integers(1, cfg.channel.n_ports + 1, 4)
            steers.append(steer.copy())
            played.append(ports.copy())
            obs, info = env.step(steer, ports)
            # the record holds its own copy of the actions
            steer[:], ports[:] = 0, 1
            observed.append(obs)
            infos.append(info)
        episode = env.episode()
        assert len(episode) == slots
        assert _episode_bytes(episode) == _episode_bytes(
            _ref_record(observed[:-1], steers, played, infos))


@pytest.mark.parametrize("overrides, constants", [
    ([], {}), ([], {"RICIAN_K": 0.0}), ([], {"SHADOW_STD_DB": 0.0}),
    (["channel.n_paths=1"], {}), (["target.uncertainty=0.3"], {}),
], ids=["default", "rician_k=0", "shadow_std_db=0", "n_paths=1",
        "uncertainty=0.3"])
def test_step_matches_per_uav_reference(overrides, constants, monkeypatch):
    """The array-pass step is byte-equal to the per-UAV loop: every info
    value, the observations, headings, positions, fix, last ranges and
    the Generator state, over seeded random action sequences."""
    cfg = apply_overrides(_DEFAULT, overrides)
    for name, value in constants.items():
        monkeypatch.setattr(channel, name, value)
    pick = np.random.default_rng(40)
    for seed in range(3):
        envs = [PositioningEnv(cfg, np.random.default_rng(seed)) for _ in range(2)]
        for env in envs:
            env.reset()
        for _ in range(cfg.world.slots_per_episode):
            steer = pick.integers(0, N_STEER, N_AGENTS)
            ports = pick.integers(1, cfg.channel.n_ports + 1, 4)
            obs, info = envs[0].step(steer, ports)
            ref_obs, ref_info = _ref_step(envs[1], steer, ports)
            assert info.keys() == ref_info.keys()
            for key, value in info.items():
                ref = ref_info[key]
                assert type(value) is type(ref), key
                assert np.asarray(value).tobytes() == np.asarray(ref).tobytes(), key
            assert info["feasible"] == (not info["late"].any()
                                        and all(info["range_ok"]))
            for a, b in zip(obs, ref_obs):
                assert a.tobytes() == b.tobytes()
            for name in ("headings", "positions", "estimate", "prev_ranges"):
                assert (getattr(envs[0], name).tobytes()
                        == getattr(envs[1], name).tobytes()), name
            assert (envs[0].rng.bit_generator.state
                    == envs[1].rng.bit_generator.state)


_DEFAULT = default_config()
# the default config, or one extreme but valid corner of it
_EXTREME_OVERRIDES = st.one_of(
    st.just([]),
    # both speeds up to the config's ceiling
    st.floats(0.0, SPEED_MAX, exclude_min=True).map(
        lambda v: [f"world.speed={v!r}"]),
    st.floats(0.0, SPEED_MAX).map(lambda v: [f"target.speed={v!r}"]),
    st.sampled_from([
        ["target.speed=0"],
        ["channel.n_paths=1"],
        # the smallest port grid: fas_gain's phase slope divides by 1
        ["channel.n_ports=2"],
    ]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       uncertainty=st.floats(0.0, 1.0),
       overrides=_EXTREME_OVERRIDES,
       slots=st.integers(1, 300))
def test_random_action_episode_stays_finite(seed, uncertainty, overrides,
                                            slots):
    """Uniformly random steering and ports, for up to 300 slots, at the
    default config or an extreme valid one: env.step never raises or
    warns, every info value and observation stays finite, and a slot is
    feasible exactly when no report is late and both ranges hold."""
    cfg = apply_overrides(_DEFAULT, [f"target.uncertainty={uncertainty!r}",
                                     *overrides])
    env = PositioningEnv(cfg, np.random.default_rng(seed))
    pick = np.random.default_rng([seed, 1])
    env.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(slots):
            steer = pick.integers(0, N_STEER, N_AGENTS)
            ports = pick.integers(1, cfg.channel.n_ports + 1, 4)
            observations, info = env.step(steer, ports)
            for key, value in info.items():
                assert np.all(np.isfinite(np.asarray(value, float))), key
            assert info["feasible"] == (not info["late"].any()
                                        and all(info["range_ok"]))
            for obs in observations:
                assert np.all(np.isfinite(obs))
