import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasloc import world
from fasloc.config import ConfigError, TargetTrajectorySpec
from fasloc.world import (SLOT_DURATION, TargetTrajectory, check_constraints,
                          heading_vector, norms, step_controlled)

SPEED = 5.0

ACTIVE = np.array([300.0, 300.0, 300.0])
PASSIVE = np.array([[237.0, 890.0, 744.0],
                    [310.0, 743.0, 891.0],
                    [832.0, 497.0, 328.0],
                    [548.0, 647.0, 400.0]])
TARGET = np.array([445.0, 615.0, 533.0])


class TestStepControlled:
    def test_pure_x_motion(self):
        q = step_controlled(np.array([0.0, 0.0, 100.0]), 0.0, 0.0, SPEED)
        np.testing.assert_allclose(q, [5.0, 0.0, 100.0], atol=1e-12)

    def test_straight_up_with_bounds_disabled(self):
        # the absolute heading is unbounded: pitch 90 degrees exceeds the
        # per-slot change bound
        q = step_controlled(np.array([0.0, 0.0, 100.0]), 0.0, math.pi / 2, SPEED)
        np.testing.assert_allclose(q, [0.0, 0.0, 105.0], atol=1e-12)

    def test_oblique_step_matches_direct_evaluation(self):
        q = step_controlled(np.array([300.0, 300.0, 300.0]),
                            math.pi / 4, math.pi / 6, SPEED)
        expected = np.array([
            300.0 + 5.0 * math.cos(math.pi / 4) * math.cos(math.pi / 6),
            300.0 + 5.0 * math.sin(math.pi / 4) * math.cos(math.pi / 6),
            300.0 + 5.0 * math.sin(math.pi / 6),
        ])
        np.testing.assert_allclose(q, expected, rtol=1e-14)
        assert q[2] == pytest.approx(302.5)

    @given(yaw=st.floats(-math.pi / 3, math.pi / 3),
           pitch=st.floats(-math.pi / 3, math.pi / 3))
    @settings(max_examples=100, deadline=None)
    def test_step_length_is_speed_times_dt(self, yaw, pitch):
        q0 = np.array([10.0, -20.0, 55.0])
        q1 = step_controlled(q0, yaw, pitch, SPEED)
        dist = np.linalg.norm(q1 - q0)
        assert dist == pytest.approx(SPEED * SLOT_DURATION, rel=1e-12)


class TestTargetTrajectory:
    def test_deterministic_given_seed(self):
        paths = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            traj = TargetTrajectory(speed=5.0, uncertainty=0.3)
            paths.append(np.array([traj.step(rng) for _ in range(50)]))
        np.testing.assert_array_equal(paths[0], paths[1])

    def test_cline_advances_by_speed_times_dt(self, monkeypatch):
        # with and without turns: a turn rotates the heading, not its length
        monkeypatch.setattr(world, "SLOT_DURATION", 0.5)
        for uncertainty in (0.0, 0.5):
            traj = TargetTrajectory(speed=7.0, uncertainty=uncertainty)
            rng = np.random.default_rng(0)
            prev = traj.position.copy()
            for _ in range(60):
                cur = traj.step(rng)
                assert np.linalg.norm(cur - prev) == pytest.approx(3.5, rel=1e-12)
                prev = cur

    def test_turn_frequency_matches_uncertainty(self):
        traj = TargetTrajectory(speed=5.0, uncertainty=0.2)
        rng = np.random.default_rng(7)
        turns = 0
        steps = 100_000
        for _ in range(steps):
            yaw, _ = traj._nominal_heading()
            before = traj.position.copy()
            traj.step(rng)
            d = traj.position - before
            realized = math.atan2(d[1], d[0])
            dyaw = abs((realized - yaw + math.pi) % (2 * math.pi) - math.pi)
            if dyaw > math.pi / 4:
                turns += 1
        assert turns / steps == pytest.approx(0.2, abs=0.01)

    def test_uncertainty_validation(self):
        with pytest.raises(ConfigError):
            TargetTrajectorySpec(uncertainty=1.5)
        with pytest.raises(ConfigError):
            TargetTrajectorySpec(speed=-1.0)


POSITIONS = np.vstack([ACTIVE, PASSIVE])


class TestConstraints:
    """check_constraints's (target_range_ok, pairwise_range_ok); the
    latency half of feasibility is PositioningEnv.step's (test_env.py)."""

    def test_nominal_scene_is_feasible(self):
        assert check_constraints(POSITIONS, TARGET) == (True, True)

    def test_close_pair_violates_separation_only(self):
        positions = POSITIONS.copy()
        positions[2] = positions[1] + np.array([10.0, 0.0, 0.0])
        assert check_constraints(positions, TARGET) == (True, False)

    def test_relaxing_never_breaks_feasibility(self, monkeypatch):
        rng = np.random.default_rng(3)
        for _ in range(50):
            positions = rng.uniform(100, 900, size=(5, 3))
            target = rng.uniform(100, 900, size=3)
            lat = rng.uniform(0, 0.06, size=4)
            tight = check_constraints(positions, target)
            with monkeypatch.context() as patch:
                patch.setattr(world, "DIST_MIN", world.DIST_MIN / 2)
                patch.setattr(world, "DIST_MAX", world.DIST_MAX * 2)
                loose = check_constraints(positions, target)
            # feasible: no report late and both ranges held
            if not (lat > 0.030).any() and all(tight):
                assert not (lat > 0.060).any() and all(loose)


def test_heading_vector_is_unit():
    for yaw, pitch in [(0.3, -0.2), (1.0, 0.9), (-2.0, 0.0)]:
        assert np.linalg.norm(heading_vector(yaw, pitch)) == pytest.approx(1.0)


class TestUavAxis:
    """The helpers on a stack of UAVs give each row's scalar-call bits."""

    def test_heading_vector_matches_math(self):
        rng = np.random.default_rng(8)
        yaw = rng.uniform(-math.pi, math.pi, 2000)
        pitch = rng.uniform(-math.pi / 2, math.pi / 2, 2000)
        stacked = heading_vector(yaw, pitch)
        for row, a, b in zip(stacked, yaw.tolist(), pitch.tolist()):
            cp = math.cos(b)
            ref = np.array([math.cos(a) * cp, math.sin(a) * cp, math.sin(b)])
            assert heading_vector(a, b).tobytes() == ref.tobytes()
            assert row.tobytes() == ref.tobytes()

    def test_step_controlled_rows(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            q = rng.uniform(-100.0, 1500.0, (5, 3))
            yaw = rng.uniform(-math.pi, math.pi, 5)
            pitch = rng.uniform(-math.pi / 3, math.pi / 3, 5)
            stacked = step_controlled(q, yaw, pitch, SPEED)
            for k in range(5):
                assert (stacked[k].tobytes() == step_controlled(
                    q[k], float(yaw[k]), float(pitch[k]), SPEED).tobytes())

    def test_norms_are_linalg_norm_bits(self):
        rng = np.random.default_rng(10)
        v = rng.uniform(-2000.0, 2000.0, (5000, 4, 3))
        stacked = norms(v)
        assert stacked.shape == (5000, 4)
        for rows, got in zip(v, stacked):
            for row, value in zip(rows, got):
                assert value == np.linalg.norm(row) == norms(row)

    def test_constraints_match_full_distance_matrix(self, monkeypatch):
        rng = np.random.default_rng(11)
        lo, hi = 150.0, 700.0
        monkeypatch.setattr(world, "DIST_MIN", lo)
        monkeypatch.setattr(world, "DIST_MAX", hi)
        for _ in range(2000):
            positions = rng.uniform(100, 900, size=(5, 3))
            target = rng.uniform(100, 900, size=3)
            d_target = np.linalg.norm(positions - target[None, :], axis=1)
            dists = np.linalg.norm(positions[:, None, :] - positions[None, :, :],
                                   axis=2)
            pair = dists[np.triu_indices(5, k=1)]
            ref = (bool(np.all((d_target >= lo) & (d_target <= hi))),
                   bool(np.all((pair >= lo) & (pair <= hi))))
            got = check_constraints(positions, target)
            assert got == ref and all(type(ok) is bool for ok in got)
