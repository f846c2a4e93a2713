import numpy as np
import pytest

from shieldcraft.abstraction import make_partition
from shieldcraft.env import (
    EnvParams,
    SpacecraftEnv,
    SpacecraftState,
    is_failure,
    observe_and_label,
    proposition_table,
    truncated_normal,
)


def state(err=0.05, rate=0.001, wheel=0.5, charge=0.6, sun=1, target=1, mode=0, minutes=0.0):
    return SpacecraftState(
        pointing_error=err, attitude_rate=rate, wheel_speed=wheel, charge=charge,
        sun=sun, target=target, mode=mode, minutes=minutes,
    )


class TestObserveAndLabel:
    def test_good_image_mode_a(self):
        obs, labels = observe_and_label(state(err=0.005, rate=0.001, mode=2))
        assert labels == (1 << 0) | (1 << 3)  # p0 and p3
        assert obs[0] == 0.005 and obs[6 + 2] == 1.0

    def test_good_image_mode_b(self):
        _obs, labels = observe_and_label(state(err=0.005, rate=0.001, mode=3))
        assert labels == (1 << 0) | (1 << 4)

    def test_low_charge(self):
        _obs, labels = observe_and_label(state(charge=0.15))
        assert labels & (1 << 1)

    def test_high_wheel(self):
        _obs, labels = observe_and_label(state(wheel=0.85))
        assert labels & (1 << 2)

    def test_no_target_access_blocks_imaging_labels(self):
        _obs, labels = observe_and_label(state(err=0.005, rate=0.001, mode=2, target=0))
        assert labels & 0b11001 == 0

    def test_quality_gates(self):
        _obs, labels = observe_and_label(state(err=0.009, rate=0.001, mode=2))
        assert not labels & 1
        _obs, labels = observe_and_label(state(err=0.005, rate=0.003, mode=2))
        assert not labels & 1

    def test_non_imaging_mode_never_images(self):
        _obs, labels = observe_and_label(state(err=0.001, rate=0.0001, mode=0))
        assert not labels & 0b11001


class TestFailure:
    def test_charge_depleted(self):
        assert is_failure(rate=0.001, wheel=0.5, charge=0.0)

    def test_nominal(self):
        assert not is_failure(rate=0.005, wheel=0.7, charge=0.4)

    def test_wheel_saturated_boundary(self):
        assert is_failure(rate=0.001, wheel=1.0, charge=0.5)

    def test_rate_bound_exclusive(self):
        assert not is_failure(rate=0.01, wheel=0.5, charge=0.5)
        assert is_failure(rate=0.0101, wheel=0.5, charge=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("axis", ["rate", "wheel", "charge"])
    def test_non_finite_state_fails(self, bad, axis):
        coords = {"rate": 0.005, "wheel": 0.5, "charge": 0.5}
        coords[axis] = bad
        assert is_failure(**coords)


class TestDynamics:
    def test_momentum_dump_magnitude(self):
        # documented example: dump coefficient 0.25 takes 0.9 to 0.65 up to
        # the (3-sigma truncated) noise band
        params = EnvParams(wheel_drift=(0.001, -0.25, 0.07, 0.07))
        env = SpacecraftEnv(params)
        rng = np.random.default_rng(0)
        env.reset(rng)
        for _ in range(50):
            env.state.wheel_speed = 0.9
            env.step(1, rng)
            assert abs(env.state.wheel_speed - 0.65) <= 3 * params.wheel_noise[1] + 1e-12

    def test_charging_in_eclipse_strictly_drains(self):
        env = SpacecraftEnv()
        rng = np.random.default_rng(1)
        env.reset(rng)
        env.state.minutes = 0.8 * env.params.orbit_minutes  # eclipse phase
        env.state.sun = 0
        before = env.state.charge
        env.step(0, rng)
        assert env.state.charge < before

    def test_charging_in_sun_gains(self):
        env = SpacecraftEnv()
        rng = np.random.default_rng(2)
        env.reset(rng)
        env.state.sun = 1
        env.state.charge = 0.5
        env.step(0, rng)
        assert env.state.charge == pytest.approx(0.5 + 0.06 - 0.006)

    def test_charge_clamped_at_top_only(self):
        env = SpacecraftEnv()
        rng = np.random.default_rng(3)
        env.reset(rng)
        env.state.sun = 1
        env.state.charge = 0.99
        env.step(0, rng)
        assert env.state.charge == 1.0

    def test_sustained_imaging_saturates_wheels(self):
        # alternating imaging with no dumping drives the wheels up
        # monotonically to saturation within 50 steps
        env = SpacecraftEnv()
        rng = np.random.default_rng(4)
        env.reset(rng)
        env.state.wheel_speed = 0.3
        history = [env.state.wheel_speed]
        for t in range(50):
            env.step(2 + t % 2, rng)
            history.append(env.state.wheel_speed)
        diffs = np.diff(history)
        assert (diffs > 0).all()
        assert history[-1] >= 1.0

    def test_imaging_converges_pointing(self):
        env = SpacecraftEnv()
        rng = np.random.default_rng(5)
        env.reset(rng)
        env.state.pointing_error = 0.1
        env.state.attitude_rate = 0.004
        for _ in range(6):
            env.step(2, rng)
        assert env.state.pointing_error < 0.008
        assert env.state.attitude_rate < 0.002

    def test_determinism(self):
        def run(seed):
            env = SpacecraftEnv()
            rng = np.random.default_rng(seed)
            env.reset(rng)
            trace = []
            for t in range(40):
                obs, labels, failed = env.step(t % 4, rng)
                trace.append((tuple(obs), labels, failed))
            return trace

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_mode_recorded(self):
        env = SpacecraftEnv()
        rng = np.random.default_rng(6)
        env.reset(rng)
        env.step(3, rng)
        assert env.state.mode == 3


class TestAccessWindows:
    def test_fixed_windows(self):
        env = SpacecraftEnv()
        rng = np.random.default_rng(0)
        env.reset(rng)
        orbit = env.params.orbit_minutes
        assert env._access(0.30 * orbit, env.params.target_windows)[1] == 1
        assert env._access(0.50 * orbit, env.params.target_windows)[1] == 0
        assert env._access(0.10 * orbit, env.params.target_windows) == (1, 0)
        assert env._access(0.90 * orbit, env.params.target_windows)[0] == 0

    def test_randomized_windows_differ_between_episodes(self):
        env = SpacecraftEnv(EnvParams(randomize_windows=True))
        rng = np.random.default_rng(0)
        env.reset(rng)
        w1 = env._windows
        env.reset(rng)
        w2 = env._windows
        assert w1 != w2
        for lo, hi in w1:
            assert hi - lo == pytest.approx(env.params.window_width)


class TestSampleInCell:
    BOUNDS = ((0.0, 0.0025), (0.0, 0.2), (0.4, 0.6))

    def test_bounds_respected(self):
        env = SpacecraftEnv()
        batch = env.sample_in_cell(self.BOUNDS, 5000, np.random.default_rng(0))
        assert (batch["wheel"] >= 0.0).all() and (batch["wheel"] < 0.2).all()
        assert (batch["charge"] >= 0.4).all() and (batch["charge"] < 0.6).all()
        assert (batch["rate"] >= 0.0).all() and (batch["rate"] < 0.0025).all()

    def test_uniform_mean(self):
        env = SpacecraftEnv()
        batch = env.sample_in_cell(self.BOUNDS, 10_000, np.random.default_rng(1))
        # mean within 3 standard errors of the cell midpoint
        se = (0.6 - 0.4) / np.sqrt(12) / np.sqrt(10_000)
        assert abs(batch["charge"].mean() - 0.5) < 3 * se

    def test_seed_reproducible(self):
        env = SpacecraftEnv()
        b1 = env.sample_in_cell(self.BOUNDS, 100, np.random.default_rng(3))
        b2 = env.sample_in_cell(self.BOUNDS, 100, np.random.default_rng(3))
        for key in b1:
            assert np.array_equal(b1[key], b2[key])

    def test_hidden_coordinates_randomized(self):
        env = SpacecraftEnv()
        batch = env.sample_in_cell(self.BOUNDS, 2000, np.random.default_rng(4))
        lo, hi = env.params.sample_pointing_error
        assert batch["err"].min() >= lo and batch["err"].max() <= hi
        assert batch["err"].std() > 0.01
        assert set(np.unique(batch["mode"])) == {0, 1, 2, 3}
        minutes = batch["minutes"] / env.params.orbit_minutes
        assert minutes.min() >= 0.0 and minutes.max() < 1.0
        assert minutes.min() < 0.01 and minutes.max() > 0.99  # the whole orbit
        # the step's noise uniforms are drawn here too
        assert batch["u"].shape == (3, 2000)
        assert 0.0 <= batch["u"].min() and batch["u"].max() < 1.0


class TestLabelPartitionConsistency:
    def test_safety_labels_match_cells(self):
        partition = make_partition()
        env = SpacecraftEnv()
        rng = np.random.default_rng(8)
        table = proposition_table()
        safety_mask = (1 << table.index("p1")) | (1 << table.index("p2"))
        for _ in range(2000):
            st = state(
                err=rng.uniform(0, 0.1),
                rate=rng.uniform(0, 0.01),
                wheel=rng.uniform(0, 0.999),
                charge=rng.uniform(1e-6, 1.0),
                mode=int(rng.integers(4)),
            )
            _obs, labels = observe_and_label(st)
            cell = partition.locate_one(st.attitude_rate, st.wheel_speed, st.charge)
            assert cell >= 0
            assert labels & safety_mask == partition.cells[cell].label


class TestTruncatedNormal:
    def test_clipped_at_three_sigma(self):
        draws = truncated_normal(np.random.default_rng(0), 100_000)
        assert draws.min() >= -3.0 and draws.max() <= 3.0
        assert abs(draws.mean()) < 0.02
