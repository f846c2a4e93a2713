import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from oracles import GeneratorDraws, lemire_modes
from shieldcraft import env as env_mod
from shieldcraft.abstraction import make_partition
from shieldcraft.env import (
    RESET_DRAWS,
    Discretizer,
    EnvParams,
    EpisodeDraws,
    RowStreams,
    SpacecraftEnv,
    proposition_table,
    truncated_normal,
)

# every test env here bins its observations on the default partition
DISCRETIZER = Discretizer(make_partition())


def enter(err=0.05, rate=0.001, wheel=0.5, charge=0.6, target=1, mode=0):
    """An env moved to a state in sunlight, inside the first target window
    or between the windows, and the outcome it returns."""
    env = SpacecraftEnv(EnvParams(), DISCRETIZER)
    minutes = (0.30 if target else 0.50) * env.params.orbit_minutes
    return env, env._enter(err, rate, wheel, charge, minutes, mode)


def labels_of(**state) -> int:
    return enter(**state)[1][2]


def fails(rate, wheel, charge) -> bool:
    """Whether the state leaves the safe domain; its cell is then -1."""
    _env, (_obs, cell, _labels, failed) = enter(rate=rate, wheel=wheel, charge=charge)
    assert (cell == -1) == failed
    return failed


class TestObserveAndLabel:
    def test_good_image_mode_a(self):
        env, (_obs, _cell, labels, _failed) = enter(err=0.005, rate=0.001, mode=2)
        obs = env.observation()
        assert labels == (1 << 0) | (1 << 3)  # p0 and p3
        assert obs[0] == 0.005 and obs[6 + 2] == 1.0

    def test_good_image_mode_b(self):
        labels = labels_of(err=0.005, rate=0.001, mode=3)
        assert labels == (1 << 0) | (1 << 4)

    def test_low_charge(self):
        labels = labels_of(charge=0.15)
        assert labels & (1 << 1)

    def test_high_wheel(self):
        labels = labels_of(wheel=0.85)
        assert labels & (1 << 2)

    def test_no_target_access_blocks_imaging_labels(self):
        labels = labels_of(err=0.005, rate=0.001, mode=2, target=0)
        assert labels & 0b11001 == 0

    def test_quality_gates(self):
        labels = labels_of(err=0.009, rate=0.001, mode=2)
        assert not labels & 1
        labels = labels_of(err=0.005, rate=0.003, mode=2)
        assert not labels & 1

    def test_non_imaging_mode_never_images(self):
        labels = labels_of(err=0.001, rate=0.0001, mode=0)
        assert not labels & 0b11001


class TestFailure:
    def test_charge_depleted(self):
        assert fails(rate=0.001, wheel=0.5, charge=0.0)

    def test_nominal(self):
        assert not fails(rate=0.005, wheel=0.7, charge=0.4)

    def test_wheel_saturated_boundary(self):
        assert fails(rate=0.001, wheel=1.0, charge=0.5)

    def test_rate_bound_exclusive(self):
        assert not fails(rate=0.01, wheel=0.5, charge=0.5)
        assert fails(rate=0.0101, wheel=0.5, charge=0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("axis", ["rate", "wheel", "charge"])
    def test_non_finite_state_fails(self, bad, axis):
        coords = {"rate": 0.005, "wheel": 0.5, "charge": 0.5}
        coords[axis] = bad
        assert fails(**coords)


class TestDynamics:
    def test_momentum_dump_magnitude(self):
        # documented example: dump coefficient 0.25 takes 0.9 to 0.65 up to
        # the (3-sigma truncated) noise band
        params = EnvParams(wheel_drift=(0.001, -0.25, 0.07, 0.07))
        env = SpacecraftEnv(params, DISCRETIZER)
        draws = EpisodeDraws(0, RESET_DRAWS + 3 * 50)
        env.reset(draws)
        for _ in range(50):
            env.state.wheel_speed = 0.9
            env.step(1, draws)
            assert abs(env.state.wheel_speed - 0.65) <= 3 * params.wheel_noise[1] + 1e-12

    def test_charging_in_eclipse_strictly_drains(self):
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        draws = EpisodeDraws(1, 64)
        env.reset(draws)
        env.state.minutes = 0.8 * env.params.orbit_minutes  # eclipse phase
        env.state.sun = 0
        before = env.state.charge
        env.step(0, draws)
        assert env.state.charge < before

    def test_charging_in_sun_gains(self):
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        draws = EpisodeDraws(2, 64)
        env.reset(draws)
        env.state.sun = 1
        env.state.charge = 0.5
        env.step(0, draws)
        assert env.state.charge == pytest.approx(0.5 + 0.06 - 0.006)

    def test_charge_clamped_at_top_only(self):
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        draws = EpisodeDraws(3, 64)
        env.reset(draws)
        env.state.sun = 1
        env.state.charge = 0.99
        env.step(0, draws)
        assert env.state.charge == 1.0

    def test_sustained_imaging_saturates_wheels(self):
        # alternating imaging with no dumping drives the wheels up
        # monotonically to saturation within 50 steps
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        draws = EpisodeDraws(4, RESET_DRAWS + 3 * 50)
        env.reset(draws)
        env.state.wheel_speed = 0.3
        history = [env.state.wheel_speed]
        for t in range(50):
            env.step(2 + t % 2, draws)
            history.append(env.state.wheel_speed)
        diffs = np.diff(history)
        assert (diffs > 0).all()
        assert history[-1] >= 1.0

    def test_imaging_converges_pointing(self):
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        draws = EpisodeDraws(5, 64)
        env.reset(draws)
        env.state.pointing_error = 0.1
        env.state.attitude_rate = 0.004
        for _ in range(6):
            env.step(2, draws)
        assert env.state.pointing_error < 0.008
        assert env.state.attitude_rate < 0.002

    def test_determinism(self):
        def run(seed):
            env = SpacecraftEnv(EnvParams(), DISCRETIZER)
            draws = EpisodeDraws(seed, RESET_DRAWS + 3 * 40)
            env.reset(draws)
            trace = []
            for t in range(40):
                _, _, labels, failed = env.step(t % 4, draws)
                trace.append((tuple(env.observation()), labels, failed))
            return trace

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_mode_recorded(self):
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        draws = EpisodeDraws(6, 64)
        env.reset(draws)
        env.step(3, draws)
        assert env.state.mode == 3


class TestAccessWindows:
    def test_fixed_windows(self):
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        draws = EpisodeDraws(0, 64)
        env.reset(draws)
        orbit = env.params.orbit_minutes

        def access(frac):
            obs_index, _cell, _labels, _failed = env._enter(0.05, 0.001, 0.5, 0.6, frac * orbit, 0)
            # the observation index ends in the sun and target bits
            assert (obs_index >> 1 & 1, obs_index & 1) == (env.state.sun, env.state.target)
            return env.state.sun, env.state.target

        assert access(0.30)[1] == 1
        assert access(0.50)[1] == 0
        assert access(0.10) == (1, 0)
        assert access(0.90)[0] == 0

    def test_randomized_windows_differ_between_episodes(self):
        env = SpacecraftEnv(EnvParams(randomize_windows=True), DISCRETIZER)
        draws = EpisodeDraws(0, 64)
        env.reset(draws)
        w1 = env._windows
        env.reset(draws)
        w2 = env._windows
        assert w1 != w2
        for lo, hi in w1:
            assert hi - lo == pytest.approx(env.params.window_width)


class TestSampleInCell:
    BOUNDS = ((0.0, 0.0025), (0.0, 0.2), (0.4, 0.6))

    def sample(self, n, seed):
        """One row in BOUNDS, from the stream of ``default_rng(seed)``."""
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        return env.sample_in_cell(np.array([self.BOUNDS]), n, RowStreams.seeded(seed))

    def test_bounds_respected(self):
        batch = self.sample(5000, 0)
        assert (batch["wheel"] >= 0.0).all() and (batch["wheel"] < 0.2).all()
        assert (batch["charge"] >= 0.4).all() and (batch["charge"] < 0.6).all()
        assert (batch["rate"] >= 0.0).all() and (batch["rate"] < 0.0025).all()

    def test_uniform_mean(self):
        batch = self.sample(10_000, 1)
        # mean within 3 standard errors of the cell midpoint
        se = (0.6 - 0.4) / np.sqrt(12) / np.sqrt(10_000)
        assert abs(batch["charge"].mean() - 0.5) < 3 * se

    def test_seed_reproducible(self):
        b1 = self.sample(100, 3)
        b2 = self.sample(100, 3)
        for key in b1:
            assert np.array_equal(b1[key], b2[key])

    def test_hidden_coordinates_randomized(self):
        env = SpacecraftEnv(EnvParams(), DISCRETIZER)
        n = 2000
        batch = self.sample(n, 4)
        lo, hi = env.params.sample_pointing_error
        assert batch["err"].min() >= lo and batch["err"].max() <= hi
        assert batch["err"].std() > 0.01
        # the flight mode is drawn but skipped: the step never reads it
        assert "mode" not in batch
        skipped = np.random.PCG64([4]).random_raw(6 * n)[5 * n:]
        assert set(np.unique(lemire_modes(skipped, n))) == {0, 1, 2, 3}
        minutes = batch["minutes"] / env.params.orbit_minutes
        assert minutes.min() >= 0.0 and minutes.max() < 1.0
        assert minutes.min() < 0.01 and minutes.max() > 0.99  # the whole orbit
        # the step's noise uniforms are drawn here too
        assert batch["u"].shape == (3, 2000)
        assert 0.0 <= batch["u"].min() and batch["u"].max() < 1.0


class TestLabelPartitionConsistency:
    def test_safety_labels_match_cells(self):
        partition = make_partition()
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        rng = np.random.default_rng(8)
        table = proposition_table()
        safety_mask = (1 << table.names.index("p1")) | (1 << table.names.index("p2"))
        for _ in range(2000):
            err = rng.uniform(0, 0.1)
            rate = rng.uniform(0, 0.01)
            wheel = rng.uniform(0, 0.999)
            charge = rng.uniform(1e-6, 1.0)
            _obs, cell, labels, _failed = env._enter(
                err, rate, wheel, charge, 0.0, int(rng.integers(4))
            )
            assert cell == partition.locate_one(rate, wheel, charge) >= 0
            assert labels & safety_mask == partition.labels[cell]


class TestTruncatedNormal:
    def test_clipped_at_three_sigma(self):
        draws = np.asarray(truncated_normal(np.random.default_rng(0), 100_000))
        assert draws.min() >= -3.0 and draws.max() <= 3.0
        assert abs(draws.mean()) < 0.02

    def test_scalar_draw_matches_batch_expression_bitwise(self):
        """The per-step draw and `SpacecraftEnv.step_batch`'s array
        expression turn the same uniforms into the same bits."""
        n = 100_000
        draws = truncated_normal(np.random.default_rng(5), n)
        u = np.random.default_rng(5).random(n)
        batch = ndtri(env_mod._PHI_LO + u * env_mod._PHI_WIDTH)
        assert np.array_equal(np.asarray(draws).view(np.uint64), batch.view(np.uint64))

    def test_cdf_constants_are_scipys_ndtr_bit_for_bit(self):
        # literals, so importing the env does not import scipy
        assert env_mod._PHI_LO.hex() == float(ndtr(-3.0)).hex()
        assert env_mod._PHI_WIDTH.hex() == float(ndtr(3.0) - ndtr(-3.0)).hex()


ROOT = Path(__file__).resolve().parent.parent

# imports the package and runs what draws no noise (the specs, the
# partition, `compile` and `shield` on a two-state MDP), then one episode's
# draws; prints the scipy modules loaded before and after the draws
_STARTUP_CODE = """
import json, sys
import shieldcraft
from shieldcraft import cli
from shieldcraft.abstraction import make_partition
from shieldcraft.pipeline import build_specs, default_config

build_specs(default_config("complex"))
make_partition()
spec = sys.argv[1] + "/power_wheel_safety.ltl"
assert cli.main(["compile", "--spec", spec]) == 0
assert cli.main(["shield", "--mdp", "mdp.json", "--spec", spec, "--kind", "one",
                 "--out", "shield.json"]) == 0

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

before = loaded()
from shieldcraft.env import EpisodeDraws
EpisodeDraws([0], 8)
print(json.dumps([before, loaded()]))
"""


def test_scipy_loads_at_the_first_noise_draw(tmp_path):
    mdp = {"states": {"count": 2}, "actions": ["a"],
           "transitions": [[0, 0, 0, 0.5], [0, 0, 1, 0.5], [1, 0, 1, 1.0]],
           "labels": [[1, ["p1"]]], "atoms": ["p1", "p2"]}
    (tmp_path / "mdp.json").write_text(json.dumps(mdp))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_CODE, str(ROOT / "specs")],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    before, after = json.loads(proc.stdout.splitlines()[-1])
    assert before == []
    assert "scipy.special" in after


def _uniform_reset(params, rng):
    """The start values of a reset drawn one `Generator.uniform` call each:
    (window starts when randomized, pointing error, rate, wheel, charge)."""
    draws = []
    if params.randomize_windows:
        draws.append(rng.uniform(0.05, 0.45))
        draws.append(rng.uniform(0.55, 0.95 - params.window_width))
    for bounds in (params.init_pointing_error, params.init_rate,
                   params.init_wheel, params.init_charge):
        draws.append(rng.uniform(*bounds))
    return draws


def _start_values(env):
    st = env.state
    values = [st.pointing_error, st.attitude_rate, st.wheel_speed, st.charge]
    if env.params.randomize_windows:
        values = [env._windows[0][0], env._windows[1][0], *values]
    return values


class TestResetDraw:
    @pytest.mark.parametrize("randomize", [False, True])
    def test_one_call_equals_uniform_calls_bitwise(self, randomize):
        env = SpacecraftEnv(EnvParams(randomize_windows=randomize), DISCRETIZER)
        for seed in range(10_000):
            want_rng = np.random.default_rng([seed, 3])
            want = _uniform_reset(env.params, want_rng)
            draws = EpisodeDraws([seed, 3], RESET_DRAWS + 1)
            env.reset(draws)
            got = _start_values(env)
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64)), seed
            # the stream continues where the uniform calls left it
            assert draws.random() == want_rng.random(), seed


class TestNoiseBlock:
    STEPS = (7, 10, 25)
    # one block holds the reset and the noise of the longest rollout
    BLOCK = RESET_DRAWS + 3 * max(STEPS)

    def _rollout(self, params, seed, steps, draws):
        env = SpacecraftEnv(params, DISCRETIZER)
        actions = np.random.default_rng(seed).integers(0, 4, steps).tolist()
        trace = [(env.reset(draws), tuple(_start_values(env)))]
        for action in actions:
            _, _, labels, failed = env.step(action, draws)
            trace.append((labels, failed, dataclasses.astuple(env.state)))
        return trace

    @pytest.mark.parametrize("randomize", [False, True])
    @pytest.mark.parametrize("steps", STEPS)
    def test_block_steps_equal_per_step_draws(self, steps, randomize):
        # rollouts that read part of the block, and with randomized windows
        # one that reads all of it
        params = EnvParams(randomize_windows=randomize)
        for seed in range(20):
            words = [seed, 3]
            per_step = self._rollout(params, seed, steps, GeneratorDraws(words))
            block = EpisodeDraws(words, self.BLOCK)
            assert self._rollout(params, seed, steps, block) == per_step


NAN = float("nan")
INF = float("inf")


class TestEnvParamsValidation:
    """Degenerate orbit, window, range and per-mode values fail at
    construction with the field and its value named; before this check
    they raised mid-episode or silently gave an episode without sun or
    target."""

    BAD = [
        ("orbit_minutes", 0.0),
        ("orbit_minutes", -271.0),
        ("orbit_minutes", NAN),
        ("orbit_minutes", INF),
        ("step_minutes", 0.0),
        ("step_minutes", -3.0),
        ("step_minutes", NAN),
        ("step_minutes", INF),
        ("sun_window", (0.72, 0.0)),
        ("sun_window", (0.5, 0.5)),
        ("sun_window", (-0.1, 0.5)),
        ("sun_window", (0.2, 1.2)),
        ("sun_window", (NAN, 0.5)),
        ("target_windows", ((0.25, 0.35), (0.80, 0.70))),
        ("target_windows", ((0.9, 1.1),)),
        ("init_pointing_error", (0.10, 0.02)),
        ("init_rate", (NAN, 0.004)),
        ("init_wheel", (0.3, INF)),
        ("init_charge", (0.95, 0.55)),
        ("sample_pointing_error", (0.15, 0.0)),
        ("solar_gain", (0.06, 0.0, 0.0)),
        ("error_noise", (0.0015, 0.002, 0.002, 0.002, 0.002)),
        ("rate_noise", (NAN, 0.0006, 0.0004, 0.0004)),
        ("solar_gain", (0.06, INF, 0.0, 0.0)),
        ("error_keep", (1.0, 1.0, 0.45, -INF)),
    ]
    BAD_RANDOMIZED_WIDTH = [0.6, 0.4, 0.0, -0.1, NAN]

    @staticmethod
    def _raises(make, field, value):
        with pytest.raises(ValueError, match=field) as info:
            make()
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize(("field", "value"), BAD)
    def test_bad_value_named(self, field, value):
        self._raises(lambda: EnvParams(**{field: value}), field, value)

    @pytest.mark.parametrize(("field", "value"), BAD)
    def test_bad_value_named_through_config_from_dict(self, field, value):
        from shieldcraft.pipeline import config_from_dict

        # a JSON config gives lists where the dataclass holds tuples
        def listed(v):
            return [listed(x) for x in v] if isinstance(v, tuple) else v

        self._raises(lambda: config_from_dict({"env": {field: listed(value)}}), field, value)

    @pytest.mark.parametrize("width", BAD_RANDOMIZED_WIDTH)
    def test_randomized_window_width(self, width):
        from shieldcraft.pipeline import config_from_dict

        self._raises(
            lambda: EnvParams(randomize_windows=True, window_width=width), "window_width", width
        )
        self._raises(
            lambda: config_from_dict({"env": {"randomize_windows": True, "window_width": width}}),
            "window_width", width,
        )

    def test_fixed_windows_ignore_width(self):
        # the width only sizes randomized windows
        assert EnvParams(window_width=0.6).window_width == 0.6

    def test_edge_values_accepted(self):
        EnvParams(sun_window=(0.0, 1.0), target_windows=((0.0, 0.01), (0.99, 1.0)),
                  init_rate=(0.004, 0.004), randomize_windows=True, window_width=0.39)
        EnvParams(target_windows=())
