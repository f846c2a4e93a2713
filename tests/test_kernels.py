"""The dynamics kernel: hand-computed steps, scalar/batch agreement, the
scalar clamps against ``np.minimum``/``np.maximum``, and the module names the
benchmark's tracer wraps."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shieldcraft import _kernels
from shieldcraft.abstraction import make_partition
from shieldcraft.env import EnvParams, EpisodeDraws, RowStreams, SpacecraftEnv
from shieldcraft.learner import Discretizer, SpacecraftSession

# One step per action under the default EnvParams coefficients, worked by
# hand from the update rules in env.py. Each case drives one coordinate
# into its clamp.
#   inputs: (rate, wheel, charge, err, sun, action, e_w, e_r, e_a)
#   expected: (rate, wheel, charge, err)
HAND_STEPS = [
    # charge: gain 0.060, drain 0.006, wheel drift 0.001 / noise 0.002,
    # rate pull 0.25 to 0.003 / noise 0.0005, keep 1.0, drift 0.003, noise 0.0015
    (
        (0.004, 0.5, 0.98, 0.05, 1.0, 0, 1.0, -1.0, 0.5),
        # charge min(1, 0.98 + 0.06 - 0.006 = 1.034) clamps to 1
        (0.00325, 0.503, 1.0, 0.05375),
    ),
    # dump: drain 0.020, wheel drift -0.100 / noise 0.015,
    # rate pull 0.30 to 0.004 / noise 0.0006, keep 1.0, drift 0.004, noise 0.002
    (
        (0.004, 0.05, 0.6, 0.05, 0.0, 1, 0.5, 2.0, -1.0),
        # wheel max(0, 0.05 - 0.1 + 0.0075 = -0.0425) clamps to 0
        (0.0052, 0.0, 0.58, 0.052),
    ),
    # image_a: drain 0.025, wheel drift 0.070 / noise 0.030,
    # rate pull 0.50 to 0.001 / noise 0.0004, keep 0.45, drift 0.001, noise 0.002
    (
        (0.0005, 0.5, 0.6, 0.05, 1.0, 2, 1.0, -3.0, 0.5),
        # rate max(0, 0.0005 + 0.00025 - 0.0012 = -0.00045) clamps to 0
        (0.0, 0.6, 0.575, 0.0245),
    ),
    # image_b: the same coefficients as image_a
    (
        (0.004, 0.3, 0.4, 0.0, 1.0, 3, -1.0, 1.0, -3.0),
        # err max(0, 0.45 * 0 + 0.001 - 0.006 = -0.005) clamps to 0
        (0.0029, 0.34, 0.375, 0.0),
    ),
]


def _random_inputs(rng, n):
    return {
        "rate": rng.uniform(0, 0.01, n),
        "wheel": rng.uniform(0, 1.1, n),
        "charge": rng.uniform(-0.05, 1.0, n),
        "err": rng.uniform(0, 0.2, n),
        "sun": rng.integers(0, 2, n).astype(np.float64),
        "action": rng.integers(0, 4, n),
        "e_w": rng.standard_normal(n).clip(-3, 3),
        "e_r": rng.standard_normal(n).clip(-3, 3),
        "e_a": rng.standard_normal(n).clip(-3, 3),
    }


def _run(inputs, par):
    rate = inputs["rate"].copy()
    wheel = inputs["wheel"].copy()
    charge = inputs["charge"].copy()
    err = inputs["err"].copy()
    _kernels.step_batch(
        rate, wheel, charge, err, inputs["sun"], inputs["action"],
        inputs["e_w"], inputs["e_r"], inputs["e_a"], par,
    )
    return rate, wheel, charge, err


def _step_one(rate, wheel, charge, err, sun, action, e_w, e_r, e_a, par):
    """`step_one` under ``action``, with the coefficients read from ``par``."""
    coef = _kernels.action_rows(par)[action]
    return _kernels.step_one(rate, wheel, charge, err, sun, coef, e_w, e_r, e_a)


class TestHandComputedSteps:
    def test_step_one(self):
        par = EnvParams().param_vector()
        for args, expected in HAND_STEPS:
            got = _step_one(*args, par)
            assert got == pytest.approx(expected, abs=1e-15), args
            # clamped coordinates are exact
            for g, e in zip(got, expected):
                if e in (0.0, 1.0):
                    assert g == e, args

    def test_step_batch(self):
        par = EnvParams().param_vector()
        columns = list(zip(*(args for args, _expected in HAND_STEPS)))
        names = ("rate", "wheel", "charge", "err", "sun", "action", "e_w", "e_r", "e_a")
        inputs = {name: np.asarray(col, dtype=np.float64) for name, col in zip(names, columns)}
        inputs["action"] = inputs["action"].astype(np.int64)
        batch = _run(inputs, par)
        for i, (args, expected) in enumerate(HAND_STEPS):
            got = tuple(float(coord[i]) for coord in batch)
            assert got == pytest.approx(expected, abs=1e-15), args


class TestPureLane:
    def test_batch_matches_scalar(self, rng):
        par = EnvParams().param_vector()
        inputs = _random_inputs(rng, 32)
        batch = _run(inputs, par)
        for i in range(32):
            one = _step_one(
                inputs["rate"][i], inputs["wheel"][i], inputs["charge"][i],
                inputs["err"][i], inputs["sun"][i], int(inputs["action"][i]),
                inputs["e_w"][i], inputs["e_r"][i], inputs["e_a"][i], par,
            )
            assert one == (batch[0][i], batch[1][i], batch[2][i], batch[3][i])

    def test_clamps(self):
        par = EnvParams().param_vector()
        # dumping from a low wheel speed cannot go negative; charging a
        # full battery stays at 1
        rate, wheel, charge, err = _step_one(
            0.0, 0.01, 1.0, 0.0, 1.0, 1, 0.0, -3.0, -3.0, par,
        )
        assert wheel == 0.0
        assert rate == 0.0 and err == 0.0
        rate, wheel, charge, err = _step_one(
            0.005, 0.5, 0.999, 0.05, 1.0, 0, 0.0, 0.0, 0.0, par,
        )
        assert charge == 1.0


def _step_batch_one(rate, wheel, charge, err, sun, coef, e_w, e_r, e_a):
    """`step_batch` on one-element arrays, under the action whose row of
    `action_rows` is ``coef``."""
    par = np.array(coef, dtype=np.float64).repeat(4)  # every action has these
    state = [np.array([x], dtype=np.float64) for x in (rate, wheel, charge, err)]
    with np.errstate(all="ignore"):  # the inputs hold infinities and NaNs on purpose
        _kernels.step_batch(
            *state, np.array([sun], dtype=np.float64), np.zeros(1, dtype=np.int64),
            *(np.array([x], dtype=np.float64) for x in (e_w, e_r, e_a)), par,
        )
    return tuple(float(x[0]) for x in state)


def _same(a: float, b: float) -> bool:
    """Equal bits, or both NaN (whose payload numpy need not keep)."""
    return struct.pack("<d", a) == struct.pack("<d", b) or (a != a and b != b)


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, float("nan"), float("inf"), float("-inf")])
VALUE = st.one_of(st.floats(-2.0, 2.0), SPECIAL)
# the four actions' rows, and one of negative zeros under which the
# updates can produce -0.0
COEFS = st.sampled_from([*_kernels.action_rows(EnvParams().param_vector()), (-0.0,) * 10])


@settings(max_examples=500, deadline=None)
@given(state=st.tuples(VALUE, VALUE, VALUE, VALUE), sun=st.sampled_from([0, 1, 0.0, 1.0]),
       coef=COEFS, noise=st.tuples(VALUE, VALUE, VALUE))
@example(state=(-0.0,) * 4, sun=0, coef=(-0.0,) * 10, noise=(1.0, 1.0, 1.0))
def test_clamps_equal_min_max_bitwise(state, sun, coef, noise):
    """The scalar kernel's conditional clamps give the bits `step_batch`'s
    ``np.minimum`` and ``np.maximum`` give, infinities and signed zeros
    included, and a NaN wherever they give one; an int sun gives the bits
    of a float one."""
    got = _kernels.step_one(*state, sun, coef, *noise)
    want = _step_batch_one(*state, sun, coef, *noise)
    assert all(map(_same, got, want)), (got, want)


def test_nan_state_stays_nan():
    """A NaN state stays NaN on both paths; it does not clamp to a safe,
    fully charged state."""
    coef = _kernels.action_rows(EnvParams().param_vector())[0]
    nan = float("nan")
    for got in (_kernels.step_one(nan, nan, nan, nan, 1.0, coef, 0.0, 0.0, 0.0),
                _step_batch_one(nan, nan, nan, nan, 1.0, coef, 0.0, 0.0, 0.0)):
        assert all(x != x for x in got), got


class TestBenchmarkContract:
    """perfbench reads ``USING_COMPILED`` and times the kernel by replacing
    ``step_one`` and ``step_batch`` on the module, so the environment and
    the session must call them through the module attribute."""

    def test_env_calls_through_module(self, monkeypatch):
        assert _kernels.USING_COMPILED is False
        calls = {"step_one": 0, "step_batch": 0}

        def counting(name):
            original = getattr(_kernels, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(_kernels, "step_one", counting("step_one"))
        monkeypatch.setattr(_kernels, "step_batch", counting("step_batch"))
        env = SpacecraftEnv()
        draws = EpisodeDraws(0, 16)
        env.reset(draws)
        env.step(2, draws)
        assert calls == {"step_one": 1, "step_batch": 0}
        cell = ((0.0, 0.0025), (0.2, 0.4), (0.4, 0.6))
        env.step_batch(env.sample_in_cell(np.array([cell]), 8, RowStreams.seeded(0)),
                       np.full(8, 1))
        assert calls == {"step_one": 1, "step_batch": 1}
        # the session's one-frame episode step calls the kernel once too
        session = SpacecraftSession(SpacecraftEnv(), Discretizer(make_partition()))
        session.reset(draws)
        session.step(3, draws)
        assert calls == {"step_one": 2, "step_batch": 1}
