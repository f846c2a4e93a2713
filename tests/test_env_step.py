"""`SpacecraftEnv.step` and `reset`, which end in the env's one outcome
block (`_enter`), against their references, `oracles.reference_step` and
`oracles.reference_reset`, on a twin environment with twin draws. The
outcome must be equal and the states bitwise equal: for steps whose next
values sit on every interior edge and label or failure threshold, for
non-finite states and for all four actions; for resets whose start values
sit on every interior edge, label threshold and domain bound, one ulp to
either side; with fixed and randomized windows and default and fine
partitions."""

import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_reset, reference_step
from shieldcraft import _kernels
from shieldcraft.abstraction import PartitionSpec, make_partition
from shieldcraft.env import (
    CHARGE_FLOOR,
    POINTING_EDGES,
    POINTING_TOL,
    RATE_LIMIT,
    RATE_TOL,
    RESET_DRAWS,
    WHEEL_CEIL,
    WHEEL_LIMIT,
    Discretizer,
    EnvParams,
    EpisodeDraws,
    SpacecraftEnv,
)

PARTITIONS = {
    "default_4x5x5": make_partition(),
    "fine_10x10x15": make_partition(
        PartitionSpec(
            attitude_rate_edges=tuple(np.linspace(0.0, 0.01, 11)),
            wheel_edges=tuple(np.linspace(0.0, 1.0, 11)),
            charge_edges=tuple(np.linspace(0.0, 1.0, 16)),
        )
    ),
}
FIELDS = ("attitude_rate", "wheel_speed", "charge", "pointing_error")
NON_FINITE = (math.nan, math.inf, -math.inf)
BLOCK = RESET_DRAWS + 3


def _targets(partition) -> list[list[float]]:
    """Per coordinate, in `step_one`'s order (rate, wheel, charge, err), the
    next values where a bin, label or failure test changes, each with its
    neighbours one ulp away."""
    rate, wheel, charge = partition.interior_edges
    axes = (
        (*rate, RATE_TOL, RATE_LIMIT),
        (*wheel, WHEEL_CEIL, WHEEL_LIMIT),
        (*charge, CHARGE_FLOOR, 0.0),
        POINTING_EDGES,
    )
    return [sorted({v for e in edges for v in _around(e)}) for edges in axes]


def _around(e):
    if e == 0.0:
        # charge - drain steps by 2**-60 at the charge mode's drain 0.006
        return -(2.0**-60), 0.0, 2.0**-60
    return math.nextafter(e, -math.inf), float(e), math.nextafter(e, math.inf)


TARGETS = {name: _targets(p) for name, p in PARTITIONS.items()}


def _twins(params, partition, seed):
    """An env and a reference twin, reset from twin draws, and the noise
    deviates their next step reads."""
    env, ref, peeker = (SpacecraftEnv(params, Discretizer(partition)) for _ in range(3))
    words = [seed, 3]
    draws, ref_draws, peek = (EpisodeDraws(words, BLOCK) for _ in range(3))
    env.reset(draws)
    ref.reset(ref_draws)
    peeker.reset(peek)
    return env, draws, ref, ref_draws, peek.noise()


def _solve(f, target: float, x: float) -> float:
    """A value near ``x`` that the monotone ``f`` takes to ``target``, found
    by ulp steps; the nearest one tried when rounding skips the target."""
    for _ in range(200):
        y = f(x)
        if y == target:
            break
        x = math.nextafter(x, math.inf if y < target else -math.inf)
    return x


def _pinned(state: list, axis: int, target: float, params, coef, noise) -> float:
    """The value of ``state[axis]`` whose step lands the coordinate (axes
    0-3, `step_one`'s order) or the orbit phase (axis 4, from the minutes)
    on ``target``: the inverse of the update rule, then ulp steps."""
    if axis == 4:
        orbit, step = params.orbit_minutes, params.step_minutes
        return _solve(lambda m: ((m + step) % orbit) / orbit, target,
                      (target * orbit - step) % orbit)
    gain, drain, w_drift, w_noise, r_pull, r_target, r_noise, e_keep, e_drift, e_noise = coef
    e_w, e_r, e_a = noise
    guess = (
        (target - r_noise * e_r - r_pull * r_target) / (1.0 - r_pull),
        target - w_noise * e_w - w_drift,
        target - gain * state[4] + drain,
        (target - e_noise * e_a - e_drift) / e_keep,
    )[axis]

    def step(x):
        args = state[:5]
        args[axis] = x
        return _kernels.step_one(*args, coef, *noise)[axis]

    return _solve(step, target, guess)


def _bits(state) -> tuple:
    return tuple(
        (type(v), struct.pack("<d", v) if isinstance(v, float) else v)
        for v in dataclasses.astuple(state)
    )


def check_step(params, partition_name, seed, state, action, pin=None):
    """Step the env and the reference from ``state`` (rate, wheel,
    charge, err, sun, target, mode, minutes); ``pin`` is an (axis, target)
    of `_pinned`, solved so that the next value is the target. Returns
    whether the pinned value landed on its target."""
    partition = PARTITIONS[partition_name]
    env, draws, ref, ref_draws, noise = _twins(params, partition, seed)
    state = list(state)
    if pin is not None:
        axis, target = pin
        value = _pinned(state, axis, target, params, ref._coef[action], noise)
        state[7 if axis == 4 else axis] = value
    for twin in (env, ref):
        for name, value in zip(FIELDS, state[:4]):
            setattr(twin.state, name, value)
        twin.state.sun, twin.state.target, twin.state.mode, twin.state.minutes = state[4:]

    got = env.step(action, draws)
    want = reference_step(ref, action, ref_draws)
    assert got == want
    assert [type(v) for v in got] == [int, int, int, bool]
    assert _bits(env.state) == _bits(ref.state)
    if pin is None:
        return True
    if pin[0] == 4:
        orbit = params.orbit_minutes
        return (ref.state.minutes % orbit) / orbit == pin[1]
    return getattr(ref.state, FIELDS[pin[0]]) == pin[1]


PARAMS = {"fixed": EnvParams(), "randomized": EnvParams(randomize_windows=True)}


@pytest.mark.parametrize("windows", sorted(PARAMS))
@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_every_edge_and_threshold(name, windows):
    for axis, targets in enumerate(TARGETS[name]):
        for target in targets:
            landed = False
            for seed, action, sun in itertools.product(range(3), range(4), (0, 1)):
                state = [0.003, 0.5, 0.5, 0.02, sun, 1, 0, 75.0]
                landed |= check_step(PARAMS[windows], name, seed, state, action, (axis, target))
            # rounding skips some targets under some noise, actions and sun;
            # none under all
            assert landed, (axis, target)


def _window_bounds(params, seed) -> list[float]:
    """The phases where sun or target access begins or ends, in the
    episode of ``seed``."""
    env = SpacecraftEnv(params, Discretizer(PARTITIONS["default_4x5x5"]))
    env.reset(EpisodeDraws([seed, 3], BLOCK))
    return [b for window in (params.sun_window, *env._windows) for b in window]


@pytest.mark.parametrize("windows", sorted(PARAMS))
def test_every_window_bound(windows):
    params = PARAMS[windows]
    for seed in range(3):
        for bound in _window_bounds(params, seed):
            for sun, action in itertools.product((0, 1), range(4)):
                state = [0.001, 0.5, 0.5, 0.005, sun, 0, 0, 0.0]
                assert check_step(params, "default_4x5x5", seed, state, action, (4, bound)), (
                    seed, bound
                )


def _coordinate(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(NON_FINITE))


STATES = st.tuples(
    _coordinate(-0.001, 0.012),
    _coordinate(-0.1, 1.1),
    _coordinate(-0.1, 1.1),
    _coordinate(0.0, 0.15),
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 3),
    st.floats(0.0, 5000.0),
)


@pytest.mark.parametrize("windows", sorted(PARAMS))
@pytest.mark.parametrize("name", sorted(PARTITIONS))
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), state=STATES, action=st.integers(0, 3), data=st.data())
def test_random_states(name, windows, seed, state, action, data):
    pin = None
    if data.draw(st.booleans()):
        axis = data.draw(st.integers(0, 3))
        pin = (axis, data.draw(st.sampled_from(TARGETS[name][axis])))
    check_step(PARAMS[windows], name, seed, state, action, pin)


# --- the reset -------------------------------------------------------------

# each start coordinate's init range, and its value in the rows of _targets
INIT_FIELDS = ("init_rate", "init_wheel", "init_charge", "init_pointing_error")


def _start_values(partition) -> list[list[float]]:
    """Per coordinate (rate, wheel, charge, err), the start values where a
    bin, label or failure test changes or the safe domain ends, each with
    its neighbours one ulp away."""
    rate, wheel, charge = partition.interior_edges
    axes = (
        (*rate, RATE_TOL, 0.0, RATE_LIMIT),
        (*wheel, WHEEL_CEIL, 0.0, WHEEL_LIMIT),
        (*charge, CHARGE_FLOOR, 0.0, 1.0),
        (*POINTING_EDGES, POINTING_TOL, 0.0),
    )
    return [
        sorted({v for e in edges
                for v in (math.nextafter(e, -math.inf), float(e), math.nextafter(e, math.inf))})
        for edges in axes
    ]


STARTS = {name: _start_values(p) for name, p in PARTITIONS.items()}


def check_reset(params, partition_name, seed):
    """Reset the env and the reference from twin draws; returns the env's
    start state."""
    partition = PARTITIONS[partition_name]
    env, ref = (SpacecraftEnv(params, Discretizer(partition)) for _ in range(2))
    draws, ref_draws = (EpisodeDraws([seed, 3], BLOCK) for _ in range(2))
    got = env.reset(draws)
    want = reference_reset(ref, ref_draws)
    assert got == want
    assert [type(v) for v in got] == [int, int, int, bool]
    assert _bits(env.state) == _bits(ref.state)
    assert env._windows == ref._windows
    # both leave the stream at the same position
    assert draws.random() == ref_draws.random()
    return env.state


@pytest.mark.parametrize("windows", sorted(PARAMS))
@pytest.mark.parametrize("name", sorted(PARTITIONS))
def test_reset_on_every_edge_threshold_and_bound(name, windows):
    for axis, starts in enumerate(STARTS[name]):
        for value in starts:
            # lo == hi puts the start coordinate on the value exactly
            params = dataclasses.replace(PARAMS[windows], **{INIT_FIELDS[axis]: (value, value)})
            for seed in range(3):
                state = check_reset(params, name, seed)
                assert getattr(state, FIELDS[axis]) == value


@pytest.mark.parametrize("windows", sorted(PARAMS))
@pytest.mark.parametrize("name", sorted(PARTITIONS))
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_random_resets(name, windows, seed, data):
    # start ranges anywhere around the safe domain, some of them one point
    ranges = {}
    for field, (lo, hi) in zip(INIT_FIELDS, ((-0.001, 0.012), (-0.1, 1.1), (-0.1, 1.1),
                                             (0.0, 0.15))):
        a, b = sorted(data.draw(st.tuples(st.floats(lo, hi), st.floats(lo, hi))))
        ranges[field] = (a, a) if data.draw(st.booleans()) else (a, b)
    check_reset(dataclasses.replace(PARAMS[windows], **ranges), name, seed)

