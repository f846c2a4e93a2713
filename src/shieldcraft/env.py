"""Surrogate spacecraft operations environment.

A deliberately small discrete-time stand-in for a full astrodynamics
simulator: four flight modes acting on four safety-relevant continuous
quantities (pointing error [rad], attitude rate [rad/s], wheel-speed
fraction, stored-charge fraction) plus an orbit phase clock that drives
sun and imaging-target access windows. One decision step is three minutes.

Per step, with mode-dependent coefficients and truncated-Gaussian noise
e ~ N(0,1) clipped to +-3 sigma (sampled by inverse CDF):

    charge' = min(1, charge + solar_gain*sun - power_drain)
    wheel'  = max(0, wheel + wheel_drift + wheel_noise*e)
    rate'   = max(0, rate + rate_pull*(rate_target - rate) + rate_noise*e)
    error'  = max(0, error_keep*error + error_drift + error_noise*e)

Charging tops the battery up in sunlight and trickles momentum into the
wheels; momentum dumping burns charge to shed wheel speed and perturbs the
attitude; the imaging modes drive pointing error and attitude rate down
toward imaging tolerance while building wheel momentum and draining
charge. The craft fails (leaves its safe operating domain) when charge is
exhausted, the wheels saturate, or the attitude rate exceeds its bound.

Labelled regions over the observation:
    p0  good image in either imaging mode (error < 0.008, rate < 0.002,
        imaging mode selected, target accessible)
    p1  stored charge below 20%
    p2  wheel speed above 80%
    p3  p0 restricted to imaging mode A
    p4  p0 restricted to imaging mode B
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import _kernels
from .ltl import PropositionTable

MODES = ("charge", "dump", "image_a", "image_b")
ATOM_NAMES = ("p0", "p1", "p2", "p3", "p4")

RATE_LIMIT = 0.01    # rad/s, safe-domain bound on attitude rate
WHEEL_LIMIT = 1.0    # wheel-speed fraction at saturation
POINTING_TOL = 0.008  # rad, image quality gate on pointing error
RATE_TOL = 0.002      # rad/s, image quality gate on attitude rate
CHARGE_FLOOR = 0.2    # p1 region boundary
WHEEL_CEIL = 0.8      # p2 region boundary

_NOISE_CLIP = 3.0
# Python floats, so the per-step scalar draw makes no numpy scalar op
_PHI_LO = float(ndtr(-_NOISE_CLIP))
_PHI_WIDTH = float(ndtr(_NOISE_CLIP) - ndtr(-_NOISE_CLIP))


def proposition_table() -> PropositionTable:
    return PropositionTable(ATOM_NAMES)


@dataclass(frozen=True)
class EnvParams:
    """All tunables of the surrogate; per-mode tuples are ordered as MODES."""

    orbit_minutes: float = 271.0
    step_minutes: float = 3.0
    sun_window: tuple[float, float] = (0.0, 0.72)
    target_windows: tuple[tuple[float, float], ...] = ((0.25, 0.35), (0.70, 0.80))
    randomize_windows: bool = False
    window_width: float = 0.10

    solar_gain: tuple[float, float, float, float] = (0.060, 0.0, 0.0, 0.0)
    power_drain: tuple[float, float, float, float] = (0.006, 0.020, 0.025, 0.025)
    wheel_drift: tuple[float, float, float, float] = (0.001, -0.100, 0.070, 0.070)
    wheel_noise: tuple[float, float, float, float] = (0.002, 0.015, 0.030, 0.030)
    rate_pull: tuple[float, float, float, float] = (0.25, 0.30, 0.50, 0.50)
    rate_target: tuple[float, float, float, float] = (0.0030, 0.0040, 0.0010, 0.0010)
    rate_noise: tuple[float, float, float, float] = (0.0005, 0.0006, 0.0004, 0.0004)
    error_keep: tuple[float, float, float, float] = (1.0, 1.0, 0.45, 0.45)
    error_drift: tuple[float, float, float, float] = (0.003, 0.004, 0.001, 0.001)
    error_noise: tuple[float, float, float, float] = (0.0015, 0.002, 0.002, 0.002)

    init_pointing_error: tuple[float, float] = (0.02, 0.10)
    init_rate: tuple[float, float] = (0.0005, 0.0040)
    init_wheel: tuple[float, float] = (0.30, 0.60)
    init_charge: tuple[float, float] = (0.55, 0.95)
    # hidden-coordinate ranges used when sampling inside an abstraction cell
    sample_pointing_error: tuple[float, float] = (0.0, 0.15)

    def param_vector(self) -> np.ndarray:
        rows = (
            self.solar_gain, self.power_drain,
            self.wheel_drift, self.wheel_noise,
            self.rate_pull, self.rate_target, self.rate_noise,
            self.error_keep, self.error_drift, self.error_noise,
        )
        for row in rows:
            if len(row) != len(MODES):
                raise ValueError("per-mode coefficient tuples must have 4 entries")
        return np.asarray([v for row in rows for v in row], dtype=np.float64)


@dataclass
class SpacecraftState:
    pointing_error: float
    attitude_rate: float
    wheel_speed: float
    charge: float
    sun: int
    target: int
    mode: int
    minutes: float


def truncated_normal(rng, n: int) -> list[float]:
    """Standard normal truncated to +-3 sigma via inverse CDF; one uniform
    draw per sample, so the stream layout is schedule-independent. Each
    sample is computed on Python floats, with the same IEEE operations as
    `_noise`, which is faster from a few dozen samples on."""
    return [float(ndtri(_PHI_LO + u * _PHI_WIDTH)) for u in rng.random(n).tolist()]


def _noise(u: np.ndarray) -> np.ndarray:
    """`truncated_normal`'s deviates of an array of uniforms."""
    return ndtri(_PHI_LO + u * _PHI_WIDTH)


def _noise_block(rng, steps: int):
    """The (e_w, e_r, e_a) deviates of the next ``steps`` steps, drawn in
    one call; an iterator of triples."""
    deviates = iter(_noise(rng.random(3 * steps)).tolist())
    return zip(deviates, deviates, deviates)


def is_failure(rate: float, wheel: float, charge: float) -> bool:
    """Exit from the safe operating domain; a non-finite coordinate is an
    exit too."""
    finite = math.isfinite(rate) and math.isfinite(wheel) and math.isfinite(charge)
    return not finite or charge <= 0.0 or wheel >= WHEEL_LIMIT or rate > RATE_LIMIT


def _in_windows(frac: float, windows) -> bool:
    for lo, hi in windows:
        if lo <= frac < hi:
            return True
    return False


def label(state: SpacecraftState) -> int:
    """The label bitmask over ATOM_NAMES."""
    good_pointing = (
        state.pointing_error < POINTING_TOL
        and state.attitude_rate < RATE_TOL
        and state.target == 1
    )
    mask = 0
    if good_pointing and state.mode in (2, 3):
        mask |= 1 << 0
    if state.charge < CHARGE_FLOOR:
        mask |= 1 << 1
    if state.wheel_speed > WHEEL_CEIL:
        mask |= 1 << 2
    if good_pointing and state.mode == 2:
        mask |= 1 << 3
    if good_pointing and state.mode == 3:
        mask |= 1 << 4
    return mask


def observation(state: SpacecraftState) -> list[float]:
    """The observation vector of a recorded trajectory row: (pointing_error,
    attitude_rate, wheel_speed, charge, sun, target, mode one-hot x4)."""
    mode = [0.0] * len(MODES)
    mode[state.mode] = 1.0
    return [
        float(state.pointing_error), float(state.attitude_rate),
        float(state.wheel_speed), float(state.charge),
        float(state.sun), float(state.target), *mode,
    ]


class SpacecraftEnv:
    """Single mutable simulation instance; run one per thread.

    Also implements the abstraction's simulator protocol: `sample_in_cell`
    makes a row's random draws and `step_batch` steps the rows of a chunk
    through the dynamics kernel without drawing.
    """

    action_names = MODES
    atom_names = ATOM_NAMES

    def __init__(self, params: EnvParams | None = None):
        self.params = params or EnvParams()
        self._par = self.params.param_vector()
        self._coef = _kernels.action_rows(self._par)
        self._windows = self.params.target_windows
        p = self.params
        windows = ((0.05, 0.45), (0.55, 0.95 - p.window_width)) if p.randomize_windows else ()
        # (lo, hi) of each value a reset draws, in stream order
        self._reset_bounds = (
            *windows, p.init_pointing_error, p.init_rate, p.init_wheel, p.init_charge,
        )
        self._noise = iter(())  # the noise block `reset` drew, see there
        self.state: SpacecraftState | None = None

    # --- orbit phase -----------------------------------------------------

    def _phase(self, minutes: float) -> float:
        return (minutes % self.params.orbit_minutes) / self.params.orbit_minutes

    def _access(self, minutes: float, windows) -> tuple[int, int]:
        frac = self._phase(minutes)
        lo, hi = self.params.sun_window
        sun = 1 if lo <= frac < hi else 0
        target = 1 if _in_windows(frac, windows) else 0
        return sun, target

    # --- episode interface -------------------------------------------------

    def reset(self, rng, noise_steps: int = 0) -> int:
        """Start an episode; returns the labels of the initial state.

        The start state takes one ``rng.random`` call: the two target
        windows first when they are randomized, then pointing error, rate,
        wheel and charge, each ``lo + (hi - lo) * u``. That is what
        ``rng.uniform(lo, hi)`` computes from the same double, so the state
        and the stream after it are those of one `Generator.uniform` call
        per value.

        ``noise_steps > 0`` draws the step noise of that many steps now, in
        one call, as a block that `step` reads before it draws from its
        ``rng`` again. PCG64 gives ``random(3 * k)`` the same doubles as
        ``k`` calls of ``random(3)``, so with nothing else drawn from
        ``rng`` during the episode the states equal those of per-step
        draws. Greedy evaluation draws a block; training, which draws its
        exploration from the same stream between steps, must not.
        """
        u = rng.random(len(self._reset_bounds)).tolist()
        values = [lo + (hi - lo) * x for (lo, hi), x in zip(self._reset_bounds, u)]
        if self.params.randomize_windows:
            first, second, *values = values
            w = self.params.window_width
            self._windows = ((first, first + w), (second, second + w))
        err, rate, wheel, charge = values
        self._noise = _noise_block(rng, noise_steps) if noise_steps > 0 else iter(())
        sun, target = self._access(0.0, self._windows)
        self.state = SpacecraftState(
            pointing_error=err, attitude_rate=rate, wheel_speed=wheel,
            charge=charge, sun=sun, target=target, mode=0, minutes=0.0,
        )
        return label(self.state)

    def step(self, action: int, rng) -> tuple[int, bool]:
        """One decision step; returns (labels, failed). The three noise
        deviates come from the noise block while it lasts, else from
        `truncated_normal`."""
        st = self.state
        e_w, e_r, e_a = next(self._noise, None) or truncated_normal(rng, 3)
        rate, wheel, charge, err = _kernels.step_one(
            st.attitude_rate, st.wheel_speed, st.charge, st.pointing_error,
            float(st.sun), self._coef[action], e_w, e_r, e_a,
        )
        minutes = st.minutes + self.params.step_minutes
        sun, target = self._access(minutes, self._windows)
        st.pointing_error = err
        st.attitude_rate = rate
        st.wheel_speed = wheel
        st.charge = charge
        st.sun = sun
        st.target = target
        st.mode = int(action)
        st.minutes = minutes
        return label(st), is_failure(rate, wheel, charge)

    # --- abstraction interface ---------------------------------------------

    def sample_in_cell(self, bounds, n: int, rng) -> dict:
        """Every random draw of one abstraction row: ``n`` hidden states with
        the three abstraction coordinates uniform in the cell and everything
        else randomized over its full range, then the ``(3, n)`` uniforms of
        the step's truncated-normal noise. Each array's last axis runs over
        the samples, so batches of several rows concatenate along it."""
        (r_lo, r_hi), (w_lo, w_hi), (c_lo, c_hi) = bounds
        p = self.params
        return {
            "rate": rng.uniform(r_lo, r_hi, n),
            "wheel": rng.uniform(w_lo, w_hi, n),
            "charge": rng.uniform(c_lo, c_hi, n),
            "err": rng.uniform(*p.sample_pointing_error, n),
            "minutes": rng.uniform(0.0, p.orbit_minutes, n),
            "mode": rng.integers(0, len(MODES), n),
            "u": rng.random((3, n)),
        }

    def step_batch(self, batch: dict, actions: np.ndarray) -> np.ndarray:
        """Advance a sampled batch one step, element ``i`` under
        ``actions[i]``, with the noise its uniforms give; draws nothing, so
        the result depends on the batch alone. Overwrites the batch's state
        arrays and returns the (n, 3) abstraction coordinates (rate, wheel,
        charge)."""
        p = self.params
        frac = batch["minutes"] / p.orbit_minutes
        lo, hi = p.sun_window
        sun = ((frac >= lo) & (frac < hi)).astype(np.float64)
        noise = _noise(batch["u"])
        _kernels.step_batch(
            batch["rate"], batch["wheel"], batch["charge"], batch["err"],
            sun, actions, noise[0], noise[1], noise[2], self._par,
        )
        return np.stack([batch["rate"], batch["wheel"], batch["charge"]], axis=1)
