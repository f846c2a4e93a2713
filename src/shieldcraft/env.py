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

An episode's randomness is one `EpisodeDraws`: the raw 64-bit outputs of
its PCG64 stream, read in the order and with the arithmetic of the
`numpy.random.Generator` calls they replace (the reset's uniforms, then
per step the learner's draws and the step's three noise deviates). So an
episode depends on PCG64 and its SeedSequence seeding, not on the
algorithms behind Generator's methods.
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
    `_noise`; the reference of `EpisodeDraws.noise`."""
    return [float(ndtri(_PHI_LO + u * _PHI_WIDTH)) for u in rng.random(n).tolist()]


def _noise(u: np.ndarray) -> np.ndarray:
    """`truncated_normal`'s deviates of an array of uniforms."""
    return ndtri(_PHI_LO + u * _PHI_WIDTH)


# a double keeps the top 53 bits of an output, as PCG64's next_double does
_MANTISSA_SHIFT = np.uint64(11)

# the most values a reset draws: two window starts and four start values
RESET_DRAWS = 6


class EpisodeDraws:
    """Every random value of one episode, from the raw outputs of
    ``PCG64(words)`` read in stream order.

    Each read returns, bit for bit, what the `numpy.random.Generator`
    call it stands for returns from the same stream position: ``random()``
    and ``uniforms(k)`` (``random(k)``) a double ``(x >> 11) * 2**-53`` per
    output, ``noise()`` the three deviates of ``truncated_normal(rng, 3)``,
    and ``integers(n)`` Lemire's multiply-shift on 32-bit halves, low half
    first, with the high half kept for the next ``integers`` call. The
    outputs are drawn ``size`` at a time and turned into doubles and
    deviates once per block; a read past the block draws another.
    """

    __slots__ = (
        "_bitgen", "_size", "_raw", "_array", "_doubles", "_listed", "_deviates",
        "_end", "_pos", "_half",
    )

    def __init__(self, words, size: int):
        self._bitgen = np.random.PCG64(words)
        self._size = size
        self._pos = 0  # outputs read so far
        self._half = None  # the pending high half of an `integers` output
        # the doubles become a list on the first `random` call: evaluation
        # reads only its reset's few, as `uniforms`, from the array
        self._doubles = []
        self._listed = 0
        # raw outputs stay an array: only `integers` reads them, one at a time
        self._raw = raw = self._bitgen.random_raw(size)
        self._array = doubles = (raw >> _MANTISSA_SHIFT) * 2.0**-53
        self._deviates = _noise(doubles).tolist()
        self._end = size

    def _extend(self, n: int):
        """Draw another block, of at least ``n`` outputs."""
        raw = self._bitgen.random_raw(max(n, self._size))
        doubles = (raw >> _MANTISSA_SHIFT) * 2.0**-53
        self._raw = np.concatenate((self._raw, raw))
        self._array = np.concatenate((self._array, doubles))
        self._deviates += _noise(doubles).tolist()
        self._end = len(self._raw)

    def random(self) -> float:
        i = self._pos
        if i >= self._listed:
            if i == self._end:
                self._extend(1)
            self._doubles = self._array.tolist()
            self._listed = self._end
        self._pos = i + 1
        return self._doubles[i]

    def uniforms(self, k: int) -> list[float]:
        i = self._pos
        j = i + k
        if j > self._end:
            self._extend(j - self._end)
        self._pos = j
        return self._array[i:j].tolist()

    def noise(self) -> list[float]:
        """The three deviates of one step, in `truncated_normal`'s order."""
        i = self._pos
        j = i + 3
        if j > self._end:
            self._extend(j - self._end)
        self._pos = j
        return self._deviates[i:j]

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        i = self._pos
        if i == self._end:
            self._extend(1)
        self._pos = i + 1
        x = self._raw.item(i)
        self._half = x >> 32
        return x & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """Uniform on ``range(n)``, as ``Generator.integers(n)``; ``n == 1``
        draws nothing."""
        if not 1 <= n < 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n < 2**32, got {n}")
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32


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

    def reset(self, draws: EpisodeDraws) -> int:
        """Start an episode; returns the labels of the initial state.

        The start state reads ``draws.uniforms``: the two target windows
        first when they are randomized, then pointing error, rate, wheel
        and charge, each ``lo + (hi - lo) * u``. That is what
        ``Generator.uniform(lo, hi)`` computes from the same double, so the
        state and the stream after it are those of one ``uniform`` call per
        value.
        """
        u = draws.uniforms(len(self._reset_bounds))
        values = [lo + (hi - lo) * x for (lo, hi), x in zip(self._reset_bounds, u)]
        if self.params.randomize_windows:
            first, second, *values = values
            w = self.params.window_width
            self._windows = ((first, first + w), (second, second + w))
        err, rate, wheel, charge = values
        sun, target = self._access(0.0, self._windows)
        self.state = SpacecraftState(
            pointing_error=err, attitude_rate=rate, wheel_speed=wheel,
            charge=charge, sun=sun, target=target, mode=0, minutes=0.0,
        )
        return label(self.state)

    def step(self, action: int, draws: EpisodeDraws) -> tuple[int, bool]:
        """One decision step; returns (labels, failed). The three noise
        deviates are the next ones of ``draws``: `truncated_normal`'s of the
        next three outputs of the episode's PCG64 stream."""
        st = self.state
        e_w, e_r, e_a = draws.noise()
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
