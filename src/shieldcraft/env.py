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

The abstraction reads its rows the same way: `pcg64_states` computes the
PCG64 state of every row's ``[seed, 1, cell, action]`` stream in one
vectorized pass of SeedSequence's hash, `RowStreams` reads each row's
block of raw outputs through one shared bit generator, and
`SpacecraftEnv.sample_in_cell` converts a chunk of rows at once, skipping
by position the flight-mode draw that the step never reads.
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
# the label bit of each region (see the module docstring)
P0_BIT = 1 << ATOM_NAMES.index("p0")
P1_BIT = 1 << ATOM_NAMES.index("p1")
P2_BIT = 1 << ATOM_NAMES.index("p2")
P3_BIT = 1 << ATOM_NAMES.index("p3")
P4_BIT = 1 << ATOM_NAMES.index("p4")

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


# the per-mode coefficient rows, in the kernel's parameter order
_PER_MODE = (
    "solar_gain", "power_drain", "wheel_drift", "wheel_noise",
    "rate_pull", "rate_target", "rate_noise",
    "error_keep", "error_drift", "error_noise",
)
# the (lo, hi) ranges the start and cell states are drawn from
_RANGES = (
    "init_pointing_error", "init_rate", "init_wheel", "init_charge",
    "sample_pointing_error",
)


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

    def __post_init__(self):
        for name in ("orbit_minutes", "step_minutes"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        for name, windows in (("sun_window", (self.sun_window,)),
                              ("target_windows", self.target_windows)):
            if not all(0.0 <= lo < hi <= 1.0 for lo, hi in windows):
                raise ValueError(
                    f"{name} needs 0 <= lo < hi <= 1 per window, got {getattr(self, name)!r}"
                )
        # a randomized second window starts in [0.55, 0.95 - width)
        if self.randomize_windows and not 0.0 < self.window_width < 0.4:
            raise ValueError(
                f"window_width must be in (0, 0.4) when randomize_windows, "
                f"got {self.window_width!r}"
            )
        for name in _RANGES:
            lo, hi = value = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"{name} needs finite lo <= hi, got {value!r}")
        for name in _PER_MODE:
            value = getattr(self, name)
            if len(value) != len(MODES):
                raise ValueError(f"{name} needs one entry per mode, got {value!r}")

    def param_vector(self) -> np.ndarray:
        return np.asarray([v for name in _PER_MODE for v in getattr(self, name)],
                          dtype=np.float64)


@dataclass(slots=True)
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


class DrawsExhaustedError(RuntimeError):
    """A read past the end of an `EpisodeDraws` block: the block was sized
    for fewer reads than the episode made."""

    def __init__(self, size: int):
        super().__init__(f"read past the end of a block of {size} outputs")


class EpisodeDraws:
    """Every random value of one episode, from the first ``size`` raw
    outputs of ``PCG64(words)`` read in stream order.

    Each read returns, bit for bit, what the `numpy.random.Generator`
    call it stands for returns from the same stream position: ``random()``
    and ``uniforms(k)`` (``random(k)``) a double ``(x >> 11) * 2**-53`` per
    output, ``noise()`` the three deviates of ``truncated_normal(rng, 3)``,
    and ``integers(n)`` Lemire's multiply-shift on 32-bit halves, low half
    first, with the high half kept for the next ``integers`` call. The
    outputs are drawn once and turned into doubles and deviates once. The
    caller sizes the block for every read of the episode; a read past it
    raises `DrawsExhaustedError`.
    """

    __slots__ = ("_raw", "_array", "_doubles", "_listed", "_deviates", "_end", "_pos", "_half")

    def __init__(self, words, size: int):
        self._pos = 0  # outputs read so far
        self._half = None  # the pending high half of an `integers` output
        # the doubles become a list on the first `random` call: evaluation
        # reads only its reset's few, as `uniforms`, from the array
        self._doubles = []
        self._listed = 0
        # raw outputs stay an array: only `integers` reads them, one at a time
        self._raw = raw = np.random.PCG64(words).random_raw(size)
        self._array = doubles = (raw >> _MANTISSA_SHIFT) * 2.0**-53
        self._deviates = _noise(doubles).tolist()
        self._end = size

    def random(self) -> float:
        i = self._pos
        if i >= self._listed:
            # once listed, the list ends where the block does
            if self._listed or i >= self._end:
                raise DrawsExhaustedError(self._end)
            self._doubles = self._array.tolist()
            self._listed = self._end
        self._pos = i + 1
        return self._doubles[i]

    def uniforms(self, k: int) -> list[float]:
        i = self._pos
        j = i + k
        if j > self._end:
            raise DrawsExhaustedError(self._end)
        self._pos = j
        return self._array[i:j].tolist()

    def noise(self) -> list[float]:
        """The three deviates of one step, in `truncated_normal`'s order."""
        i = self._pos
        j = i + 3
        if j > self._end:
            raise DrawsExhaustedError(self._end)
        self._pos = j
        return self._deviates[i:j]

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        i = self._pos
        if i >= self._end:
            raise DrawsExhaustedError(self._end)
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


# SeedSequence's uint32 hash constants, pool size and shift, and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _entropy(words) -> list:
    """SeedSequence's entropy words of every row: the uint32 words of its
    seed words in order, low word first (0 is one word). An int word may
    have any size; an array word gives one word per row, so it must lie in
    ``[0, 2**32)``."""
    entropy = []
    for w in words:
        if isinstance(w, (int, np.integer)):
            w = int(w)
            if w < 0:
                raise ValueError(f"expected non-negative integer, got {w}")
            entropy.append(np.uint32(w & _MASK32))
            while w > _MASK32:
                w >>= 32
                entropy.append(np.uint32(w & _MASK32))
        else:
            w = np.asarray(w)
            if w.dtype.kind not in "iu":
                raise TypeError(f"seed words must be integers, got {w.dtype}")
            if (w < 0).any():
                raise ValueError("expected non-negative integer")
            if (w > _MASK32).any():
                raise ValueError("an array seed word must be below 2**32")
            entropy.append(w.astype(np.uint32))
    return entropy


def _pool(entropy: list[np.ndarray], n_rows: int) -> list[np.ndarray]:
    """SeedSequence's mixed pool of four uint32 words per row, from the
    rows' entropy words (one array per word position); missing words hash
    as 0."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(n_rows, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def pcg64_states(*words) -> tuple[list[int], list[int]]:
    """The ``state`` and the ``inc`` of ``np.random.PCG64([w0, w1, ...])``
    for every row of the words, as two lists of ints (no tuple per row for
    the cyclic GC to track). The words broadcast together: each is a
    non-negative int of any size, or a 1-D integer array below 2**32 with
    one entry per row.

    SeedSequence's hash and mix run over all rows at once as uint32 array
    arithmetic, ``generate_state(4, uint64)`` gives each row's seed words,
    and PCG64's ``srandom`` takes its two LCG steps on Python ints. A
    negative word raises ``ValueError``, as numpy does.
    """
    entropy = _entropy(words)
    shape = np.broadcast_shapes(*(np.shape(w) for w in entropy))
    if len(shape) > 1:
        raise ValueError(f"seed words must be ints or 1-D arrays, got shape {shape}")
    n_rows = shape[0] if shape else 1
    pool = _pool([np.broadcast_to(w, (n_rows,)) for w in entropy], n_rows)
    hash_const = _INIT_B
    state = []  # generate_state's eight uint32 words
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # uint64 word j is uint32 words 2j (low) and 2j + 1 (high)
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (state[2 * j] | state[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)
    )
    incs = [((hi << 64 | lo) << 1 | 1) & _MASK128 for hi, lo in zip(seq_hi, seq_lo)]
    states = [((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
              for inc, hi, lo in zip(incs, seed_hi, seed_lo)]
    return states, incs


class RowStreams:
    """The PCG64 streams of a set of rows, row ``i`` at ``states[i]`` with
    increment ``incs[i]``, read through one shared bit generator; slicing
    keeps the generator."""

    __slots__ = ("states", "incs", "_bitgen", "_setting")

    def __init__(self, states: list[int], incs: list[int], bitgen=None):
        self.states = states
        self.incs = incs
        self._bitgen = bitgen or np.random.PCG64(0)
        # one state dict, refilled per row
        self._setting = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
                         "has_uint32": 0, "uinteger": 0}

    @classmethod
    def seeded(cls, *words) -> "RowStreams":
        """The streams of ``PCG64([w0, w1, ...])`` per row of the words."""
        return cls(*pcg64_states(*words))

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, rows: slice) -> "RowStreams":
        return RowStreams(self.states[rows], self.incs[rows], self._bitgen)

    def doubles(self, size: int) -> np.ndarray:
        """The doubles ``Generator.random(size)`` returns from each row's
        stream, ``(x >> 11) * 2**-53`` of its first ``size`` outputs, as a
        ``(rows, size)`` array."""
        bitgen, setting = self._bitgen, self._setting
        current = setting["state"]
        blocks = []
        for state, inc in zip(self.states, self.incs):
            current["state"] = state
            current["inc"] = inc
            bitgen.state = setting
            blocks.append(bitgen.random_raw(size))
        # one row's block is used as drawn; large ones are costly to copy
        raw = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        raw >>= _MANTISSA_SHIFT
        return (raw * 2.0**-53).reshape(len(blocks), size)


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
        mask |= P0_BIT
    if state.charge < CHARGE_FLOOR:
        mask |= P1_BIT
    if state.wheel_speed > WHEEL_CEIL:
        mask |= P2_BIT
    if good_pointing and state.mode == 2:
        mask |= P3_BIT
    if good_pointing and state.mode == 3:
        mask |= P4_BIT
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
    makes the random draws of a chunk of rows from their `RowStreams` and
    `step_batch` steps them through the dynamics kernel without drawing.
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
        next three outputs of the episode's PCG64 stream.

        This is the reference step. The learner steps episodes through
        `learner.SpacecraftSession.step`, which computes the same step in
        one frame; a property test holds the two equal bit for bit."""
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

    def sample_in_cell(self, bounds: np.ndarray, n: int, streams: RowStreams) -> dict:
        """Every random draw of a chunk of abstraction rows. Row ``i`` reads
        its stream ``streams[i]`` for ``n`` hidden states, with the three
        abstraction coordinates uniform in its cell ``bounds[i]`` (``bounds``
        is a ``(rows, 3, 2)`` array of (lo, hi) per coordinate) and pointing
        error and orbit time uniform over their full ranges, then for the
        ``(3, n)`` uniforms of the step's truncated-normal noise. Each
        array's last axis runs over the chunk's samples, row by row, so
        ``step_batch`` takes the batch as it is.

        A row reads the first ``8n + ceil(n/2)`` outputs of its stream, laid
        out as the `numpy.random.Generator` calls of a one-row sampler: five
        ``uniform(lo, hi, n)`` (rate, wheel, charge, error, minutes), each
        ``lo + (hi - lo) * u``; then ``integers(0, 4, n)``, a flight mode per
        sample that takes ``ceil(n/2)`` outputs (Lemire's method on 32-bit
        halves never rejects for 4) and that the step never reads, so it is
        skipped by position; then ``random((3, n))``. The doubles are made
        once per chunk."""
        rows = len(streams)
        noise_start = 5 * n + (n + 1) // 2
        u = streams.doubles(noise_start + 3 * n)
        p = self.params
        ranges = np.empty((rows, 5, 2))  # (lo, hi) per row and field
        ranges[:, :3] = bounds
        ranges[:, 3] = p.sample_pointing_error
        ranges[:, 4] = (0.0, p.orbit_minutes)
        lo, hi = ranges[:, :, :1], ranges[:, :, 1:]
        # u * (hi - lo) + lo in place, as (row, field, sample): IEEE products
        # and sums commute, so these are the bits of lo + (hi - lo) * u
        fields = u[:, :5 * n].reshape(rows, 5, n)
        fields *= hi - lo
        fields += lo
        rate, wheel, charge, err, minutes = fields.transpose(1, 0, 2).reshape(5, rows * n)
        return {
            "rate": rate,
            "wheel": wheel,
            "charge": charge,
            "err": err,
            "minutes": minutes,
            "u": u[:, noise_start:].reshape(rows, 3, n).transpose(1, 0, 2).reshape(3, rows * n),
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
