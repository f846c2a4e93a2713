"""Independent oracles for the test suite.

The semantics evaluators here implement finite-trace satisfaction directly
from the definition (recursively, and as a position-indexed dynamic
program vectorized over whole trace sets). They share no code with the
progression-based DFA compiler they are used to check.

Likewise the reachability oracle evaluates the defining recursion for
minimal N-step reach probability without any of the value-iteration
machinery under test, the shield oracle synthesizes over one scattered
transition tensor and assembles each shield entry by entry, both reading
the final product states from the automaton (`is_final`) rather than from
the product under test, the episode
step and reset oracles compose `SpacecraftEnv.step` and `reset` from the
scalar rules (access, labels, failure) that the env computes in one block,
and the randomness oracles draw each value with
the `numpy.random.Generator` call that `EpisodeDraws` and
`SpacecraftEnv.sample_in_cell` reproduce from raw PCG64 outputs. The
formula printer and canonicalizer exist only to check the parser's round
trip and the canonical constructors' idempotence.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from shieldcraft import _kernels, ltl
from shieldcraft.env import (
    CHARGE_FLOOR,
    P0_BIT,
    P1_BIT,
    P2_BIT,
    P3_BIT,
    P4_BIT,
    POINTING_TOL,
    RATE_LIMIT,
    RATE_TOL,
    WHEEL_CEIL,
    WHEEL_LIMIT,
    SpacecraftState,
    truncated_normal,
)
from shieldcraft.mdp import FiniteMdp
from shieldcraft.ltl import (
    And,
    Atom,
    Eventually,
    Formula,
    Globally,
    LFalse,
    LTrue,
    Next,
    NotAtom,
    Or,
    Until,
)

# --- finite-trace satisfaction ---------------------------------------------


def sat_recursive(f: Formula, trace, i: int = 0) -> bool:
    """Plain recursive finite-trace semantics at position i (strong next)."""
    last = len(trace) - 1
    if isinstance(f, LTrue):
        return True
    if isinstance(f, LFalse):
        return False
    if isinstance(f, Atom):
        return bool(trace[i] >> f.index & 1)
    if isinstance(f, NotAtom):
        return not trace[i] >> f.index & 1
    if isinstance(f, And):
        return all(sat_recursive(c, trace, i) for c in f.children)
    if isinstance(f, Or):
        return any(sat_recursive(c, trace, i) for c in f.children)
    if isinstance(f, Next):
        return i + 1 <= last and sat_recursive(f.child, trace, i + 1)
    if isinstance(f, Eventually):
        return any(sat_recursive(f.child, trace, j) for j in range(i, last + 1))
    if isinstance(f, Globally):
        return all(sat_recursive(f.child, trace, j) for j in range(i, last + 1))
    if isinstance(f, Until):
        for j in range(i, last + 1):
            if sat_recursive(f.right, trace, j):
                return True
            if not sat_recursive(f.left, trace, j):
                return False
        return False
    raise TypeError(f)


def all_traces(n_atoms: int, length: int):
    """Every trace of exactly `length` symbols over 2^n_atoms."""
    return list(itertools.product(range(1 << n_atoms), repeat=length))


def trace_matrix(n_atoms: int, length: int) -> np.ndarray:
    """(2^n_atoms)^length x length integer symbol matrix."""
    symbols = np.arange(1 << n_atoms)
    grids = np.meshgrid(*([symbols] * length), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def sat_matrix(f: Formula, traces: np.ndarray) -> np.ndarray:
    """Vectorized semantics: truth of f at position 0 for each trace row.

    Works backward over positions; still a direct transcription of the
    satisfaction definition, independent of formula progression.
    """
    n, length = traces.shape

    def table(g: Formula) -> np.ndarray:
        if isinstance(g, LTrue):
            return np.ones((n, length), dtype=bool)
        if isinstance(g, LFalse):
            return np.zeros((n, length), dtype=bool)
        if isinstance(g, Atom):
            return (traces >> g.index & 1).astype(bool)
        if isinstance(g, NotAtom):
            return ~(traces >> g.index & 1).astype(bool)
        if isinstance(g, And):
            out = table(g.children[0]).copy()
            for c in g.children[1:]:
                out &= table(c)
            return out
        if isinstance(g, Or):
            out = table(g.children[0]).copy()
            for c in g.children[1:]:
                out |= table(c)
            return out
        if isinstance(g, Next):
            child = table(g.child)
            out = np.zeros((n, length), dtype=bool)
            out[:, :-1] = child[:, 1:]
            return out
        if isinstance(g, Eventually):
            child = table(g.child)
            return np.flip(np.logical_or.accumulate(np.flip(child, axis=1), axis=1), axis=1)
        if isinstance(g, Globally):
            child = table(g.child)
            return np.flip(np.logical_and.accumulate(np.flip(child, axis=1), axis=1), axis=1)
        if isinstance(g, Until):
            left, right = table(g.left), table(g.right)
            out = np.empty((n, length), dtype=bool)
            out[:, -1] = right[:, -1]
            for j in range(length - 2, -1, -1):
                out[:, j] = right[:, j] | (left[:, j] & out[:, j + 1])
            return out
        raise TypeError(g)

    return table(f)[:, 0]


def dfa_accepts_matrix(dfa, traces: np.ndarray) -> np.ndarray:
    """Whether each run visits an accepting state (vectorized)."""
    states = np.full(traces.shape[0], dfa.z0, dtype=np.int64)
    accepting = np.zeros(dfa.n_states, dtype=bool)
    accepting[list(dfa.accepting)] = True
    visited = np.zeros(traces.shape[0], dtype=bool)
    for j in range(traces.shape[1]):
        states = dfa.delta[states, traces[:, j]]
        visited |= accepting[states]
    return visited


# --- random formula generators ----------------------------------------------


def random_formula(rng, depth: int, n_atoms: int, ops=("and", "or", "next", "ev", "glob", "until")):
    """Random canonical NNF formula of bounded depth."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.05:
            return ltl.TRUE
        if r < 0.1:
            return ltl.FALSE
        idx = int(rng.integers(n_atoms))
        return Atom(idx) if rng.random() < 0.5 else NotAtom(idx)
    op = ops[int(rng.integers(len(ops)))]
    if op == "and":
        return ltl.conj([random_formula(rng, depth - 1, n_atoms, ops) for _ in range(2)])
    if op == "or":
        return ltl.disj([random_formula(rng, depth - 1, n_atoms, ops) for _ in range(2)])
    if op == "next":
        return Next(random_formula(rng, depth - 1, n_atoms, ops))
    if op == "ev":
        return Eventually(random_formula(rng, depth - 1, n_atoms, ops))
    if op == "glob":
        return Globally(random_formula(rng, depth - 1, n_atoms, ops))
    return Until(
        random_formula(rng, depth - 1, n_atoms, ops),
        random_formula(rng, depth - 1, n_atoms, ops),
    )


def random_cosafe_formula(rng, depth: int, n_atoms: int):
    return random_formula(rng, depth, n_atoms, ops=("and", "or", "next", "ev", "until"))


# --- formula rebuilding and printing ----------------------------------------


def canonicalize(f: Formula) -> Formula:
    """Rebuild a formula bottom-up through the canonical constructors."""
    if isinstance(f, (LTrue, LFalse, Atom, NotAtom)):
        return f
    if isinstance(f, And):
        return ltl.conj(canonicalize(c) for c in f.children)
    if isinstance(f, Or):
        return ltl.disj(canonicalize(c) for c in f.children)
    if isinstance(f, Next):
        return Next(canonicalize(f.child))
    if isinstance(f, Eventually):
        return Eventually(canonicalize(f.child))
    if isinstance(f, Globally):
        return Globally(canonicalize(f.child))
    if isinstance(f, Until):
        return Until(canonicalize(f.left), canonicalize(f.right))
    raise TypeError(f"not a formula: {f!r}")


_PREC_OR = 1
_PREC_AND = 2
_PREC_UNTIL = 3
_PREC_UNARY = 4


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Until):
        return _PREC_UNTIL
    if isinstance(f, (Next, Eventually, Globally)):
        return _PREC_UNARY
    return 5


def to_text(f: Formula, table) -> str:
    """Minimal-parenthesis rendering in the parser's syntax;
    ``parse(to_text(f)) == f``."""

    def fmt(g: Formula, need: int) -> str:
        if isinstance(g, LTrue):
            return "true"
        if isinstance(g, LFalse):
            return "false"
        if isinstance(g, Atom):
            return table.names[g.index]
        if isinstance(g, NotAtom):
            return "!" + table.names[g.index]
        if isinstance(g, Or):
            text = " | ".join(fmt(c, _PREC_OR + 1) for c in g.children)
        elif isinstance(g, And):
            text = " & ".join(fmt(c, _PREC_AND + 1) for c in g.children)
        elif isinstance(g, Until):
            # right-associative: left operand needs the tighter context
            text = f"{fmt(g.left, _PREC_UNTIL + 1)} U {fmt(g.right, _PREC_UNTIL)}"
        elif isinstance(g, Next):
            text = f"X {fmt(g.child, _PREC_UNARY)}"
        elif isinstance(g, Eventually):
            text = f"F {fmt(g.child, _PREC_UNARY)}"
        elif isinstance(g, Globally):
            text = f"G {fmt(g.child, _PREC_UNARY)}"
        else:
            raise TypeError(f"not a formula: {g!r}")
        return f"({text})" if _prec(g) < need else text

    return fmt(f, 0)


# --- MDPs as dicts of rows --------------------------------------------------


def mdp_from_rows(n_states, action_names, rows, labels, atom_names) -> FiniteMdp:
    """The `FiniteMdp` of ``{(q, a): ((target, p), ...)}`` rows, its
    entries sorted as `FiniteMdp.from_json` sorts them. Nothing is
    checked, so a test can build an MDP that fails `FiniteMdp.validate`."""
    entries = sorted((q, a, t, p) for (q, a), row in rows.items() for t, p in row)
    q, a, t, p = (list(column) for column in zip(*entries)) if entries else ([],) * 4
    return FiniteMdp(
        n_states=n_states,
        action_names=tuple(action_names),
        sources=np.array(q, dtype=np.int64),
        actions=np.array(a, dtype=np.int64),
        targets=np.array(t, dtype=np.int64),
        probs=np.array(p, dtype=np.float64),
        labels=tuple(labels),
        atom_names=tuple(atom_names),
    )


def rows_of(m) -> dict:
    """``{(q, a): ((target, p), ...)}`` of a `FiniteMdp`'s entries, rows
    and entries in array order."""
    rows: dict = {}
    columns = (m.sources, m.actions, m.targets, m.probs)
    for q, a, t, p in zip(*(c.tolist() for c in columns)):
        rows.setdefault((q, a), []).append((t, p))
    return {key: tuple(row) for key, row in rows.items()}


def reference_product_rows(m, d) -> dict:
    """The product's ``{(s, a): ((target, p), ...)}`` rows by one tuple
    loop over the base rows: the product that `mdp.product`'s gather
    replaced, each row sorted by (target, p)."""
    n_z = d.n_states
    # entering base state q2 from DFA state z lands in product state enter[z][q2]
    enter = [
        [q2 * n_z + dz[label] for q2, label in enumerate(m.labels)]
        for dz in d.delta.tolist()
    ]
    rows = {}
    for (q, a), row in rows_of(m).items():
        for z, to in enumerate(enter):
            rows[(q * n_z + z, a)] = tuple(sorted([(to[q2], p) for q2, p in row]))
    return rows


# --- final product states ----------------------------------------------------


def is_final(pm, s: int) -> bool:
    """Whether product state s has already violated: its automaton state,
    ``s % n_z``, is accepting. Read from the automaton, not from the
    product's own final mask."""
    return s % pm.n_z in pm.dfa.accepting


def final_states(pm) -> frozenset[int]:
    """Every final product state, by `is_final`."""
    return frozenset(s for s in range(pm.n_states) if is_final(pm, s))


# --- reachability oracle -----------------------------------------------------


def min_reach_within(pm, s: int, steps: int, _memo=None) -> float:
    """Minimal probability of reaching the final set within `steps` steps,
    by the defining recursion (memoized on (state, steps))."""
    if _memo is None:
        _memo = {}
    if is_final(pm, s):
        return 1.0
    if steps == 0:
        return 0.0
    key = (s, steps)
    if key not in _memo:
        best = None
        for a in range(pm.n_actions):
            total = 0.0
            for target, p in pm.rows[(s, a)]:
                total += p * min_reach_within(pm, target, steps - 1, _memo)
            if best is None or total < best:
                best = total
        _memo[key] = best
    return _memo[key]


def min_reach_paths(pm, s: int, steps: int) -> float:
    """Same quantity by raw path enumeration (no memo); exponential, keep
    instances tiny. Used to cross-check the memoized oracle."""
    if is_final(pm, s):
        return 1.0
    if steps == 0:
        return 0.0
    best = None
    for a in range(pm.n_actions):
        total = 0.0
        for target, p in pm.rows[(s, a)]:
            total += p * min_reach_paths(pm, target, steps - 1)
        if best is None or total < best:
            best = total
    return best


# --- shield synthesis over one tensor ---------------------------------------


def scatter_tensor(pm) -> np.ndarray:
    """The product's dense (A, S, S) transition tensor, one ``+=`` per row
    entry into ``np.zeros``, so a repeated target sums in row order."""
    t = np.zeros((pm.n_actions, pm.n_states, pm.n_states))
    for (s, a), row in pm.rows.items():
        for target, p in row:
            t[a, s, target] += p
    return t


def settled_split(pm) -> tuple[np.ndarray, np.ndarray]:
    """`scatter_tensor` split row by row into the product's
    ``(live_tensor, settled_mass)``. A final state has already violated, so
    its rows are in neither term and its mass is 1.0 by definition; a row of
    a non-final state is settled when every one of its targets is final. The
    live tensor holds only the remaining rows, and the settled mass is the
    tensor of only the settled rows times the final indicator, 1.0 at the
    final rows."""
    t = scatter_tensor(pm)
    final_set = final_states(pm)
    final = np.zeros(t.shape[:2], dtype=bool)
    settled = np.zeros(t.shape[:2], dtype=bool)
    for (s, a), row in pm.rows.items():
        final[a, s] = s in final_set
        settled[a, s] = not final[a, s] and all(target in final_set for target, _p in row)
    member = np.zeros(pm.n_states)
    member[list(final_set)] = 1.0
    mass = np.where(settled[:, :, None], t, 0.0) @ member
    mass[final] = 1.0
    return np.where((settled | final)[:, :, None], 0.0, t), mass


def backup_values(t: np.ndarray, member: np.ndarray, steps: int) -> list:
    """The (S,) state values of the ``steps - 1`` backups toward the
    indicated state set, every backup over the whole tensor ``t``, after
    the set's indicator."""
    values = [member.astype(float)]
    for _ in range(steps - 1):
        values.append(np.where(member, 1.0, (t @ values[-1]).min(axis=0)))
    return values


def mass_within(t: np.ndarray, member: np.ndarray, steps: int):
    """Minimal probability of entering the indicated state set within
    ``steps`` steps: (S, A) action scores and the (S,) state values of the
    last backup."""
    v = backup_values(t, member, steps)[-1]
    return (t @ v).T, v


def two_step_unsafe_sets(t: np.ndarray, member: np.ndarray, threshold: float) -> list:
    """Every unsafe set of the two-step recursion from the indicated set,
    each one-step scored over the whole tensor ``t``, up to its fixed
    point."""
    sets = [member]
    while True:
        scores, _ = mass_within(t, sets[-1], 1)
        grown = sets[-1] | ~(scores < threshold).any(axis=1)
        if (grown == sets[-1]).all():
            return sets
        sets.append(grown)


def reference_shield_json(pm, cfg) -> dict:
    """``synthesize(pm, cfg).to_json()``, synthesized over
    `scatter_tensor` with `mass_within` and assembled entry by entry."""
    t = scatter_tensor(pm)
    final_set = final_states(pm)
    unsafe = np.zeros(pm.n_states, dtype=bool)
    unsafe[list(final_set)] = True
    values = None
    if cfg.kind == "two":
        unsafe = two_step_unsafe_sets(t, unsafe, cfg.threshold)[-1]
        scores, _ = mass_within(t, unsafe, 1)
    else:
        scores, v = mass_within(t, unsafe, cfg.horizon if cfg.kind == "q" else 1)
        if cfg.kind == "q":
            values = [float(x) for x in v]
    # a final state has already violated: every action scores 1.0
    scores[list(final_set)] = 1.0
    d, base = pm.dfa, pm.base
    base_rows = rows_of(base)
    fresh = [int(d.delta[d.z0, label]) in d.accepting for label in base.labels]
    fallback = [int(a) for a in np.argmin(scores, axis=1)]
    for s in final_set:
        q = s // pm.n_z
        region = [sum(p for target, p in base_rows[(q, a)] if fresh[target])
                  for a in range(base.n_actions)]
        fallback[s] = int(np.argmin(region))
    n_s, n_a = scores.shape
    return {
        "kind": cfg.kind,
        "p": cfg.threshold,
        "horizon": cfg.horizon if cfg.kind == "q" else None,
        "allowed": [[a for a in range(n_a) if scores[s, a] < cfg.threshold] for s in range(n_s)],
        "fallback": fallback,
        "scores": [[float(x) for x in row] for row in scores],
        "unsafe": np.flatnonzero(unsafe).tolist(),
        "values": values,
    }


# --- the episode step and reset -------------------------------------------------
# The scalar rules that `SpacecraftEnv._enter` computes in one block, each
# written on its own.


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


def phase(params, minutes: float) -> float:
    """The orbit phase in [0, 1) at ``minutes``."""
    return (minutes % params.orbit_minutes) / params.orbit_minutes


def access(params, minutes: float, windows) -> tuple[int, int]:
    """(sun, target) access at ``minutes`` with the target ``windows``."""
    frac = phase(params, minutes)
    lo, hi = params.sun_window
    sun = 1 if lo <= frac < hi else 0
    target = 1 if _in_windows(frac, windows) else 0
    return sun, target


def _outcome(env, st) -> tuple:
    failed = is_failure(st.attitude_rate, st.wheel_speed, st.charge)
    return (*env.discretizer(st, failed), label(st), failed)


def reference_step(env, action: int, draws):
    """`SpacecraftEnv.step` composed from its reference parts: the noise of
    ``draws``, one `_kernels.step_one` call, `access`, `label`,
    `is_failure` and `Discretizer.__call__`. Moves ``env.state`` and
    returns ``(obs_index, cell, labels, failed)``."""
    st = env.state
    e_w, e_r, e_a = draws.noise()
    rate, wheel, charge, err = _kernels.step_one(
        st.attitude_rate, st.wheel_speed, st.charge, st.pointing_error,
        float(st.sun), env._coef[action], e_w, e_r, e_a,
    )
    minutes = st.minutes + env.params.step_minutes
    sun, target = access(env.params, minutes, env._windows)
    st.pointing_error = err
    st.attitude_rate = rate
    st.wheel_speed = wheel
    st.charge = charge
    st.sun = sun
    st.target = target
    st.mode = int(action)
    st.minutes = minutes
    return _outcome(env, st)


def reference_reset(env, draws):
    """`SpacecraftEnv.reset` composed from its reference parts: one
    ``draws.random()`` per start value (the two window starts first when
    they are randomized, then pointing error, rate, wheel and charge), each
    ``lo + (hi - lo) * u`` as ``Generator.uniform`` computes it, then
    `access`, `label`, `is_failure` and `Discretizer.__call__` at minute 0
    in mode 0. Sets ``env.state`` and the episode's windows and returns
    ``(obs_index, cell, labels, failed)``."""
    p = env.params
    bounds = [p.init_pointing_error, p.init_rate, p.init_wheel, p.init_charge]
    if p.randomize_windows:
        bounds = [(0.05, 0.45), (0.55, 0.95 - p.window_width), *bounds]
    values = [lo + (hi - lo) * draws.random() for lo, hi in bounds]
    if p.randomize_windows:
        first, second, *values = values
        env._windows = ((first, first + p.window_width), (second, second + p.window_width))
    err, rate, wheel, charge = values
    sun, target = access(p, 0.0, env._windows)
    env.state = st = SpacecraftState(
        pointing_error=err, attitude_rate=rate, wheel_speed=wheel,
        charge=charge, sun=sun, target=target, mode=0, minutes=0.0,
    )
    return _outcome(env, st)


# --- episode randomness -----------------------------------------------------


class GeneratorDraws:
    """`EpisodeDraws` through the `numpy.random.Generator` calls it stands
    for, one call per read: the reference its values must equal bit for
    bit."""

    def __init__(self, words, size: int = 0):
        self.rng = np.random.default_rng(words)

    def random(self) -> float:
        return self.rng.random()

    def uniforms(self, k: int) -> list[float]:
        return self.rng.random(k).tolist()

    def integers(self, n: int) -> int:
        return int(self.rng.integers(n))

    def noise(self) -> list[float]:
        return truncated_normal(self.rng, 3)


# --- abstraction row sampling -------------------------------------------------


def generator_sample_in_cell(params, bounds, n: int, rng) -> dict:
    """One abstraction row drawn with `numpy.random.Generator` calls from
    ``rng``: the single-row sampler that `SpacecraftEnv.sample_in_cell`
    replaced, and the reference of its rows. ``bounds`` is the cell's
    ((lo, hi),) * 3 and ``params`` the `EnvParams`; ``mode`` is the flight
    mode the chunk sampler skips."""
    (r_lo, r_hi), (w_lo, w_hi), (c_lo, c_hi) = bounds
    return {
        "rate": rng.uniform(r_lo, r_hi, n),
        "wheel": rng.uniform(w_lo, w_hi, n),
        "charge": rng.uniform(c_lo, c_hi, n),
        "err": rng.uniform(*params.sample_pointing_error, n),
        "minutes": rng.uniform(0.0, params.orbit_minutes, n),
        "mode": rng.integers(0, 4, n),
        "u": rng.random((3, n)),
    }


def lemire_modes(raw: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` values of ``Generator.integers(0, 4, n)`` read from the raw
    outputs ``raw``: Lemire's multiply-shift on 32-bit halves, low half
    first, which for a bound of 4 never rejects."""
    halves = np.stack([raw & 0xFFFFFFFF, raw >> np.uint64(32)], axis=1).reshape(-1)
    return ((halves * np.uint64(4)) >> np.uint64(32)).astype(np.int64)[:n]
