"""Independent oracles for the test suite.

The semantics evaluators here implement finite-trace satisfaction directly
from the definition (recursively, and as a position-indexed dynamic
program vectorized over whole trace sets). They share no code with the
progression-based DFA compiler they are used to check.

Likewise the reachability oracle evaluates the defining recursion for
minimal N-step reach probability without any of the value-iteration
machinery under test, and the episode-randomness oracle draws each value
with the `numpy.random.Generator` call that `EpisodeDraws` reproduces from
raw PCG64 outputs.
"""

from __future__ import annotations

import itertools

import numpy as np

from shieldcraft import ltl
from shieldcraft.env import truncated_normal
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


# --- reachability oracle -----------------------------------------------------


def min_reach_within(pm, s: int, steps: int, _memo=None) -> float:
    """Minimal probability of reaching the final set within `steps` steps,
    by the defining recursion (memoized on (state, steps))."""
    if _memo is None:
        _memo = {}
    if s in pm.final_states:
        return 1.0
    if steps == 0:
        return 0.0
    key = (s, steps)
    if key not in _memo:
        best = None
        for a in range(pm.n_actions):
            total = 0.0
            for target, p in pm.row(s, a):
                total += p * min_reach_within(pm, target, steps - 1, _memo)
            if best is None or total < best:
                best = total
        _memo[key] = best
    return _memo[key]


def min_reach_paths(pm, s: int, steps: int) -> float:
    """Same quantity by raw path enumeration (no memo); exponential, keep
    instances tiny. Used to cross-check the memoized oracle."""
    if s in pm.final_states:
        return 1.0
    if steps == 0:
        return 0.0
    best = None
    for a in range(pm.n_actions):
        total = 0.0
        for target, p in pm.row(s, a):
            total += p * min_reach_paths(pm, target, steps - 1)
        if best is None or total < best:
            best = total
    return best


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
