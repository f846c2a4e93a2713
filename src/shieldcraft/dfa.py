"""Compile co-safe formulas into minimal DFAs by formula progression.

States are canonical progressed formulas plus one absorbing accept state.
A transition on symbol ``s`` goes to the accept state exactly when the
trace ending at ``s`` satisfies the obligation of the current state (so
acceptance-by-visit and acceptance-by-final-state coincide), otherwise to
the progressed residual formula. Moore partition refinement minimizes the
result; non-accepting all-self-loop states are recorded as sinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ltl
from .ltl import (
    And,
    Atom,
    Eventually,
    FALSE,
    Formula,
    Globally,
    LFalse,
    LTrue,
    Next,
    NotAtom,
    Or,
    PropositionTable,
    TRUE,
    Until,
    conj,
    disj,
    is_cosafe,
)

DEFAULT_STATE_CAP = 10_000


class FragmentError(ltl.LtlError):
    pass


class StateExplosionError(RuntimeError):
    def __init__(self, cap):
        super().__init__(f"progression exceeded the configured state cap ({cap})")
        self.cap = cap


class AtomTableMismatchError(ValueError):
    pass


def progress(f: Formula, symbol: int) -> Formula:
    """Residual obligation after consuming one symbol (bitmask over atoms)."""
    if isinstance(f, (LTrue, LFalse)):
        return f
    if isinstance(f, Atom):
        return TRUE if symbol >> f.index & 1 else FALSE
    if isinstance(f, NotAtom):
        return FALSE if symbol >> f.index & 1 else TRUE
    if isinstance(f, And):
        return conj(progress(c, symbol) for c in f.children)
    if isinstance(f, Or):
        return disj(progress(c, symbol) for c in f.children)
    if isinstance(f, Next):
        return f.child
    if isinstance(f, Eventually):
        return disj([progress(f.child, symbol), f])
    if isinstance(f, Globally):
        return conj([progress(f.child, symbol), f])
    if isinstance(f, Until):
        return disj([progress(f.right, symbol), conj([progress(f.left, symbol), f])])
    raise TypeError(f"not a formula: {f!r}")


def eval_last(f: Formula, symbol: int) -> bool:
    """Truth of ``f`` on the single-position trace [symbol].

    X is strong (false at the final position); F, G and U collapse to
    their argument at the last step.
    """
    if isinstance(f, LTrue):
        return True
    if isinstance(f, LFalse):
        return False
    if isinstance(f, Atom):
        return bool(symbol >> f.index & 1)
    if isinstance(f, NotAtom):
        return not symbol >> f.index & 1
    if isinstance(f, And):
        return all(eval_last(c, symbol) for c in f.children)
    if isinstance(f, Or):
        return any(eval_last(c, symbol) for c in f.children)
    if isinstance(f, Next):
        return False
    if isinstance(f, (Eventually, Globally)):
        return eval_last(f.child, symbol)
    if isinstance(f, Until):
        return eval_last(f.right, symbol)
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class Dfa:
    """Dense deterministic automaton over symbols 0..2^l-1.

    ``delta`` has shape (n_states, 2^l); bit i of a symbol corresponds to
    atom i of ``atom_names``. ``accepting`` states are visited exactly by
    the traces in the automaton's language; ``sinks`` are the non-accepting
    states that can never leave themselves.
    """

    atom_names: tuple[str, ...]
    z0: int
    delta: np.ndarray
    accepting: frozenset[int]
    sinks: frozenset[int]

    @property
    def n_states(self) -> int:
        return self.delta.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.delta.shape[1]

    def step(self, z: int, symbol: int) -> int:
        return int(self.delta[z, symbol])

    def first_accept(self, trace) -> int | None:
        """Index of the first symbol whose consumption lands in an
        accepting state, or None (the run visits z0 before any symbol)."""
        z = self.z0
        for i, symbol in enumerate(trace):
            z = int(self.delta[z, symbol])
            if z in self.accepting:
                return i
        return None

    def accepts(self, trace) -> bool:
        return self.first_accept(trace) is not None

    def to_json(self) -> dict:
        return {
            "atoms": list(self.atom_names),
            "z0": self.z0,
            "delta": self.delta.tolist(),
            "accepting": sorted(self.accepting),
            "sinks": sorted(self.sinks),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Dfa":
        return cls(
            atom_names=tuple(data["atoms"]),
            z0=int(data["z0"]),
            delta=np.asarray(data["delta"], dtype=np.int64),
            accepting=frozenset(int(z) for z in data["accepting"]),
            sinks=frozenset(int(z) for z in data["sinks"]),
        )


def identify_sinks(delta: np.ndarray, accepting: frozenset[int]) -> frozenset[int]:
    """Non-accepting states whose every transition is a self-loop."""
    sinks = set()
    for z in range(delta.shape[0]):
        if z not in accepting and np.all(delta[z] == z):
            sinks.add(z)
    return frozenset(sinks)


def _minimal_dfa(atom_names, delta, accepting) -> Dfa:
    """The minimal DFA of ``delta`` started in state 0: Moore partition
    refinement, with blocks numbered by first occurrence in state order."""
    rows = delta.tolist()
    block = [1 if z in accepting else 0 for z in range(len(rows))]
    while True:
        remap: dict = {}
        new_block = [
            remap.setdefault((block[z], tuple(block[t] for t in row)), len(remap))
            for z, row in enumerate(rows)
        ]
        if new_block == block:
            break
        block = new_block
    representative = [block.index(b) for b in range(max(block) + 1)]
    delta = np.asarray(block, dtype=np.int64)[delta[representative]]
    accepting = frozenset(block[z] for z in accepting)
    return Dfa(
        atom_names=tuple(atom_names),
        z0=block[0],
        delta=delta,
        accepting=accepting,
        sinks=identify_sinks(delta, accepting),
    )


# Compiler states are positive Boolean combinations of the temporal
# subformulas of the input, kept as a canonical DNF: a frozenset of
# implicants, each implicant a frozenset of non-Boolean subformulas.
# Progression then stays inside the (finite) subformula closure, with
# absorption pruning redundant implicants, so the construction terminates
# without relying on syntactic luck.

_DNF_TRUE = frozenset({frozenset()})
_DNF_FALSE = frozenset()


def _absorb(implicants) -> frozenset:
    kept = []
    for imp in sorted(implicants, key=len):
        if not any(other <= imp for other in kept):
            kept.append(imp)
    return frozenset(kept)


def _to_dnf(f: Formula) -> frozenset:
    if isinstance(f, LTrue):
        return _DNF_TRUE
    if isinstance(f, LFalse):
        return _DNF_FALSE
    if isinstance(f, Or):
        out = set()
        for c in f.children:
            out |= _to_dnf(c)
        return _absorb(out)
    if isinstance(f, And):
        out = _DNF_TRUE
        for c in f.children:
            out = _conj_dnf(out, _to_dnf(c))
        return out
    return frozenset({frozenset({f})})


def _conj_dnf(a: frozenset, b: frozenset) -> frozenset:
    return _absorb({x | y for x in a for y in b})


def _progress_dnf(state: frozenset, symbol: int) -> frozenset:
    out = set()
    for imp in state:
        term = _DNF_TRUE
        for leaf in imp:
            term = _conj_dnf(term, _to_dnf(progress(leaf, symbol)))
            if not term:
                break
        out |= term
    return _absorb(out)


def _eval_last_dnf(state: frozenset, symbol: int) -> bool:
    return any(all(eval_last(leaf, symbol) for leaf in imp) for imp in state)


def _dnf_key(state: frozenset) -> tuple:
    return tuple(sorted(tuple(sorted(leaf.key for leaf in imp)) for imp in state))


def _explore(start, key, successor, n_sym, max_states):
    """Number the states reachable from ``start`` breadth-first; returns
    them in discovery order with their (n_states, n_sym) transition table.

    ``successor(state, symbol)`` gives the next state, or None for a move
    into an absorbing accept state, written -1 and not numbered; ``key``
    maps a state to its hashable identity. At most ``max_states`` states
    are numbered (None: no cap)."""
    ids = {key(start): 0}
    states = [start]
    rows = []
    for state in states:  # grows while it is walked
        row = np.empty(n_sym, dtype=np.int64)
        for symbol in range(n_sym):
            nxt = successor(state, symbol)
            if nxt is None:
                row[symbol] = -1
                continue
            k = key(nxt)
            target = ids.get(k)
            if target is None:
                target = len(states)
                if max_states is not None and target >= max_states:
                    raise StateExplosionError(max_states)
                ids[k] = target
                states.append(nxt)
            row[symbol] = target
        rows.append(row)
    return states, np.stack(rows)


def compile_cosafe(f: Formula, table: PropositionTable, max_states: int = DEFAULT_STATE_CAP) -> Dfa:
    """Build the minimal DFA whose language is exactly the finite traces
    satisfying the co-safe formula ``f``."""
    if not is_cosafe(f):
        raise FragmentError("DFA compilation requires a co-safe formula (no G in NNF)")

    def successor(g, symbol):
        return None if _eval_last_dnf(g, symbol) else _progress_dnf(g, symbol)

    n_sym = table.symbol_count
    states, delta = _explore(_to_dnf(f), _dnf_key, successor, n_sym, max_states)
    accepting = frozenset()
    if (delta == -1).any():
        accept_id = len(states)
        delta = np.vstack([np.where(delta == -1, accept_id, delta), np.full(n_sym, accept_id)])
        accepting = frozenset({accept_id})
    return _minimal_dfa(table.names, delta, accepting)


def monitor_product(liveness: Dfa, violation: Dfa) -> Dfa:
    """Combined training monitor for a liveness-and-safety specification.

    Runs the liveness DFA and the safety-violation DFA in lockstep.
    Accepting states are those where the liveness half has accepted and no
    violation has occurred yet; acceptance is made absorbing before
    minimization, and every state from which acceptance is unreachable
    (violation already seen, or liveness dead) collapses into a sink.
    """
    if liveness.atom_names != violation.atom_names:
        raise AtomTableMismatchError("monitor parts must share one proposition table")

    def is_acc(pair):
        return pair[0] in liveness.accepting and pair[1] not in violation.accepting

    def successor(pair, symbol):
        if is_acc(pair):
            return pair  # accepting states absorb
        return int(liveness.delta[pair[0], symbol]), int(violation.delta[pair[1], symbol])

    start = (liveness.z0, violation.z0)
    pairs, delta = _explore(start, lambda pair: pair, successor, liveness.n_symbols, None)
    accepting = frozenset(i for i, pair in enumerate(pairs) if is_acc(pair))
    return _minimal_dfa(liveness.atom_names, delta, accepting)
