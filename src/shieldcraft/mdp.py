"""Explicit finite MDPs, DFA products, and finite-trace checking.

Transition rows are sparse ``(target, probability)`` lists in canonical
(target-sorted) order; labels are bitmasks over the proposition table, so
a state's label is directly a DFA input symbol. For shield synthesis a
product also holds its rows as two dense tensors, split by source state
into the rows of live (non-final) and of final states, each in its own
zero-page-backed mapping (`ProductMdp.transition_tensors`).
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Sequence

import numpy as np

from .dfa import Dfa

ROW_SUM_TOL = 1e-9


class AtomMismatchError(ValueError):
    pass


class CorruptMdpError(ValueError):
    """An MDP read from JSON that breaks stochasticity or totality; holds
    every defect `FiniteMdp.validate` found."""

    def __init__(self, defects: list):
        super().__init__(f"corrupt MDP: {len(defects)} defect(s), first: {defects[0]}")
        self.defects = defects


@dataclass(frozen=True)
class RowSumError:
    state: int
    action: int
    total: float


@dataclass(frozen=True)
class MissingActionError:
    state: int
    action: int


@dataclass(frozen=True)
class ProbabilityError:
    state: int
    action: int
    target: int
    probability: float


@dataclass(frozen=True)
class FiniteMdp:
    """Explicit MDP with total action availability and labelled states."""

    n_states: int
    action_names: tuple[str, ...]
    rows: dict[tuple[int, int], tuple[tuple[int, float], ...]]
    labels: tuple[int, ...]
    atom_names: tuple[str, ...]
    state_meta: tuple = None

    @property
    def n_actions(self) -> int:
        return len(self.action_names)

    def row(self, state: int, action: int) -> tuple[tuple[int, float], ...]:
        return self.rows[(state, action)]

    def validate(self) -> list:
        """All violated stochasticity/totality invariants, never raises."""
        defects = []
        for q in range(self.n_states):
            for a in range(self.n_actions):
                row = self.rows.get((q, a))
                if row is None:
                    defects.append(MissingActionError(q, a))
                    continue
                total = 0.0
                for target, p in row:
                    total += p
                    if not 0.0 <= p <= 1.0 or not 0 <= target < self.n_states:
                        defects.append(ProbabilityError(q, a, target, p))
                if abs(total - 1.0) > ROW_SUM_TOL:
                    defects.append(RowSumError(q, a, total))
        return defects

    # --- canonical JSON form ------------------------------------------

    def to_json(self) -> dict:
        transitions = []
        for (q, a) in sorted(self.rows):
            for target, p in self.rows[(q, a)]:
                transitions.append([q, a, target, p])
        labels = []
        for q, mask in enumerate(self.labels):
            names = [self.atom_names[i] for i in range(len(self.atom_names)) if mask >> i & 1]
            labels.append([q, names])
        states: dict = {"count": self.n_states}
        if self.state_meta is not None:
            states["metadata"] = list(self.state_meta)
        return {
            "states": states,
            "actions": list(self.action_names),
            "transitions": transitions,
            "labels": labels,
            "atoms": list(self.atom_names),
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteMdp":
        """The MDP of a `to_json` dict; raises `CorruptMdpError` when it
        fails `validate`."""
        atom_names = tuple(data["atoms"])
        atom_index = {name: i for i, name in enumerate(atom_names)}
        n = int(data["states"]["count"])
        rows: dict = {}
        for q, a, target, p in data["transitions"]:
            rows.setdefault((int(q), int(a)), []).append((int(target), float(p)))
        frozen = {key: tuple(sorted(val)) for key, val in rows.items()}
        labels = [0] * n
        for q, names in data["labels"]:
            mask = 0
            for name in names:
                mask |= 1 << atom_index[name]
            labels[int(q)] = mask
        meta = data["states"].get("metadata")
        mdp = cls(
            n_states=n,
            action_names=tuple(data["actions"]),
            rows=frozen,
            labels=tuple(labels),
            atom_names=atom_names,
            state_meta=tuple(meta) if meta is not None else None,
        )
        defects = mdp.validate()
        if defects:
            raise CorruptMdpError(defects)
        return mdp

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "FiniteMdp":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class ProductMdp:
    """Synchronous composition of a FiniteMdp with a DFA.

    Product state (q, z) is flattened as ``q * n_z + z``. Stepping into
    base state q' advances the DFA on the label of q' (the label of the
    newly entered state), and runs are initialized by first consuming the
    label of the start state, see `initial_state`. The cached properties
    below are what every shield kind reads; the first synthesis computes
    them once for the product.
    """

    base: FiniteMdp
    dfa: Dfa
    rows: dict[tuple[int, int], tuple[tuple[int, float], ...]]
    final_states: frozenset[int]

    @property
    def n_z(self) -> int:
        return self.dfa.n_states

    @property
    def n_states(self) -> int:
        return self.base.n_states * self.dfa.n_states

    @property
    def n_actions(self) -> int:
        return self.base.n_actions

    def state_index(self, q: int, z: int) -> int:
        return q * self.n_z + z

    def decompose(self, s: int) -> tuple[int, int]:
        return divmod(s, self.n_z)

    def initial_state(self, q: int) -> int:
        z = self.dfa.step(self.dfa.z0, self.base.labels[q])
        return self.state_index(q, z)

    def row(self, s: int, a: int) -> tuple[tuple[int, float], ...]:
        return self.rows[(s, a)]

    @cached_property
    def final_member(self) -> np.ndarray:
        """(S,) read-only indicator of the final (violating) states."""
        member = np.zeros(self.n_states, dtype=bool)
        member[list(self.final_states)] = True
        member.flags.writeable = False
        return member

    @cached_property
    def transition_tensors(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (A, S, S) transition probabilities split by source state
        into ``(live, final)``: ``live`` holds the rows of the non-final
        states and zeros elsewhere, ``final`` the rows of the final ones.
        Built on first use and then shared by every shield synthesized from
        this product.

        The full tensor is ``live + final``, and ``live @ v + final @ v``
        equals its ``@ v`` bit for bit for a non-negative ``v``: both
        tensors have the full tensor's shape, so each row keeps its
        position, BLAS thread split and kernel path; a matrix-vector
        product's entry depends only on its own row and ``v``; and the
        other tensor's row is zero, which adds ``0.0``."""
        return _dense_transitions(self)

    def step_mass(self, v: np.ndarray) -> np.ndarray:
        """(A, S) expectation of the non-negative (S,) ``v`` one step on,
        per action and source state: ``live @ v + final @ v``, which is
        the full tensor's ``@ v`` bit for bit."""
        live, final = self.transition_tensors
        return live @ v + final @ v

    @cached_property
    def final_mass(self) -> np.ndarray:
        """(A, S) read-only one-step probability of entering a final state,
        per action and source state."""
        mass = self.step_mass(self.final_member.astype(float))
        mass.flags.writeable = False
        return mass

    @cached_property
    def fresh_violation_mass(self) -> np.ndarray:
        """(Q, A) read-only probability, per base state and action, that
        the next region entered is freshly violating: its label takes the
        automaton from its start state to an accepting one."""
        d, base = self.dfa, self.base
        bad_region = [int(d.delta[d.z0, label]) in d.accepting for label in base.labels]
        mass = np.zeros((base.n_states, base.n_actions))
        for (q, a), row in base.rows.items():
            mass[q, a] = sum(p for target, p in row if bad_region[target])
        mass.flags.writeable = False
        return mass


# MADV_POPULATE_READ (Linux 5.14), which Python 3.11's mmap does not name
_MADV_POPULATE_READ = 22


def _dense_transitions(pm: ProductMdp) -> tuple[np.ndarray, np.ndarray]:
    """The product's ``(live, final)`` transition tensors."""
    shape = (pm.n_actions, pm.n_states, pm.n_states)
    final = [s in pm.final_states for s, _a in pm.rows]
    live = [not f for f in final]
    return _mapped_tensor(shape, pm.rows, live), _mapped_tensor(shape, pm.rows, final)


def _mapped_tensor(shape: tuple[int, int, int], rows: dict, selected: list) -> np.ndarray:
    """The ``(A, S, S)`` float64 tensor of the ``selected`` entries of
    ``rows``, zero elsewhere, in a private anonymous mapping with huge
    pages switched off.

    Most of the tensor is zero. A 4 KiB page that no entry is written to
    reads as the kernel's shared zero page, so it costs no resident memory
    and the backups that read it stay in cache. (On Linux, ``np.zeros``
    asks for 2 MiB transparent huge pages on an allocation this large, and
    the first write into each makes all of it resident.) Values, dtype and
    C layout equal those of ``np.zeros``, so the matmuls over the tensor
    give the same bits. After the fill, ``MADV_POPULATE_READ`` maps the
    zero page over the untouched pages in one call, so the first backup
    takes no page faults; a kernel without it leaves them to that backup.
    The mapping is unmapped with its last view.

    The entries are written in one indexed assignment from flat index
    arrays. Rows are target-sorted, so a repeated target sits next to its
    twin; only then does the fill use ``np.add.at``, which adds in entry
    order and so sums a repeated target as `FiniteMdp.validate` does."""
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    t = np.frombuffer(buf, dtype=np.float64).reshape(shape)
    n_states = shape[1]
    picked = list(compress(rows.values(), selected))
    lengths = np.fromiter(map(len, picked), dtype=np.intp, count=len(picked))
    keys = np.fromiter(chain.from_iterable(compress(rows, selected)), dtype=np.intp,
                       count=2 * len(picked))
    entries = np.fromiter(chain.from_iterable(chain.from_iterable(picked)),
                          dtype=np.float64, count=2 * int(lengths.sum()))
    del picked
    # flat index of (a, s, target): the row's start, plus the target; the
    # temporaries are freed before the write faults in the tensor's pages
    index = np.repeat((keys[1::2] * n_states + keys[0::2]) * n_states, lengths)
    del keys, lengths
    index += entries[0::2].astype(np.intp)
    probs = entries[1::2].copy()
    del entries
    flat = t.reshape(-1)
    if (index[1:] == index[:-1]).any():
        np.add.at(flat, index, probs)
    else:
        flat[index] = probs
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError):  # before Linux 5.14
            buf.madvise(_MADV_POPULATE_READ)
    return t


def product(m: FiniteMdp, d: Dfa) -> ProductMdp:
    """Full product over Q x Z (all DFA states, reachable or not)."""
    if m.atom_names != d.atom_names:
        raise AtomMismatchError(
            f"MDP atoms {m.atom_names} do not match DFA atoms {d.atom_names}"
        )
    n_z = d.n_states
    # entering base state q2 from DFA state z lands in product state enter[z][q2]
    enter = [
        [q2 * n_z + dz[label] for q2, label in enumerate(m.labels)]
        for dz in d.delta.tolist()
    ]
    rows: dict = {}
    for (q, a), row in m.rows.items():
        for z, to in enumerate(enter):
            rows[(q * n_z + z, a)] = tuple(sorted([(to[q2], p) for q2, p in row]))
    final = frozenset(
        q * n_z + z for q in range(m.n_states) for z in d.accepting
    )
    return ProductMdp(base=m, dfa=d, rows=rows, final_states=final)


@dataclass(frozen=True)
class TraceCheck:
    sat_liveness: bool
    first_liveness: int | None
    violated_safety: bool
    first_violation: int | None

    @property
    def satisfied(self) -> bool:
        return self.sat_liveness and not self.violated_safety


def check_trace(trace: Sequence[int], dfa_liveness: Dfa, dfa_violation: Dfa) -> TraceCheck:
    """Judge one observation trace against a liveness DFA and a
    safety-violation DFA (compiled from the negated safety formula)."""
    first_l = dfa_liveness.first_accept(trace)
    first_v = dfa_violation.first_accept(trace)
    return TraceCheck(
        sat_liveness=first_l is not None,
        first_liveness=first_l,
        violated_safety=first_v is not None,
        first_violation=first_v,
    )
