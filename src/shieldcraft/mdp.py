"""Explicit finite MDPs, DFA products, and finite-trace checking.

Transition rows are sparse ``(target, probability)`` lists in canonical
(target-sorted) order; labels are bitmasks over the proposition table, so
a state's label is directly a DFA input symbol.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass
from functools import cached_property
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
    label of the start state, see `initial_state`.
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
    def transition_tensor(self) -> np.ndarray:
        """Dense (A, S, S) transition probabilities, built on first use and
        then shared by every shield synthesized from this product."""
        return _dense_transitions(self)


def _dense_transitions(pm: ProductMdp) -> np.ndarray:
    """Scatter the row entries into a zero float64 tensor held in a private
    anonymous mapping, with huge pages switched off.

    Most of the tensor is zero. A 4 KiB page that no entry is written to
    reads as the kernel's shared zero page, so it costs no resident memory
    and the backups that read it stay in cache. (On Linux, ``np.zeros``
    asks for 2 MiB transparent huge pages on an allocation this large, and
    the first write into each makes all of it resident.) Values, dtype and
    C layout equal those of ``np.zeros``, so the matmuls over the tensor
    give the same bits. The mapping is unmapped with its last view.

    The loop adds no large temporaries, which would stay in the heap under
    the tensor (index arrays for one ``np.add.at`` call: ~5 MB on a
    3002-state product, and no faster). ``+=`` sums repeated entries of a
    row, as `FiniteMdp.validate` does."""
    shape = (pm.n_actions, pm.n_states, pm.n_states)
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    t = np.frombuffer(buf, dtype=np.float64).reshape(shape)
    for (s, a), row in pm.rows.items():
        for target, p in row:
            t[a, s, target] += p
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
