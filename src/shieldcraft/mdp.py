"""Explicit finite MDPs and their products with DFAs.

Transition rows are sparse ``(target, probability)`` lists in canonical
(target-sorted) order; labels are bitmasks over the proposition table, so
a state's label is directly a DFA input symbol. For shield synthesis a
product splits its rows by their targets: the settled rows, whose targets
are all final, are multiplied by the final indicator once
(`ProductMdp.settled_mass`), and only the other rows stay resident, as one
dense tensor in a zero-page-backed mapping (`ProductMdp.live_tensor`).
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .dfa import Dfa

ROW_SUM_TOL = 1e-9


class AtomMismatchError(ValueError):
    pass


class CorruptMdpError(ValueError):
    """An MDP read from JSON that lacks a key, mislabels a state, or breaks
    stochasticity or totality; holds every defect found."""

    def __init__(self, defects: list):
        super().__init__(f"corrupt MDP: {len(defects)} defect(s), first: {defects[0]}")
        self.defects = defects


@dataclass(frozen=True)
class MissingKeyError:
    """A key that the JSON form of an MDP or a shield must have."""
    key: str


@dataclass(frozen=True)
class LabelError:
    """A label on a state outside the MDP, or naming unknown atoms."""
    state: int
    unknown_atoms: tuple[str, ...]


@dataclass(frozen=True)
class RowIndexError:
    """A transition row whose state or action lies outside the MDP."""
    state: int
    action: int


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

    def validate(self) -> list:
        """All violated stochasticity/totality invariants and every row
        outside the state or action range; never raises."""
        defects = [
            RowIndexError(q, a) for q, a in self.rows
            if not (0 <= q < self.n_states and 0 <= a < self.n_actions)
        ]
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
        """The MDP of a `to_json` dict; raises `CorruptMdpError` when a key
        is missing, a label is on a state outside the MDP or names an
        unknown atom, or the MDP fails `validate`."""
        try:
            atom_names = tuple(data["atoms"])
            n = int(data["states"]["count"])
            actions = tuple(data["actions"])
            transitions = data["transitions"]
            state_labels = data["labels"]
        except KeyError as exc:
            raise CorruptMdpError([MissingKeyError(exc.args[0])]) from None
        atom_index = {name: i for i, name in enumerate(atom_names)}
        rows: dict = {}
        for q, a, target, p in transitions:
            rows.setdefault((int(q), int(a)), []).append((int(target), float(p)))
        frozen = {key: tuple(sorted(val)) for key, val in rows.items()}
        labels = [0] * n
        defects = []
        for q, names in state_labels:
            q = int(q)
            unknown = tuple(name for name in names if name not in atom_index)
            if unknown or not 0 <= q < n:
                defects.append(LabelError(q, unknown))
                continue
            mask = 0
            for name in names:
                mask |= 1 << atom_index[name]
            labels[q] = mask
        meta = data["states"].get("metadata")
        mdp = cls(
            n_states=n,
            action_names=actions,
            rows=frozen,
            labels=tuple(labels),
            atom_names=atom_names,
            state_meta=tuple(meta) if meta is not None else None,
        )
        defects += mdp.validate()
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

    def initial_state(self, q: int) -> int:
        z = self.dfa.step(self.dfa.z0, self.base.labels[q])
        return self.state_index(q, z)

    @cached_property
    def final_member(self) -> np.ndarray:
        """(S,) read-only indicator of the final (violating) states."""
        member = np.zeros(self.n_states, dtype=bool)
        member[list(self.final_states)] = True
        member.flags.writeable = False
        return member

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        return _split_rows(self)

    @property
    def settled_mass(self) -> np.ndarray:
        """(A, S) read-only one-step probability of entering a final state
        from each settled row, and ``0.0`` at every other row. A row is
        settled when every one of its targets is final. Computed once, with
        `live_tensor`, on first use, and then shared by every shield
        synthesized from this product."""
        return self._split[0]

    @property
    def live_tensor(self) -> np.ndarray:
        """Dense (A, S, S) transition probabilities of the rows that are
        not settled, and zeros at the settled rows, in a zero-page-backed
        mapping (see `_zero_mapping`). A final state whose row leaves the
        final set keeps that row here."""
        return self._split[1]

    def step_mass(self, v: np.ndarray) -> np.ndarray:
        """(A, S) expectation of ``v`` one step on, per action and source
        state: ``live_tensor @ v + settled_mass``.

        ``v`` must be finite, non-negative and 1.0 at every final state.
        The sum then equals the full tensor's ``@ v`` bit for bit:
        ``live_tensor`` has the full tensor's shape, so each row keeps its
        position, BLAS kernel and thread split; a settled row's nonzero
        entries all sit at final states, where ``v`` is 1.0, and a zero entry
        adds nothing in any summation order, so its product with ``v`` is its
        product with the final indicator; and one of the two terms of each
        entry is a zero row's ``+0.0``."""
        return self.live_tensor @ v + self.settled_mass

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


def _split_rows(pm: ProductMdp) -> tuple[np.ndarray, np.ndarray]:
    """The product's ``(settled_mass, live_tensor)``.

    The settled rows are multiplied once, by the final indicator, inside
    one zero-page ``(A, S, S)`` mapping, one action slice at a time: fill
    slice ``a``, take its product, then hand its pages back with
    ``MADV_DONTNEED`` before slice ``a + 1`` is filled. Each slice's product
    is the BLAS call that numpy's stacked ``@`` makes over the full tensor,
    with the same shape, ``lda`` and page offset. A slice's product reads
    only its own bytes, so rounding the released range out to whole pages
    clears only a used slice or one not yet written. The mapping is
    unmapped before the live tensor is filled, so its pages and the live
    tensor's are never resident together. Without ``MADV_DONTNEED`` the
    results are the same and only the slices stay resident until then."""
    n_a, n_s = pm.n_actions, pm.n_states
    index, probs, settled = _row_entries(pm)
    settled_index, settled_probs = index[settled], probs[settled]
    index, probs = index[~settled], probs[~settled]
    del settled
    member = pm.final_member.astype(float)
    mass = np.empty((n_a, n_s))
    buf, t = _zero_mapping((n_a, n_s, n_s))
    flat = t.reshape(-1)
    size = n_s * n_s
    for a in range(n_a):
        pick = (settled_index >= a * size) & (settled_index < (a + 1) * size)
        _scatter(flat, settled_index[pick], settled_probs[pick])
        # the slice's bytes, from the start of the page they begin in
        start = a * size * 8 // mmap.PAGESIZE * mmap.PAGESIZE
        length = (a + 1) * size * 8 - start
        _populate(buf, start, length)
        mass[a] = t[a] @ member
        if hasattr(mmap, "MADV_DONTNEED"):
            buf.madvise(mmap.MADV_DONTNEED, start, length)
    del t, flat, settled_index, settled_probs
    buf.close()
    mass.flags.writeable = False
    buf, live = _zero_mapping((n_a, n_s, n_s))
    _scatter(live.reshape(-1), index, probs)
    _populate(buf, 0, len(buf))
    return mass, live


def _row_entries(pm: ProductMdp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every entry of the product's rows, in row order, as flat arrays: its
    index ``(a * S + s) * S + target`` into an ``(A, S, S)`` tensor, its
    probability, and whether its row is settled (has no target outside the
    final states)."""
    rows, n_states = pm.rows, pm.n_states
    lengths = np.fromiter(map(len, rows.values()), dtype=np.intp, count=len(rows))
    keys = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=2 * len(rows))
    entries = np.fromiter(chain.from_iterable(chain.from_iterable(rows.values())),
                          dtype=np.float64, count=2 * int(lengths.sum()))
    targets = entries[0::2].astype(np.intp)
    row_of = np.repeat(np.arange(len(rows)), lengths)
    leaving = np.bincount(row_of[~pm.final_member[targets]], minlength=len(rows))
    settled = (leaving == 0)[row_of]
    del row_of
    index = np.repeat((keys[1::2] * n_states + keys[0::2]) * n_states, lengths)
    index += targets
    return index, entries[1::2].copy(), settled


def _zero_mapping(shape: tuple[int, int, int]) -> tuple[mmap.mmap, np.ndarray]:
    """A private anonymous mapping with huge pages switched off, and its
    ``(A, S, S)`` float64 view, which reads as zeros.

    Most of a transition tensor is zero. A 4 KiB page that no entry is
    written to reads as the kernel's shared zero page, so it costs no
    resident memory and the backups that read it stay in cache. (On Linux,
    ``np.zeros`` asks for 2 MiB transparent huge pages on an allocation this
    large, and the first write into each makes all of it resident.) Values,
    dtype and C layout equal those of ``np.zeros``, so the matmuls over the
    view give the same bits. The mapping is unmapped with its last view."""
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return buf, np.frombuffer(buf, dtype=np.float64).reshape(shape)


# MADV_POPULATE_READ (Linux 5.14), which Python 3.11's mmap does not name
_MADV_POPULATE_READ = 22


def _populate(buf: mmap.mmap, start: int, length: int):
    """Map the zero page over the untouched pages of ``length`` bytes of
    ``buf`` from the page-aligned ``start``, in one ``MADV_POPULATE_READ``
    call, so the first product over them takes no page faults; a kernel
    without it leaves them to that product."""
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError):  # before Linux 5.14
            buf.madvise(_MADV_POPULATE_READ, start, length)


def _scatter(flat: np.ndarray, index: np.ndarray, probs: np.ndarray):
    """Write the entries ``probs`` at ``index`` of the zeroed ``flat`` in
    one indexed assignment. Rows are target-sorted, so a repeated target
    sits next to its twin; only then does the fill use ``np.add.at``, which
    adds in entry order and so sums a repeated target as
    `FiniteMdp.validate` does."""
    if (index[1:] == index[:-1]).any():
        np.add.at(flat, index, probs)
    else:
        flat[index] = probs


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
