"""Explicit finite MDPs and their products with DFAs.

Transitions are flat arrays of entries (source, action, target,
probability), in the order of the JSON form, the only place they become
lists; the product with a DFA is one gather over them. Labels are bitmasks
over the proposition table, so a state's label is directly a DFA input
symbol. For shield synthesis a product sorts its rows into three classes
(`_row_classes`): a final state's rows are never filled, their mass is 1.0
by definition; the settled rows, whose targets are all final, are
multiplied by the final indicator once (`ProductMdp.settled_mass`); and
only the live rest stay resident, as one dense tensor in a zero-page-backed
mapping (`ProductMdp.live_tensor`).
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import sys
from dataclasses import dataclass
from functools import cached_property

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
class MalformedFieldError:
    """A scalar field of an MDP's or a shield's JSON form that does not
    have its form, by its key: ``states.count`` that is not a positive
    integer, an empty ``actions`` list, or a shield's ``kind``, ``p`` or
    ``horizon`` outside what synthesis writes."""
    field: str


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
class MalformedEntryError:
    """An entry of a JSON list that does not have its field's form, by its
    index in the list: a transition that is not four numbers with an
    integral state, action and target, a label that is not a state and a
    list of atom names, or a shield entry that is not a number or a list
    of numbers."""
    field: str
    index: int


@dataclass(frozen=True, eq=False)
class FiniteMdp:
    """Explicit MDP with total action availability and labelled states.

    Entry i moves from ``sources[i]`` under ``actions[i]`` to ``targets[i]``
    with probability ``probs[i]``: four aligned read-only arrays, sorted by
    (source, action, target, probability) as `to_json` lists them."""

    n_states: int
    action_names: tuple[str, ...]
    sources: np.ndarray
    actions: np.ndarray
    targets: np.ndarray
    probs: np.ndarray
    labels: tuple[int, ...]
    atom_names: tuple[str, ...]
    state_meta: tuple = None

    def __post_init__(self):
        for name in ("sources", "actions", "targets", "probs"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_actions(self) -> int:
        return len(self.action_names)

    def validate(self) -> list:
        """All violated stochasticity/totality invariants and every row
        outside the state or action range, row by row; never raises. A
        row's sum adds its probabilities in entry order."""
        n, n_a = self.n_states, self.n_actions
        q, a, t, p = self.sources, self.actions, self.targets, self.probs
        inside = (0 <= q) & (q < n) & (0 <= a) & (a < n_a)
        outside = dict.fromkeys(zip(q[~inside].tolist(), a[~inside].tolist()))
        row, t, p = (q * n_a + a)[inside], t[inside], p[inside]
        size = np.bincount(row, minlength=max(n, 0) * n_a)
        total = np.bincount(row, weights=p, minlength=max(n, 0) * n_a)
        bad = ~((0.0 <= p) & (p <= 1.0) & (0 <= t) & (t < n))
        off = np.flatnonzero((size > 0) & (np.abs(total - 1.0) > ROW_SUM_TOL)).tolist()
        # (row, rank, defect); the stable sort keeps a row's entries in order
        found = [(r, 0, MissingActionError(*divmod(r, n_a)))
                 for r in np.flatnonzero(size == 0).tolist()]
        found += [(r, 1, ProbabilityError(*divmod(r, n_a), target, prob))
                  for r, target, prob in zip(row[bad].tolist(), t[bad].tolist(), p[bad].tolist())]
        found += [(r, 2, RowSumError(*divmod(r, n_a), float(total[r]))) for r in off]
        found.sort(key=lambda f: f[:2])
        return [RowIndexError(*key) for key in outside] + [defect for _r, _rank, defect in found]

    # --- canonical JSON form ------------------------------------------

    def to_json(self) -> dict:
        columns = (self.sources, self.actions, self.targets, self.probs)
        transitions = list(map(list, zip(*(c.tolist() for c in columns))))
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
        is missing, the state count is not a positive integer, the action
        list is empty, a transition or label entry is malformed, there are
        fewer entries than (state, action) rows (named by the first
        uncovered row alone), a label is on a state outside the MDP or names
        an unknown atom, or the MDP fails `validate`."""
        try:
            atom_names = tuple(data["atoms"])
            n = data["states"]["count"]
            actions = tuple(data["actions"])
            transitions = data["transitions"]
            state_labels = data["labels"]
        except KeyError as exc:
            raise CorruptMdpError([MissingKeyError(exc.args[0])]) from None
        if type(n) is not int or n < 1:
            raise CorruptMdpError([MalformedFieldError("states.count")])
        if not actions:
            raise CorruptMdpError([MalformedFieldError("actions")])
        atom_index = {name: i for i, name in enumerate(atom_names)}
        table = _transition_table(transitions)
        k, n_a = len(table), len(actions)
        if k < n * n_a:
            # fewer entries than rows: name the first uncovered row, one of
            # rows 0..k, from the entries before any per-state allocation
            q, a = table[:, :2].astype(np.int64).T
            keep = (0 <= q) & (q <= k) & (0 <= a) & (a < n_a)
            first = np.setdiff1d(np.arange(k + 1), q[keep] * n_a + a[keep])[0]
            raise CorruptMdpError([MissingActionError(*divmod(int(first), n_a))])
        labels = [0] * n
        defects = []
        for i, entry in enumerate(state_labels):
            try:
                q, names = entry
                q = int(q)
                unknown = tuple(name for name in names if name not in atom_index)
            except (TypeError, ValueError):
                raise CorruptMdpError([MalformedEntryError("labels", i)]) from None
            if unknown or not 0 <= q < n:
                defects.append(LabelError(q, unknown))
                continue
            mask = 0
            for name in names:
                mask |= 1 << atom_index[name]
            labels[q] = mask
        meta = data["states"].get("metadata")
        q, a, t = table[:, :3].astype(np.int64).T
        p = table[:, 3]
        order = np.lexsort((p, t, a, q))
        mdp = cls(
            n_states=n,
            action_names=actions,
            sources=q[order],
            actions=a[order],
            targets=t[order],
            probs=p[order],
            labels=tuple(labels),
            atom_names=atom_names,
            state_meta=tuple(meta) if meta is not None else None,
        )
        defects += mdp.validate()
        if defects:
            raise CorruptMdpError(defects)
        return mdp

    @classmethod
    def load(cls, path) -> "FiniteMdp":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _transition_table(transitions: list) -> np.ndarray:
    """The ``(k, 4)`` float64 table of a JSON ``transitions`` list of ``k``
    ``[state, action, target, probability]`` entries; raises
    `CorruptMdpError` naming the first entry that is not four numbers with
    an integral state, action and target and a probability (not null)."""

    def numbers(entries):
        try:
            return np.array(entries, dtype=np.float64)
        except (TypeError, ValueError):
            return None

    table = numbers(transitions)
    if table is None or table.shape != (len(transitions), 4):
        # some entry is not four numbers; a row of NaNs stands for each
        rows = [numbers(entry) for entry in transitions]
        table = np.array([np.full(4, np.nan) if r is None or r.shape != (4,) else r
                          for r in rows]).reshape(-1, 4)
    # null reads as NaN; a state, action or target is a whole number that
    # fits an int64
    ids = table[:, :3]
    bad = np.isnan(table[:, 3]) | ~((np.abs(ids) < 2.0**63) & (ids == np.trunc(ids))).all(axis=1)
    if bad.any():
        raise CorruptMdpError([MalformedEntryError("transitions", int(np.argmax(bad)))])
    return table


@dataclass(frozen=True, eq=False)
class ProductMdp:
    """Synchronous composition of a FiniteMdp with a DFA.

    Product state (q, z) is flattened as ``q * n_z + z``. Stepping into
    base state q' advances the DFA on the label of q' (the label of the
    newly entered state), and runs are initialized by first consuming the
    label of the start state, see `initial_state`. The entries are flat
    arrays as in `FiniteMdp`, gathered by `product`. The cached properties
    below are what every shield kind reads; the first synthesis computes
    them once for the product.
    """

    base: FiniteMdp
    dfa: Dfa
    sources: np.ndarray
    actions: np.ndarray
    targets: np.ndarray
    probs: np.ndarray

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
    def rows(self) -> dict[tuple[int, int], tuple[tuple[int, float], ...]]:
        """``{(s, a): ((target, probability), ...)}``, built from the
        arrays on first read; no synthesis reads it."""
        key = self.actions * self.n_states + self.sources
        starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
        pairs = list(zip(self.targets.tolist(), self.probs.tolist()))
        keys = zip(self.sources[starts].tolist(), self.actions[starts].tolist())
        ends = starts[1:] + [len(pairs)]
        return {key: tuple(pairs[lo:hi]) for key, lo, hi in zip(keys, starts, ends)}

    @cached_property
    def final_member(self) -> np.ndarray:
        """(S,) read-only indicator of the final states, see `final_mask`."""
        return final_mask(self.base.n_states, self.dfa)

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        return _split_rows(self)

    @property
    def settled_mass(self) -> np.ndarray:
        """(A, S) read-only one-step probability of entering a final state:
        exactly ``1.0`` at every row of a final state, by definition, the
        product of each settled row of a non-final state with the final
        indicator, and ``0.0`` at every other row. Computed once, with
        `live_tensor`, on first use, and then shared by every shield
        synthesized from this product."""
        return self._split[0]

    @property
    def live_tensor(self) -> np.ndarray:
        """Dense (A, S, S) transition probabilities of the live rows (those
        of non-final states with a target outside the final set), and zeros
        at the other rows, in a zero-page-backed mapping (see
        `_zero_mapping`)."""
        return self._split[1]

    def step_mass(self, v: np.ndarray) -> np.ndarray:
        """(A, S) expectation of ``v`` one step on, per action and source
        state: ``live_tensor @ v + settled_mass``.

        It is exactly ``1.0`` at a final state, whatever its row. ``v`` must
        be finite, non-negative and 1.0 at every final state; at every other
        row the sum then equals the full tensor's ``@ v`` bit for bit:
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
        automaton from its start state to an accepting one. Each row adds
        its entries in entry order."""
        d, base = self.dfa, self.base
        bad_region = np.isin(d.delta[d.z0][list(base.labels)], list(d.accepting))
        fresh = bad_region[base.targets]
        mass = np.zeros((base.n_states, base.n_actions))
        np.add.at(mass, (base.sources[fresh], base.actions[fresh]), base.probs[fresh])
        mass.flags.writeable = False
        return mass


def _split_rows(pm: ProductMdp) -> tuple[np.ndarray, np.ndarray]:
    """The product's ``(settled_mass, live_tensor)``.

    The settled rows are filled into one zero-page ``(A, S, S)`` mapping
    and multiplied by the final indicator with one stacked ``@``, the
    product the full tensor's ``@`` makes for them, with the same shape,
    ``lda`` and page offset. That mapping is unmapped before the live
    tensor is filled, so its pages and the live tensor's are never resident
    together. The final rows are filled into neither."""
    kind = _row_classes(pm)[pm.actions, pm.sources]
    buf, settled = _filled(pm, kind == SETTLED)
    mass = settled @ pm.final_member.astype(float)
    del settled
    buf.close()
    mass[:, pm.final_member] = 1.0
    mass.flags.writeable = False
    _buf, live = _filled(pm, kind == LIVE)
    return mass, live


LIVE, SETTLED, FINAL = 0, 1, 2  # the classes of a product row


def _row_classes(pm: ProductMdp) -> np.ndarray:
    """(A, S) class of each row (a, s): `FINAL` when s is final, `SETTLED`
    when every target of a row of a non-final state is final, and `LIVE`
    otherwise."""
    n_a, n_s = pm.n_actions, pm.n_states
    row = pm.actions * n_s + pm.sources
    leaving = np.bincount(row[~pm.final_member[pm.targets]], minlength=n_a * n_s)
    classes = np.where(leaving == 0, SETTLED, LIVE).reshape(n_a, n_s)
    classes[:, pm.final_member] = FINAL
    return classes


# MADV_POPULATE_READ (Linux 5.14), which Python 3.11's mmap does not name
_MADV_POPULATE_READ = 22


def _filled(pm: ProductMdp, pick: np.ndarray) -> tuple[mmap.mmap, np.ndarray]:
    """A zero-page ``(A, S, S)`` mapping (see `_zero_mapping`) holding the
    product's entries where ``pick`` is true. One ``MADV_POPULATE_READ``
    call maps the zero page over its untouched pages, so the first product
    over them takes no page faults; a kernel without it leaves them to that
    product."""
    n_s = pm.n_states
    buf, t = _zero_mapping((pm.n_actions, n_s, n_s))
    index = (pm.actions[pick] * n_s + pm.sources[pick]) * n_s + pm.targets[pick]
    _scatter(t.reshape(-1), index, pm.probs[pick])
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError):  # before Linux 5.14
            buf.madvise(_MADV_POPULATE_READ)
    return buf, t


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
    """Full product over Q x Z (all DFA states, reachable or not): the base
    entries gathered once per DFA state z, z-major, each from ``q * n_z +
    z`` to ``q2 * n_z + delta[z, label[q2]]``, so a product row's entries
    stay contiguous and in its base row's order."""
    if m.atom_names != d.atom_names:
        raise AtomMismatchError(
            f"MDP atoms {m.atom_names} do not match DFA atoms {d.atom_names}"
        )
    n_z = d.n_states
    z = np.arange(n_z)[:, None]
    entered = d.delta[z, np.asarray(m.labels, dtype=np.intp)[m.targets]]
    return ProductMdp(
        base=m,
        dfa=d,
        sources=(m.sources * n_z + z).ravel(),
        actions=np.tile(m.actions, n_z),
        targets=(m.targets * n_z + entered).ravel(),
        probs=np.tile(m.probs, n_z),
    )


def final_mask(n_base: int, d: Dfa) -> np.ndarray:
    """(n_base * n_z,) read-only indicator of the final product states: the
    state ``q * n_z + z`` has already violated when the automaton state z is
    accepting, whatever the base state q."""
    member = np.tile(np.isin(np.arange(d.n_states), list(d.accepting)), n_base)
    member.flags.writeable = False
    return member
