"""Probabilistic shield synthesis over the safety product MDP.

Three designs, each yielding a per-state set of allowed actions, a safety
score per action, and a fallback action:

  one-step   allow actions whose one-step mass into the unsafe product
             states stays (strictly) below the threshold p
  two-step   recursively grow the unsafe set with states that have no
             allowed action, to a fixed point
  q-optimal  value-iterate the minimal probability of reaching the unsafe
             set within a required horizon N and allow actions whose
             backup value stays below p; one-step is its N = 1 case

All three read the product's rows split by their targets. A row whose
targets are all final (violating) is settled: its mass into the final
states is computed once per product, `ProductMdp.settled_mass`. The other
rows stay resident in one dense tensor of the full shape,
`ProductMdp.live_tensor`. Every score and every backup is
``live_tensor @ v + settled_mass`` for a ``v`` that is 1.0 at the final
states, which equals the full tensor's ``@ v`` bit for bit (see
`ProductMdp.step_mass`).

The runtime filter passes allowed actions through unchanged, replaces a
disallowed action with the safest allowed one (lowest index on ties), and
falls back to the stored per-state fallback action when nothing is
allowed. For product states whose automaton component has already
accepted a violation every action looks equally unsafe, so the fallback
there minimizes the probability that the *next region entered* is itself
a violating one (the best available reading of "return to the safe set").
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .mdp import MissingKeyError, ProductMdp


class ArtifactMismatchError(ValueError):
    """A stored artifact was built for another partition or automaton."""


class CorruptShieldError(ValueError):
    """A shield read from JSON that lacks a key or whose entries the filter
    cannot index; holds every defect found."""

    def __init__(self, defects: list):
        super().__init__(f"corrupt shield: {len(defects)} defect(s), first: {defects[0]}")
        self.defects = defects


@dataclass(frozen=True)
class LengthError:
    """A per-state list with ``length`` entries for ``n_states`` states."""
    field: str
    length: int
    n_states: int


@dataclass(frozen=True)
class ScoresRowError:
    """A scores row whose length is not the action count, the length of
    the first scores row."""
    state: int
    length: int
    n_actions: int


@dataclass(frozen=True)
class AllowedActionError:
    state: int
    action: int
    n_actions: int


@dataclass(frozen=True)
class FallbackError:
    state: int
    action: int
    n_actions: int


@dataclass(frozen=True)
class ShieldConfig:
    threshold: float = 0.05
    kind: str = "one"  # "one" | "two" | "q"
    horizon: int | None = None  # steps of bounded reachability; q-optimal only

    def __post_init__(self):
        # the threshold and horizon messages start with the field's name;
        # ExperimentConfig prefixes them with "shield_" to name its fields
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.kind not in ("one", "two", "q"):
            raise ValueError(f"unknown shield kind {self.kind!r}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be a positive step count or None, got {self.horizon}")
        if self.kind == "q" and self.horizon is None:
            raise ValueError("horizon is required by a q shield (a positive step count), got None")


@dataclass(frozen=True)
class FilterDecision:
    action: int
    intervened: bool


@dataclass(frozen=True)
class Shield:
    kind: str
    threshold: float
    horizon: int | None
    allowed: tuple[tuple[int, ...], ...]
    fallback: tuple[int, ...]
    scores: tuple[tuple[float, ...], ...]
    unsafe_states: frozenset[int]
    values: tuple[float, ...] | None = None

    @property
    def n_states(self) -> int:
        return len(self.allowed)

    @cached_property
    def _decisions(self) -> tuple[tuple[FilterDecision, ...], ...]:
        """The decision per (product state, proposed action): pass an
        allowed action through, else take the allowed action with the least
        (score, index), else the state's fallback. Built on the first
        filter call, not during synthesis."""
        n_a = len(self.scores[0])
        keep = [FilterDecision(a, False) for a in range(n_a)]
        swap = [FilterDecision(a, True) for a in range(n_a)]
        table = []
        for allowed, row, fallback in zip(self.allowed, self.scores, self.fallback):
            best = min(allowed, key=lambda a: (row[a], a)) if allowed else fallback
            table.append(tuple(keep[a] if a in allowed else swap[best] for a in range(n_a)))
        return tuple(table)

    def filter(self, s: int, proposed: int) -> FilterDecision:
        return self._decisions[s][proposed]

    def validate(self) -> list:
        """Every entry the filter would misread: a fallback or scores list
        that is not one per state, a scores row that is not one per action,
        and an allowed or fallback action outside the action range. Never
        raises."""
        n_states = self.n_states
        n_actions = len(self.scores[0]) if self.scores else 0
        defects = [
            LengthError(field, len(entries), n_states)
            for field, entries in (("fallback", self.fallback), ("scores", self.scores))
            if len(entries) != n_states
        ]
        for s, row in enumerate(self.scores):
            if len(row) != n_actions:
                defects.append(ScoresRowError(s, len(row), n_actions))
        for s, allowed in enumerate(self.allowed):
            defects += [AllowedActionError(s, a, n_actions)
                        for a in allowed if not 0 <= a < n_actions]
        for s, a in enumerate(self.fallback):
            if not 0 <= a < n_actions:
                defects.append(FallbackError(s, a, n_actions))
        return defects

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.threshold,
            "horizon": self.horizon,
            "allowed": [list(a) for a in self.allowed],
            "fallback": list(self.fallback),
            "scores": [list(s) for s in self.scores],
            "unsafe": sorted(self.unsafe_states),
            "values": list(self.values) if self.values is not None else None,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Shield":
        """The shield of a `to_json` dict; raises `CorruptShieldError` when
        a key is missing or the shield fails `validate`."""
        values = data.get("values")
        try:
            shield = cls(
                kind=data["kind"],
                threshold=float(data["p"]),
                horizon=data.get("horizon"),
                allowed=tuple(tuple(int(a) for a in row) for row in data["allowed"]),
                fallback=tuple(int(a) for a in data["fallback"]),
                scores=tuple(tuple(float(x) for x in row) for row in data["scores"]),
                unsafe_states=frozenset(int(s) for s in data["unsafe"]),
                values=tuple(float(v) for v in values) if values is not None else None,
            )
        except KeyError as exc:
            raise CorruptShieldError([MissingKeyError(exc.args[0])]) from None
        defects = shield.validate()
        if defects:
            raise CorruptShieldError(defects)
        return shield

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "Shield":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _mass_within(pm: ProductMdp, steps: int):
    """Minimal probability of entering the final states within ``steps``
    steps: (S, A) action scores, one step for the action itself plus
    ``steps - 1`` backups under the minimizing action, and the (S,) state
    values those backups produce (the final indicator at ``steps = 1``).

    Every value vector keeps 1.0 at the final states, so each backup and
    the scores are `ProductMdp.step_mass`, which is the full tensor's
    ``@ v`` bit for bit."""
    member = pm.final_member
    if steps == 1:
        return pm.final_mass.T, member.astype(float)
    v = np.where(member, 1.0, pm.final_mass.min(axis=0))
    for _ in range(steps - 2):
        v = np.where(member, 1.0, pm.step_mass(v).min(axis=0))
    return pm.step_mass(v).T, v


def _row_tuples(a: np.ndarray) -> zip:
    """The rows of the 2-D ``a`` as tuples of Python scalars, grouped from
    one flat list: per-row lists would add thousands of short-lived
    GC-tracked objects per shield and run the collector more often."""
    return zip(*[iter(a.ravel().tolist())] * a.shape[1])


def _assemble(pm, cfg, kind, scores, unsafe, values=None) -> Shield:
    actions = range(scores.shape[1])
    allowed = tuple(tuple(compress(actions, row)) for row in _row_tuples(scores < cfg.threshold))
    fallback = np.argmin(scores, axis=1)
    # a final state falls back to the action least likely to enter a
    # freshly violating region next
    final = np.flatnonzero(pm.final_member)
    fallback[final] = np.argmin(pm.fresh_violation_mass, axis=1)[final // pm.n_z]
    return Shield(
        kind=kind,
        threshold=cfg.threshold,
        horizon=cfg.horizon if kind == "q" else None,
        allowed=allowed,
        fallback=tuple(fallback.tolist()),
        scores=tuple(_row_tuples(scores)),
        unsafe_states=frozenset(unsafe),
        values=values,
    )


def one_step(pm: ProductMdp, cfg: ShieldConfig) -> Shield:
    """Allow actions keeping the one-step mass into the final (violating)
    product states strictly below the threshold."""
    scores, _ = _mass_within(pm, 1)
    return _assemble(pm, cfg, "one", scores, pm.final_states)


def two_step(pm: ProductMdp, cfg: ShieldConfig) -> Shield:
    """Grow the unsafe set with action-less states until a fixed point.

    Terminates in at most |S| iterations since the unsafe set can only
    grow.
    """
    unsafe = pm.final_member
    scores = pm.final_mass.T
    for _ in range(pm.n_states + 1):
        no_action = ~(scores < cfg.threshold).any(axis=1)
        grown = unsafe | no_action
        if (grown == unsafe).all():
            break
        unsafe = grown
        scores = pm.step_mass(unsafe.astype(float)).T
    else:  # pragma: no cover - guarded by the monotone-growth argument
        raise AssertionError("two-step recursion failed to reach a fixed point")
    # the fixed point left unsafe unchanged, so the last scores are its own
    return _assemble(pm, cfg, "two", scores, frozenset(np.flatnonzero(unsafe).tolist()))


def q_optimal(pm: ProductMdp, cfg: ShieldConfig) -> Shield:
    """Dynamic-programming shield on minimal unsafe-reach probability: the
    action value is the exact probability of reaching the unsafe set
    within ``cfg.horizon`` steps."""
    scores, v = _mass_within(pm, cfg.horizon)
    return _assemble(pm, cfg, "q", scores, pm.final_states, values=tuple(v.tolist()))


def synthesize(pm: ProductMdp, cfg: ShieldConfig) -> Shield:
    if cfg.kind == "one":
        return one_step(pm, cfg)
    if cfg.kind == "two":
        return two_step(pm, cfg)
    return q_optimal(pm, cfg)


class ShieldRuntime:
    """Deployable filter: tracks the violation automaton alongside the
    flight state and maps (partition cell, automaton state) to shield
    entries; cell -1 (domain exit) maps to the exit state."""

    def __init__(self, shield: Shield, violation_dfa, partition):
        expected = (partition.n_cells + 1) * violation_dfa.n_states
        if shield.n_states != expected:
            raise ArtifactMismatchError(
                f"shield mismatch: the shield has {shield.n_states} product states, but "
                f"{partition.n_cells} cells + exit times {violation_dfa.n_states} "
                f"violation-automaton states make {expected}"
            )
        self.shield = shield
        self.dfa = violation_dfa
        self.z = violation_dfa.z0
        self._delta = violation_dfa.delta.tolist()
        self._n_z = violation_dfa.n_states
        self._exit_cell = partition.n_cells

    def reset(self, labels: int):
        self.z = self._delta[self.dfa.z0][labels]

    def update(self, labels: int):
        self.z = self._delta[self.z][labels]

    def product_state(self, cell: int) -> int:
        if cell < 0:
            cell = self._exit_cell
        return cell * self._n_z + self.z

    def filter(self, cell: int, proposed: int) -> FilterDecision:
        return self.shield.filter(self.product_state(cell), proposed)
