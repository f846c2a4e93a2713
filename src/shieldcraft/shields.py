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

import numpy as np

from .mdp import ProductMdp


class ArtifactMismatchError(ValueError):
    """A stored artifact was built for another partition or automaton."""


@dataclass(frozen=True)
class ShieldConfig:
    threshold: float = 0.05
    kind: str = "one"  # "one" | "two" | "q"
    horizon: int | None = None  # steps of bounded reachability; q-optimal only

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.kind not in ("one", "two", "q"):
            raise ValueError(f"unknown shield kind {self.kind!r}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be a positive step count or None")
        if self.kind == "q" and self.horizon is None:
            raise ValueError("a q shield needs a horizon (a positive step count), got None")


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

    def filter(self, s: int, proposed: int) -> FilterDecision:
        allowed = self.allowed[s]
        if proposed in allowed:
            return FilterDecision(proposed, False)
        if allowed:
            row = self.scores[s]
            best = min(allowed, key=lambda a: (row[a], a))
            return FilterDecision(best, True)
        return FilterDecision(self.fallback[s], True)

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
        values = data.get("values")
        return cls(
            kind=data["kind"],
            threshold=float(data["p"]),
            horizon=data.get("horizon"),
            allowed=tuple(tuple(int(a) for a in row) for row in data["allowed"]),
            fallback=tuple(int(a) for a in data["fallback"]),
            scores=tuple(tuple(float(x) for x in row) for row in data["scores"]),
            unsafe_states=frozenset(int(s) for s in data["unsafe"]),
            values=tuple(float(v) for v in values) if values is not None else None,
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "Shield":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _final_member(pm: ProductMdp) -> np.ndarray:
    """(S,) indicator of the final (violating) product states."""
    member = np.zeros(pm.n_states, dtype=bool)
    member[list(pm.final_states)] = True
    return member


def _mass_within(t: np.ndarray, member: np.ndarray, steps: int):
    """Minimal probability of entering the indicated state set within
    ``steps`` steps: (S, A) action scores, one step for the action itself
    plus ``steps - 1`` backups under the minimizing action, and the (S,)
    state values those backups produce (the indicator at ``steps = 1``)."""
    v = member.astype(float)
    for _ in range(steps - 1):
        v = np.where(member, 1.0, (t @ v).min(axis=0))
    return (t @ v).T, v


def _region_return_fallback(pm: ProductMdp) -> np.ndarray:
    """Per (q, a): probability that the next region entered is freshly
    violating (its label fires the violation automaton from its start)."""
    d = pm.dfa
    base = pm.base
    bad_region = np.array(
        [int(d.delta[d.z0, base.labels[q]]) in d.accepting for q in range(base.n_states)]
    )
    mass = np.zeros((base.n_states, base.n_actions))
    for (q, a), row in base.rows.items():
        mass[q, a] = sum(p for target, p in row if bad_region[target])
    return mass


def _assemble(pm, cfg, kind, scores, unsafe, values=None) -> Shield:
    n_s, n_a = scores.shape
    allowed = tuple(
        tuple(a for a in range(n_a) if scores[s, a] < cfg.threshold) for s in range(n_s)
    )
    fallback = list(np.argmin(scores, axis=1))
    region_mass = _region_return_fallback(pm)
    for s in pm.final_states:
        q, _z = pm.decompose(s)
        fallback[s] = int(np.argmin(region_mass[q]))
    return Shield(
        kind=kind,
        threshold=cfg.threshold,
        horizon=cfg.horizon if kind == "q" else None,
        allowed=allowed,
        fallback=tuple(int(a) for a in fallback),
        scores=tuple(tuple(float(x) for x in row) for row in scores),
        unsafe_states=frozenset(unsafe),
        values=values,
    )


def one_step(pm: ProductMdp, cfg: ShieldConfig) -> Shield:
    """Allow actions keeping the one-step mass into the final (violating)
    product states strictly below the threshold."""
    scores, _ = _mass_within(pm.transition_tensor, _final_member(pm), 1)
    return _assemble(pm, cfg, "one", scores, pm.final_states)


def two_step(pm: ProductMdp, cfg: ShieldConfig) -> Shield:
    """Grow the unsafe set with action-less states until a fixed point.

    Terminates in at most |S| iterations since the unsafe set can only
    grow.
    """
    t = pm.transition_tensor
    unsafe = _final_member(pm)
    for _ in range(pm.n_states + 1):
        scores, _ = _mass_within(t, unsafe, 1)
        no_action = ~(scores < cfg.threshold).any(axis=1)
        grown = unsafe | no_action
        if (grown == unsafe).all():
            break
        unsafe = grown
    else:  # pragma: no cover - guarded by the monotone-growth argument
        raise AssertionError("two-step recursion failed to reach a fixed point")
    # the fixed point left unsafe unchanged, so the last scores are its own
    return _assemble(pm, cfg, "two", scores, frozenset(np.flatnonzero(unsafe).tolist()))


def q_optimal(pm: ProductMdp, cfg: ShieldConfig) -> Shield:
    """Dynamic-programming shield on minimal unsafe-reach probability: the
    action value is the exact probability of reaching the unsafe set
    within ``cfg.horizon`` steps."""
    scores, v = _mass_within(pm.transition_tensor, _final_member(pm), cfg.horizon)
    return _assemble(
        pm, cfg, "q", scores, pm.final_states, values=tuple(float(x) for x in v)
    )


def synthesize(pm: ProductMdp, cfg: ShieldConfig) -> Shield:
    if cfg.kind == "one":
        return one_step(pm, cfg)
    if cfg.kind == "two":
        return two_step(pm, cfg)
    return q_optimal(pm, cfg)


class ShieldRuntime:
    """Deployable filter: tracks the violation automaton alongside the
    flight state and maps (cell, automaton state) to shield entries."""

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
        self.partition = partition
        self.z = violation_dfa.z0
        self._delta = violation_dfa.delta.tolist()
        self._n_z = violation_dfa.n_states
        self._exit_cell = partition.n_cells

    def reset(self, labels: int):
        self.z = self._delta[self.dfa.z0][labels]

    def update(self, labels: int):
        self.z = self._delta[self.z][labels]

    def product_state(self, rate: float, wheel: float, charge: float) -> int:
        q = self.partition.locate_one(rate, wheel, charge)
        if q < 0:
            q = self._exit_cell
        return q * self._n_z + self.z

    def filter(self, coords, proposed: int) -> FilterDecision:
        return self.shield.filter(self.product_state(*coords), proposed)
