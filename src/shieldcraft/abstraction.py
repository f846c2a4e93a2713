"""Grid abstraction of the safe operating domain with Monte Carlo
transition estimation.

The domain (attitude rate x wheel speed x stored charge) is partitioned
into axis-aligned cells; per (cell, action) the simulator is stepped once
from ``samples_per_cell`` hidden states drawn uniformly in the cell (other
hidden coordinates randomized over their full ranges), and the empirical
landing frequencies become the transition row. Landings outside the
domain map to one absorbing unsafe-exit state labelled {p1, p2}.

Each (cell, action) row draws from its own RNG stream derived from
(seed, stream tag, cell, action), so results are bit-identical regardless
of execution order or parallelism.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .env import CHARGE_FLOOR, RATE_LIMIT, WHEEL_CEIL, WHEEL_LIMIT
from .mdp import FiniteMdp

P1_BIT = 1 << 1
P2_BIT = 1 << 2
_ABSTRACTION_STREAM = 1  # keeps row streams disjoint from training/eval streams


class RegionMisalignmentError(ValueError):
    pass


class SimulatorFailureError(RuntimeError):
    def __init__(self, state, action, cause):
        super().__init__(f"simulator failed at cell {state}, action {action}: {cause}")
        self.state = state
        self.action = action


class EmptyModelError(ValueError):
    pass


def _check_edges(name, edges, lo, hi):
    e = tuple(float(x) for x in edges)
    if len(e) < 2 or any(b <= a for a, b in zip(e, e[1:])):
        raise ValueError(f"{name} edges must be strictly increasing, got {edges}")
    if not (math.isclose(e[0], lo, abs_tol=1e-12) and math.isclose(e[-1], hi, abs_tol=1e-12)):
        raise ValueError(f"{name} edges must span [{lo}, {hi}], got {edges}")
    return e


@dataclass(frozen=True)
class PartitionSpec:
    """Bin edges per dimension; outermost edges are the safe-domain bounds.

    Defaults give 4 x 5 x 5 = 100 cells with edges on the p1/p2 region
    boundaries (charge 0.2, wheel 0.8).
    """

    attitude_rate_edges: tuple[float, ...] = (0.0, 0.0025, 0.005, 0.0075, RATE_LIMIT)
    wheel_edges: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, WHEEL_LIMIT)
    charge_edges: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

    def __post_init__(self):
        object.__setattr__(
            self, "attitude_rate_edges",
            _check_edges("attitude_rate", self.attitude_rate_edges, 0.0, RATE_LIMIT),
        )
        object.__setattr__(
            self, "wheel_edges", _check_edges("wheel", self.wheel_edges, 0.0, WHEEL_LIMIT)
        )
        object.__setattr__(
            self, "charge_edges", _check_edges("charge", self.charge_edges, 0.0, 1.0)
        )


@dataclass(frozen=True)
class Cell:
    index: int
    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    label: int


@dataclass(frozen=True)
class Partition:
    spec: PartitionSpec
    cells: tuple[Cell, ...]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def interior_edges(self) -> tuple[tuple[float, ...], ...]:
        """(rate, wheel, charge) bin edges without the domain bounds."""
        s = self.spec
        return s.attitude_rate_edges[1:-1], s.wheel_edges[1:-1], s.charge_edges[1:-1]

    def locate(self, coords: np.ndarray) -> np.ndarray:
        """Cell index per (n, 3) coordinate row; -1 marks domain exit,
        which includes any non-finite coordinate."""
        rate, wheel, charge = coords[:, 0], coords[:, 1], coords[:, 2]
        r_edges, w_edges, c_edges = self.interior_edges
        ri = np.searchsorted(np.asarray(r_edges), rate, side="right")
        wi = np.searchsorted(np.asarray(w_edges), wheel, side="right")
        ci = np.searchsorted(np.asarray(c_edges), charge, side="right")
        idx = (ri * (len(w_edges) + 1) + wi) * (len(c_edges) + 1) + ci
        exited = (rate > RATE_LIMIT) | (wheel >= WHEEL_LIMIT) | (charge <= 0.0)
        finite = np.isfinite(coords[:, :3])
        if not finite.all():  # rare; the per-row reduction is the costly part
            exited |= ~finite.all(axis=1)
        return np.where(exited, -1, idx)

    def locate_one(self, rate: float, wheel: float, charge: float) -> int:
        """Scalar twin of `locate` for the per-step shield lookup:
        ``bisect_right`` over the interior edges gives the bins of
        ``searchsorted(side="right")``."""
        finite = math.isfinite(rate) and math.isfinite(wheel) and math.isfinite(charge)
        if not finite or rate > RATE_LIMIT or wheel >= WHEEL_LIMIT or charge <= 0.0:
            return -1
        r_edges, w_edges, c_edges = self.interior_edges
        ri = bisect_right(r_edges, rate)
        wi = bisect_right(w_edges, wheel)
        ci = bisect_right(c_edges, charge)
        return (ri * (len(w_edges) + 1) + wi) * (len(c_edges) + 1) + ci


def make_partition(spec: PartitionSpec | None = None) -> Partition:
    """Enumerate cells in row-major (rate, wheel, charge) order and label
    each by the safety region containing it.

    Requires the p1/p2 region boundaries to be bin edges so that each cell
    lies entirely inside or outside each region.
    """
    spec = spec or PartitionSpec()
    if not any(math.isclose(e, CHARGE_FLOOR, abs_tol=1e-12) for e in spec.charge_edges):
        raise RegionMisalignmentError(
            f"charge edges must include the p1 boundary {CHARGE_FLOOR}"
        )
    if not any(math.isclose(e, WHEEL_CEIL, abs_tol=1e-12) for e in spec.wheel_edges):
        raise RegionMisalignmentError(
            f"wheel edges must include the p2 boundary {WHEEL_CEIL}"
        )
    cells = []
    r_edges, w_edges, c_edges = (
        spec.attitude_rate_edges, spec.wheel_edges, spec.charge_edges,
    )
    for ri in range(len(r_edges) - 1):
        for wi in range(len(w_edges) - 1):
            for ci in range(len(c_edges) - 1):
                bounds = (
                    (r_edges[ri], r_edges[ri + 1]),
                    (w_edges[wi], w_edges[wi + 1]),
                    (c_edges[ci], c_edges[ci + 1]),
                )
                mid_w = 0.5 * (bounds[1][0] + bounds[1][1])
                mid_c = 0.5 * (bounds[2][0] + bounds[2][1])
                label = 0
                if mid_c < CHARGE_FLOOR:
                    label |= P1_BIT
                if mid_w > WHEEL_CEIL:
                    label |= P2_BIT
                cells.append(Cell(index=len(cells), bounds=bounds, label=label))
    return Partition(spec=spec, cells=tuple(cells))


@dataclass(frozen=True)
class AbstractionConfig:
    samples_per_cell: int = 10_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be >= 1")


def estimate_transitions(sim, partition: Partition, cfg: AbstractionConfig) -> FiniteMdp:
    """Estimate the safety MDP from the simulator.

    ``sim`` must expose ``sample_in_cell(bounds, n, rng)``,
    ``step_batch(batch, action, rng) -> (n, 3) coords``, ``action_names``
    and ``atom_names``. Rows are exactly stochastic (counts / N).
    """
    m = partition.n_cells
    n_actions = len(sim.action_names)
    exit_state = m
    n = cfg.samples_per_cell

    def one_row(key):
        q, a = key
        rng = np.random.default_rng([cfg.seed, _ABSTRACTION_STREAM, q, a])
        try:
            batch = sim.sample_in_cell(partition.cells[q].bounds, n, rng)
            coords = sim.step_batch(batch, a, rng)
        except Exception as exc:  # noqa: BLE001 - annotate and reraise
            raise SimulatorFailureError(q, a, exc) from exc
        if not np.isfinite(coords).all():
            raise SimulatorFailureError(q, a, ValueError("non-finite state coordinates"))
        idx = partition.locate(coords)
        idx = np.where(idx < 0, exit_state, idx)
        counts = np.bincount(idx, minlength=m + 1)
        return tuple(
            (int(j), counts[j] / n) for j in np.flatnonzero(counts)
        )

    keys = [(q, a) for q in range(m) for a in range(n_actions)]
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = dict(zip(keys, pool.map(one_row, keys)))
    else:
        results = {key: one_row(key) for key in keys}
    for a in range(n_actions):
        results[(exit_state, a)] = ((exit_state, 1.0),)

    labels = tuple(c.label for c in partition.cells) + (P1_BIT | P2_BIT,)
    meta = tuple(
        {"bounds": [list(b) for b in c.bounds]} for c in partition.cells
    ) + ({"unsafe_exit": True},)
    return FiniteMdp(
        n_states=m + 1,
        action_names=tuple(sim.action_names),
        rows=results,
        labels=labels,
        atom_names=tuple(sim.atom_names),
        state_meta=meta,
    )


def wilson_halfwidth(p_hat: float, n: int, z: float = 1.959963984540054) -> float:
    """Half-width of the 95% Wilson score interval for a proportion."""
    z2 = z * z
    return (z / (1.0 + z2 / n)) * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))


def abstraction_report(m: FiniteMdp, cfg: AbstractionConfig) -> dict:
    """Per-row entropy (bits), Wilson 95% half-widths per entry, and the
    count of deterministic rows; written alongside the MDP file."""
    if m.n_states == 0 or not m.rows:
        raise EmptyModelError("cannot report on an empty model")
    n = cfg.samples_per_cell
    rows = []
    deterministic = 0
    for (q, a) in sorted(m.rows):
        entries = []
        entropy = 0.0
        for target, p in m.rows[(q, a)]:
            if p > 0.0:
                entropy -= p * math.log2(p)
            entries.append(
                {"target": target, "p": p, "wilson_halfwidth": wilson_halfwidth(p, n)}
            )
        if len(entries) == 1:
            deterministic += 1
        rows.append({"state": q, "action": a, "entropy_bits": entropy, "entries": entries})
    return {
        "samples_per_cell": n,
        "seed": cfg.seed,
        "deterministic_rows": deterministic,
        "rows": rows,
    }
