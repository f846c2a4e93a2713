"""Grid abstraction of the safe operating domain with Monte Carlo
transition estimation.

The domain (attitude rate x wheel speed x stored charge) is partitioned
into axis-aligned cells; per (cell, action) the simulator is stepped once
from ``samples_per_cell`` hidden states drawn uniformly in the cell (other
hidden coordinates randomized over their full ranges), and the empirical
landing frequencies become the transition row. Landings outside the
domain map to one absorbing unsafe-exit state labelled {p1, p2}.

Each (cell, action) row makes all its random draws (``sample_in_cell``)
from its own RNG stream derived from (seed, stream tag, cell, action). The
arithmetic runs per chunk of rows: one deterministic ``step_batch`` call,
one ``locate`` and one ``bincount`` over the chunk's samples. Every value
is elementwise or an integer count, so results are bit-identical under
reruns and do not depend on the chunk size or the order in which rows are
drawn.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .env import ATOM_NAMES, CHARGE_FLOOR, RATE_LIMIT, WHEEL_CEIL, WHEEL_LIMIT
from .mdp import FiniteMdp

P1_BIT = 1 << ATOM_NAMES.index("p1")
P2_BIT = 1 << ATOM_NAMES.index("p2")
_ABSTRACTION_STREAM = 1  # keeps row streams disjoint from training/eval streams
# Samples stepped per simulator call (at least one row). Larger chunks
# spread the per-call cost over more rows, but their temporaries can
# outgrow what the allocator keeps for reuse: in the benchmark's process
# (numpy 2.4, glibc malloc), 4000-sample chunks faulted in ~34k fresh
# pages per simple_unshielded estimate and took 30% longer than stepping
# its 2000-sample rows one by one. A chunk this size holds about as much
# as one such row, and faulted in none.
CHUNK_SAMPLES = 1 << 11


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
        """Scalar twin of `locate`: ``bisect_right`` over the interior edges
        gives the bins of ``searchsorted(side="right")``."""
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

    def __post_init__(self):
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be >= 1")


def estimate_transitions(sim, partition: Partition, cfg: AbstractionConfig) -> FiniteMdp:
    """Estimate the safety MDP from the simulator.

    ``sim`` exposes ``action_names``, ``atom_names`` and a two-part
    simulator protocol:

    * ``sample_in_cell(bounds, n, rng) -> batch`` makes every random draw
      of one (cell, action) row from the row's own stream: a dict of arrays
      whose last axis runs over the ``n`` samples;
    * ``step_batch(batch, actions) -> (k, 3) coords`` steps a batch, element
      ``i`` under ``actions[i]``, and draws nothing.

    Rows are drawn one by one and then stepped in chunks of at most
    ``CHUNK_SAMPLES`` samples (at least one row): the chunk's batches are
    concatenated, stepped in one ``step_batch`` call, located and counted in
    one ``bincount``. Every value is elementwise or an integer count, so the
    rows do not depend on the chunk size. Rows are exactly stochastic
    (counts / N). A failure raises `SimulatorFailureError` naming the
    (cell, action) row it belongs to.
    """
    m = partition.n_cells
    n_actions = len(sim.action_names)
    exit_state = m
    keys = [(q, a) for q in range(m) for a in range(n_actions)]
    per_chunk = max(1, CHUNK_SAMPLES // cfg.samples_per_cell)
    results = {}
    for start in range(0, len(keys), per_chunk):
        results.update(_estimate_chunk(sim, partition, cfg, keys[start:start + per_chunk]))
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


def _estimate_chunk(sim, partition: Partition, cfg: AbstractionConfig, keys) -> dict:
    """The transition rows of the (cell, action) pairs in ``keys``."""
    m = partition.n_cells
    n = cfg.samples_per_cell
    draws = []
    for q, a in keys:
        rng = np.random.default_rng([cfg.seed, _ABSTRACTION_STREAM, q, a])
        try:
            draws.append(sim.sample_in_cell(partition.cells[q].bounds, n, rng))
        except Exception as exc:  # noqa: BLE001 - annotate and reraise
            raise SimulatorFailureError(q, a, exc) from exc
    actions = np.repeat(np.array([a for _q, a in keys], dtype=np.int64), n)
    coords = _step_chunk(sim, draws, actions, keys, n)
    if not np.isfinite(coords).all():
        q, a = keys[int(np.argmin(np.isfinite(coords).all(axis=1))) // n]
        raise SimulatorFailureError(q, a, ValueError("non-finite state coordinates"))
    idx = partition.locate(coords)
    idx = np.where(idx < 0, m, idx)
    idx += np.repeat(np.arange(len(keys)) * (m + 1), n)
    counts = np.bincount(idx, minlength=len(keys) * (m + 1)).reshape(len(keys), m + 1)
    row, target = np.nonzero(counts)
    entries = tuple(zip(target.tolist(), (counts[row, target] / n).tolist()))
    ends = np.searchsorted(row, np.arange(len(keys) + 1)).tolist()
    return {key: entries[lo:hi] for key, lo, hi in zip(keys, ends, ends[1:])}


def _step_chunk(sim, draws, actions, keys, n):
    """One ``step_batch`` call over the batches of a chunk, concatenated
    when it holds several rows."""
    if len(draws) == 1:
        batch = draws[0]
    else:
        batch = {name: np.concatenate([d[name] for d in draws], axis=-1) for name in draws[0]}
    try:
        return sim.step_batch(batch, actions)
    except Exception as exc:  # noqa: BLE001 - annotate and reraise
        if len(draws) > 1:
            # stepping draws nothing, and the call left the rows' own batches
            # untouched, so stepping the rows alone names the first that fails
            for i, ((q, a), row_batch) in enumerate(zip(keys, draws)):
                try:
                    sim.step_batch(row_batch, actions[i * n:(i + 1) * n])
                except Exception as row_exc:  # noqa: BLE001 - annotate and reraise
                    raise SimulatorFailureError(q, a, row_exc) from row_exc
        # a one-row chunk, or a failure that no row repeats alone
        raise SimulatorFailureError(*keys[0], exc) from exc


def wilson_halfwidth(p_hat: float, n: int, z: float = 1.959963984540054) -> float:
    """Half-width of the 95% Wilson score interval for a proportion."""
    z2 = z * z
    return (z / (1.0 + z2 / n)) * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))


def abstraction_report(m: FiniteMdp, cfg: AbstractionConfig) -> dict:
    """Per-row entropy (bits) and widest Wilson 95% half-width over the
    row's entries, and the count of deterministic rows; written alongside
    the MDP file. An entry's own half-width is
    ``wilson_halfwidth(p, samples_per_cell)`` of its ``p`` in the MDP."""
    if m.n_states == 0 or not m.rows:
        raise EmptyModelError("cannot report on an empty model")
    n = cfg.samples_per_cell
    keys = sorted(m.rows)
    # an estimated row holds counts / n, so at most n + 1 distinct values
    # occur; each entry's terms are looked up, and each row still sums them
    # in its own order
    terms = {
        p: (p * math.log2(p) if p > 0.0 else 0.0, wilson_halfwidth(p, n))
        for p in {p for key in keys for _target, p in m.rows[key]}
    }
    rows = []
    deterministic = 0
    for (q, a) in keys:
        row = m.rows[(q, a)]
        entropy = 0.0
        widest = 0.0
        for _target, p in row:
            plogp, halfwidth = terms[p]
            entropy -= plogp
            widest = max(widest, halfwidth)
        if len(row) == 1:
            deterministic += 1
        rows.append(
            {"state": q, "action": a, "entropy_bits": entropy, "max_wilson_halfwidth": widest}
        )
    return {
        "samples_per_cell": n,
        "seed": cfg.seed,
        "deterministic_rows": deterministic,
        "rows": rows,
    }
