"""Grid abstraction of the safe operating domain with Monte Carlo
transition estimation.

The domain (attitude rate x wheel speed x stored charge) is partitioned
into axis-aligned cells; per (cell, action) the simulator is stepped once
from ``samples_per_cell`` hidden states drawn uniformly in the cell (other
hidden coordinates randomized over their full ranges), and the empirical
landing frequencies become the transition row. Landings outside the
domain map to one absorbing unsafe-exit state labelled {p1, p2}.

Each (cell, action) row makes all its random draws from its own PCG64
stream, seeded from (seed, stream tag, cell, action) as
``np.random.PCG64([seed, 1, cell, action])`` is; every row's stream is
seeded in one vectorized call (`env.pcg64_states`). The work runs per
chunk of rows: one ``sample_in_cell`` call reads each row's raw outputs
and converts them in one pass, then one deterministic ``step_batch``
call, one ``locate`` and one ``bincount`` run over the chunk's samples.
Every value is elementwise or an integer count, so results are
bit-identical under reruns and do not depend on the chunk size.

The chunks are split into contiguous blocks, one per usable CPU. The
parent forks a child per block after the first and computes the first
itself; each child sends its rows back through a pipe, and the parent
merges them in block order. Results do not depend on the worker count.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .env import CHARGE_FLOOR, P1_BIT, P2_BIT, RATE_LIMIT, WHEEL_CEIL, WHEEL_LIMIT, RowStreams
from .mdp import FiniteMdp

_ABSTRACTION_STREAM = 1  # keeps row streams disjoint from training/eval streams
# Samples drawn and stepped per simulator call (at least one row).
# Larger chunks spread the per-call cost over more rows, but their
# temporaries can outgrow what the allocator keeps for reuse. Measured
# again with the chunk sampler (numpy 2.4, glibc malloc, 2-core host,
# median of 7 in-process estimates): at 4096 samples per chunk the
# benchmark's simple_unshielded abstraction (2000 samples per row) faulted
# in ~30k fresh pages and took 0.13 s against 0.11 s, and complex_fine's
# (200 per row) ~48k pages and 0.26 s against 0.24 s; 1024 took 0.27 s
# on complex_fine. A chunk this size faulted in almost none on either.
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

    @cached_property
    def bounds(self) -> np.ndarray:
        """Each cell's (lo, hi) per coordinate, as a (cells, 3, 2) array."""
        return np.array([c.bounds for c in self.cells], dtype=np.float64)

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
        # the messages start with the field's name, which ExperimentConfig
        # shares; a float or a bool would only fail inside the sampler
        for name, least in (("samples_per_cell", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


def estimate_transitions(sim, partition: Partition, cfg: AbstractionConfig) -> FiniteMdp:
    """Estimate the safety MDP from the simulator.

    ``sim`` exposes ``action_names``, ``atom_names`` and a two-part
    simulator protocol:

    * ``sample_in_cell(bounds, n, streams) -> batch`` makes every random
      draw of a chunk of (cell, action) rows, ``n`` samples each: row ``i``
      lies in the cell of ``bounds[i]`` (a ``(rows, 3, 2)`` array) and draws
      from its own PCG64 stream, whose doubles ``streams.doubles`` reads (an
      `env.RowStreams`). The batch is a dict of arrays whose last axis runs
      over the chunk's samples, row by row;
    * ``step_batch(batch, actions) -> (k, 3) coords`` steps a batch, element
      ``i`` under ``actions[i]``, and draws nothing.

    Row (q, a) draws from ``PCG64([seed, 1, q, a])``; every row's stream is
    seeded at once (`env.pcg64_states`). Rows are then sampled and stepped
    in chunks of at most ``CHUNK_SAMPLES`` samples (at least one row): one
    ``sample_in_cell`` and one ``step_batch`` call per chunk, whose landings
    are located and counted in one ``bincount``. Every value is elementwise
    or an integer count, so the rows do not depend on the chunk size. Rows
    are exactly stochastic (counts / N). A failure raises
    `SimulatorFailureError` naming the (cell, action) row it belongs to.

    The chunks run in contiguous blocks, one per usable CPU and at most one
    per chunk (`_in_workers`). Without ``os.fork``, on one usable CPU or
    with a single chunk, they run in this process in order.
    """
    m = partition.n_cells
    n_actions = len(sim.action_names)
    exit_state = m
    n = cfg.samples_per_cell
    cells = np.repeat(np.arange(m), n_actions)
    actions = np.tile(np.arange(n_actions), m)
    streams = RowStreams.seeded(cfg.seed, _ABSTRACTION_STREAM, cells, actions)
    per_chunk = max(1, CHUNK_SAMPLES // n)
    starts = range(0, m * n_actions, per_chunk)
    k = len(starts)

    def estimate_block(block) -> dict:
        rows = {}
        for start in block:
            span = slice(start, start + per_chunk)
            rows.update(_estimate_chunk(
                sim, partition, n, cells[span], actions[span], streams[span],
            ))
        return rows

    workers = min(_usable_cpus(), k) if hasattr(os, "fork") else 1
    blocks = [starts[k * b // workers:k * (b + 1) // workers] for b in range(workers)]
    results = _in_workers(estimate_block, blocks)
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _in_workers(compute, blocks) -> dict:
    """``compute(block)`` of every block, merged in block order.

    The parent forks one child per block after the first, then computes
    the first itself. Each child pickles its dict to a pipe and leaves with
    ``os._exit``; the parent reads the pipes in block order. A child that
    fails, dies or sends nothing, or that could not be forked, has its
    block computed again here, so an exception is the one the blocks raise
    in order. Every child is reaped before this returns or raises; if the
    parent raises, it kills them first.
    """
    if len(blocks) == 1:
        return compute(blocks[0])
    children = []  # [pid, read end of its pipe] per later block; None once done
    try:
        for block in blocks[1:]:
            read_fd, write_fd = os.pipe()
            children.append([None, read_fd])
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the pipe stays empty
                pid = None
            if pid == 0:  # child
                status = 1
                try:
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb") as out:
                        pickle.dump(compute(block), out, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            children[-1][0] = pid
            os.close(write_fd)
        results = compute(blocks[0])
        for child, block in zip(children, blocks[1:]):
            pid, read_fd = child
            with os.fdopen(read_fd, "rb") as pipe:
                child[1] = None
                data = pipe.read()
            status = 1 if pid is None else os.waitpid(pid, 0)[1]
            child[0] = None
            results.update(
                pickle.loads(data) if status == 0 and data else compute(block)
            )
        return results
    except BaseException:
        for pid, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd in children:
            if read_fd is not None:
                os.close(read_fd)
            if pid is not None:
                os.waitpid(pid, 0)


def _estimate_chunk(sim, partition: Partition, n: int, cells, actions, streams) -> dict:
    """The transition rows of the chunk's (cell, action) pairs."""
    m = partition.n_cells
    keys = list(zip(cells.tolist(), actions.tolist()))
    bounds = partition.bounds[cells]
    sample_actions = np.repeat(actions, n)
    try:
        coords = sim.step_batch(sim.sample_in_cell(bounds, n, streams), sample_actions)
    except Exception as exc:  # noqa: BLE001 - annotate and reraise
        # sampling draws from the rows' own streams and stepping draws
        # nothing, so running the rows alone names the first that fails
        for i, key in enumerate(keys):
            try:
                sim.step_batch(sim.sample_in_cell(bounds[i:i + 1], n, streams[i:i + 1]),
                               sample_actions[i * n:(i + 1) * n])
            except Exception as row_exc:  # noqa: BLE001 - annotate and reraise
                raise SimulatorFailureError(*key, row_exc) from row_exc
        # a failure that no row repeats alone
        raise SimulatorFailureError(*keys[0], exc) from exc
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
