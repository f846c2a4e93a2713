import json
import os
import signal
import time

import numpy as np
import pytest

from oracles import mdp_from_rows, rows_of
from shieldcraft import abstraction
from shieldcraft.abstraction import (
    AbstractionConfig,
    EmptyModelError,
    Partition,
    PartitionSpec,
    RegionMisalignmentError,
    SimulatorFailureError,
    abstraction_report,
    estimate_transitions,
    make_partition,
    wilson_halfwidth,
)
from shieldcraft.env import ATOM_NAMES, MODES, Discretizer, EnvParams, RowStreams, SpacecraftEnv


class TeleportEnv:
    """Analytic test simulator: lands at the centre of a target cell drawn
    from a known per-(cell, action) categorical kernel. Column index
    len(cells) means 'leave the domain'."""

    atom_names = ATOM_NAMES

    def __init__(self, partition: Partition, kernel: np.ndarray):
        self.partition = partition
        self.kernel = kernel  # (cells, actions, cells+1)
        self.action_names = tuple(f"go{a}" for a in range(kernel.shape[1]))
        centres = [[0.5 * (lo + hi) for lo, hi in b] for b in partition.bounds.tolist()]
        self.landings = np.array(centres + [[0.0, 0.0, -1.0]])  # exit: charge <= 0

    def sample_in_cell(self, bounds, n, streams):
        # each row's cell is the one holding its centre; its first n draws
        # are what Generator.random(n) returns from its stream
        cells = self.partition.locate(bounds.mean(axis=2))
        assert (self.partition.bounds[cells] == bounds).all()
        return {"cell": np.repeat(cells, n), "u": streams.doubles(n).reshape(-1)}

    def step_batch(self, batch, actions):
        # inverse CDF of each element's kernel row
        cdf = np.cumsum(self.kernel[batch["cell"], actions], axis=1)
        targets = (batch["u"][:, None] >= cdf).sum(axis=1)
        return self.landings[np.minimum(targets, cdf.shape[1] - 1)]


def tiny_partition():
    spec = PartitionSpec(
        attitude_rate_edges=(0.0, 0.01),
        wheel_edges=(0.0, 0.8, 1.0),
        charge_edges=(0.0, 0.2, 1.0),
    )
    return make_partition(spec)


class TestPartition:
    def test_default_is_hundred_cells(self):
        partition = make_partition()
        assert partition.n_cells == 100
        assert partition.bounds[0].tolist() == [[0.0, 0.0025], [0.0, 0.2], [0.0, 0.2]]

    def test_row_major_order(self):
        partition = make_partition()
        # charge varies fastest, then wheel, then rate
        assert partition.bounds[1][2].tolist() == [0.2, 0.4]
        assert partition.bounds[5][1].tolist() == [0.2, 0.4]

    def test_low_charge_cells_labelled_p1(self):
        partition = make_partition()
        for bounds, label in zip(partition.bounds.tolist(), partition.labels.tolist()):
            expect = 0
            if bounds[2][1] <= 0.2:
                expect |= 1 << 1
            if bounds[1][0] >= 0.8:
                expect |= 1 << 2
            assert label == expect

    def test_region_misalignment(self):
        with pytest.raises(RegionMisalignmentError):
            make_partition(PartitionSpec(charge_edges=(0.0, 0.25, 0.5, 0.75, 1.0)))
        with pytest.raises(RegionMisalignmentError):
            make_partition(PartitionSpec(wheel_edges=(0.0, 0.5, 1.0)))

    def test_edges_must_span_domain(self):
        with pytest.raises(ValueError):
            PartitionSpec(attitude_rate_edges=(0.0, 0.005, 0.02))
        with pytest.raises(ValueError):
            PartitionSpec(wheel_edges=(0.0, 0.8, 0.8, 1.0))

    def test_locate(self):
        partition = make_partition()
        coords = np.array(
            [
                [0.001, 0.1, 0.5],
                [0.02, 0.1, 0.5],   # rate exits
                [0.001, 1.0, 0.5],  # wheel saturated
                [0.001, 0.1, 0.0],  # charge gone
                [0.01, 0.999, 1.0],  # top corner, in domain
            ]
        )
        idx = partition.locate(coords)
        assert idx[0] >= 0
        assert (idx[1], idx[2], idx[3]) == (-1, -1, -1)
        assert idx[4] == partition.n_cells - 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_coordinate_is_domain_exit(self, bad, axis):
        partition = make_partition()
        point = [0.001, 0.1, 0.5]
        point[axis] = bad
        assert partition.locate(np.array([point, [0.001, 0.1, 0.5]])).tolist()[0] == -1
        assert partition.locate_one(*point) == -1

    def test_locate_one_boundary(self):
        partition = make_partition()
        q_low = partition.locate_one(0.001, 0.79, 0.5)
        q_high = partition.locate_one(0.001, 0.81, 0.5)
        assert q_low != q_high
        assert partition.labels[q_high] & (1 << 2)


def force_workers(monkeypatch, workers):
    """Run the estimator as if ``workers`` CPUs were usable."""
    monkeypatch.setattr(abstraction, "_usable_cpus", lambda: workers)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("samples_per_cell", 2.5),
        ("samples_per_cell", True),
        ("samples_per_cell", "10"),
        ("samples_per_cell", 0),
        ("seed", 1.0),
        ("seed", False),
        ("seed", None),
        ("seed", -1),
    ])
    def test_bad_value_fails_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            AbstractionConfig(**{field: value})

    def test_numpy_ints_are_ints(self):
        cfg = AbstractionConfig(np.int64(10), seed=np.uint32(3))
        assert (cfg.samples_per_cell, cfg.seed) == (10, 3)


class TestEstimator:
    def test_analytic_kernel_recovered(self):
        partition = tiny_partition()
        m = partition.n_cells
        rng = np.random.default_rng(99)
        kernel = rng.dirichlet(np.ones(m + 1), size=(m, 1))
        env = TeleportEnv(partition, kernel)
        cfg = AbstractionConfig(samples_per_cell=10_000, seed=5)
        mdp = estimate_transitions(env, partition, cfg)
        errors = []
        for q in range(m):
            est = np.zeros(m + 1)
            for target, p in rows_of(mdp)[(q, 0)]:
                est[target] = p
            errors.extend(np.abs(est - kernel[q, 0]))
        errors = np.asarray(errors)
        assert (errors <= 0.02).mean() >= 0.95
        assert errors.max() < 0.05

    def test_rows_exactly_stochastic(self):
        partition = tiny_partition()
        env = TeleportEnv(
            partition, np.full((partition.n_cells, 1, partition.n_cells + 1), 0.2)
        )
        n = 1000
        mdp = estimate_transitions(env, partition, AbstractionConfig(n, seed=1))
        assert mdp.validate() == []
        for (q, a), row in rows_of(mdp).items():
            # every entry is an exact count ratio and the counts add up to N
            counts = [round(p * n) for _t, p in row]
            assert sum(counts) == n
            assert all(p == c / n for (_t, p), c in zip(row, counts))
            assert abs(sum(p for _t, p in row) - 1.0) < 1e-12

    def test_stay_put_is_identity(self):
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 1, m + 1))
        for q in range(m):
            kernel[q, 0, q] = 1.0
        env = TeleportEnv(partition, kernel)
        mdp = estimate_transitions(env, partition, AbstractionConfig(500, seed=2))
        for q in range(m):
            assert rows_of(mdp)[(q, 0)] == ((q, 1.0),)

    def test_exit_mass_goes_to_unsafe_state(self):
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 1, m + 1))
        kernel[:, 0, m] = 1.0  # everything leaves the domain
        env = TeleportEnv(partition, kernel)
        mdp = estimate_transitions(env, partition, AbstractionConfig(200, seed=3))
        for q in range(m):
            assert rows_of(mdp)[(q, 0)] == ((m, 1.0),)
        assert mdp.labels[m] == (1 << 1) | (1 << 2)
        assert rows_of(mdp)[(m, 0)] == ((m, 1.0),)
        assert mdp.state_meta[m] == {"unsafe_exit": True}

    def test_bit_identical_rerun(self):
        partition = make_partition()
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        a = estimate_transitions(env, partition, AbstractionConfig(300, seed=4))
        b = estimate_transitions(env, partition, AbstractionConfig(300, seed=4))
        assert rows_of(a) == rows_of(b)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_chunk_size_does_not_change_the_mdp(self, monkeypatch):
        partition = make_partition()
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        cfg = AbstractionConfig(50, seed=6)
        rows = partition.n_cells * len(env.action_names)
        texts = []
        for chunk in (cfg.samples_per_cell, rows * cfg.samples_per_cell):  # one row, all rows
            monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", chunk)
            texts.append(json.dumps(estimate_transitions(env, partition, cfg).to_json()))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("rows_per_chunk", ["one", "all"])
    def test_worker_count_does_not_change_the_mdp(self, rows_per_chunk, monkeypatch):
        partition = make_partition()
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        cfg = AbstractionConfig(50, seed=6)
        rows = partition.n_cells * len(env.action_names) if rows_per_chunk == "all" else 1
        monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", rows * cfg.samples_per_cell)
        texts, orders = [], []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            mdp = estimate_transitions(env, partition, cfg)
            texts.append(json.dumps(mdp.to_json()))
            orders.append(list(rows_of(mdp)))  # the rows keep their serial order too
            assert_no_child_left()
        assert texts[1] == texts[0] and texts[2] == texts[0]
        assert orders[1] == orders[0] and orders[2] == orders[0]

    @pytest.mark.parametrize("workers, rows_per_chunk, forks", [
        (3, 1, 2),  # a child per block after the first
        (9, 1, 7),  # never more blocks than the 8 chunks
        (3, 8, 0),  # a single chunk
        (1, 1, 0),  # one usable CPU
    ])
    def test_forks_once_per_block_after_the_first(self, workers, rows_per_chunk, forks,
                                                  monkeypatch):
        monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", rows_per_chunk * 10)
        force_workers(monkeypatch, workers)
        calls = []
        fork = os.fork

        def counting_fork():
            calls.append(1)  # lands in the parent's list, and in the child's copy
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        partition = tiny_partition()
        kernel = np.full((partition.n_cells, 2, partition.n_cells + 1), 0.2)
        mdp = estimate_transitions(TeleportEnv(partition, kernel), partition,
                                   AbstractionConfig(10, seed=0))
        assert len(calls) == forks
        assert mdp.validate() == []
        assert_no_child_left()

    def test_serial_without_fork(self, monkeypatch):
        partition = make_partition()
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        cfg = AbstractionConfig(50, seed=6)
        monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", cfg.samples_per_cell)
        force_workers(monkeypatch, 2)
        forked = json.dumps(estimate_transitions(env, partition, cfg).to_json())
        monkeypatch.delattr(os, "fork")
        assert json.dumps(estimate_transitions(env, partition, cfg).to_json()) == forked

    @pytest.mark.parametrize("fault", ["raises", "dies", "sends nothing", "cannot fork"])
    def test_failed_child_block_is_recomputed(self, fault, monkeypatch):
        # each child fails on its first sample call, or is never forked; the
        # parent computes the child's block itself and gets the serial MDP
        monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", 10)
        partition = tiny_partition()
        kernel = np.random.default_rng(4).dirichlet(np.ones(partition.n_cells + 1),
                                                    size=(partition.n_cells, 2))
        env = TeleportEnv(partition, kernel)
        cfg = AbstractionConfig(10, seed=0)
        force_workers(monkeypatch, 1)
        serial = json.dumps(estimate_transitions(env, partition, cfg).to_json())
        parent = os.getpid()
        sample_in_cell = env.sample_in_cell

        def fail_in_child(bounds, n, streams):
            if os.getpid() != parent:
                if fault == "raises":
                    raise RuntimeError("child only")
                if fault == "dies":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)  # sends nothing
            return sample_in_cell(bounds, n, streams)

        env.sample_in_cell = fail_in_child
        if fault == "cannot fork":
            def no_fork():
                raise BlockingIOError("Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        force_workers(monkeypatch, 3)
        assert json.dumps(estimate_transitions(env, partition, cfg).to_json()) == serial
        assert_no_child_left()

    def test_interrupted_parent_kills_its_children(self, monkeypatch):
        monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", 10)
        force_workers(monkeypatch, 3)
        partition = tiny_partition()
        env = TeleportEnv(partition, np.full((partition.n_cells, 2, partition.n_cells + 1), 0.2))
        parent = os.getpid()

        def interrupt_parent(bounds, n, streams):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a child still busy when the parent stops

        env.sample_in_cell = interrupt_parent
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            estimate_transitions(env, partition, AbstractionConfig(10, seed=0))
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_simulator_failure_annotated(self):
        partition = tiny_partition()

        class Broken:
            action_names = ("go",)
            atom_names = ATOM_NAMES

            def sample_in_cell(self, bounds, n, streams):
                return {"x": np.zeros(len(streams) * n)}

            def step_batch(self, batch, actions):
                raise RuntimeError("boom")

        with pytest.raises(SimulatorFailureError) as err:
            estimate_transitions(Broken(), partition, AbstractionConfig(10, seed=0))
        assert err.value.state == 0 and err.value.action == 0

    @pytest.mark.parametrize("rows_per_chunk, workers", [(1, 1), (8, 1), (1, 2), (2, 2), (1, 3)])
    def test_step_failure_names_its_row(self, rows_per_chunk, workers, monkeypatch):
        # only the batches holding cell 2 fail; with 8 rows per chunk all
        # rows share one step_batch call. With 2 or 3 workers cell 2's rows
        # (rows 4 and 5 of 8) are in children's blocks; with 3 they are in
        # two different children's, and the first in row order is named
        monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", rows_per_chunk * 10)
        force_workers(monkeypatch, workers)
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 2, m + 1))
        kernel[:, :, 0] = 1.0
        env = TeleportEnv(partition, kernel)
        step_batch = env.step_batch
        sizes = []

        def fail_on_cell_2(batch, actions):
            sizes.append(len(actions))
            if (batch["cell"] == 2).any():
                raise RuntimeError("boom")
            return step_batch(batch, actions)

        env.step_batch = fail_on_cell_2
        with pytest.raises(SimulatorFailureError, match="boom") as err:
            estimate_transitions(env, partition, AbstractionConfig(10, seed=0))
        assert (err.value.state, err.value.action) == (2, 0)
        assert sizes[0] == rows_per_chunk * 10
        assert_no_child_left()

    @pytest.mark.parametrize("rows_per_chunk, workers", [(1, 1), (8, 1), (1, 2), (2, 2), (1, 3)])
    def test_sample_failure_names_its_row(self, rows_per_chunk, workers, monkeypatch):
        # sampling fails for any chunk that holds cell 2's row of action 1
        # (row 5 of 8, in a child's block when there are workers); with 8
        # rows per chunk the rows are sampled alone to find it
        monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", rows_per_chunk * 10)
        force_workers(monkeypatch, workers)
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 2, m + 1))
        kernel[:, :, 0] = 1.0
        env = TeleportEnv(partition, kernel)
        sample_in_cell = env.sample_in_cell
        row = RowStreams.seeded(0, 1, 2, 1).states[0]

        def fail_on_row(bounds, n, streams):
            if row in streams.states:
                raise RuntimeError("bad draw")
            return sample_in_cell(bounds, n, streams)

        env.sample_in_cell = fail_on_row
        with pytest.raises(SimulatorFailureError, match="bad draw") as err:
            estimate_transitions(env, partition, AbstractionConfig(10, seed=0))
        assert (err.value.state, err.value.action) == (2, 1)
        assert_no_child_left()

    @pytest.mark.parametrize("rows_per_chunk, workers", [(8, 1), (1, 2), (1, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_landing_raises(self, bad, rows_per_chunk, workers, monkeypatch):
        # the bad landing sits in cell 2's row of action 1: a middle row of
        # the chunk with 8 rows per chunk, a child's row with workers
        monkeypatch.setattr(abstraction, "CHUNK_SAMPLES", rows_per_chunk * 10)
        force_workers(monkeypatch, workers)
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 2, m + 1))
        kernel[:, :, 0] = 1.0
        env = TeleportEnv(partition, kernel)
        step_batch = env.step_batch

        def step_then_corrupt(batch, actions):
            coords = step_batch(batch, actions)
            hits = np.flatnonzero((batch["cell"] == 2) & (actions == 1))
            if hits.size:
                coords[hits[-1], 1] = bad
            return coords

        env.step_batch = step_then_corrupt
        with pytest.raises(SimulatorFailureError, match="non-finite") as err:
            estimate_transitions(env, partition, AbstractionConfig(10, seed=0))
        assert (err.value.state, err.value.action) == (2, 1)
        assert_no_child_left()

    def test_refinement_sanity(self):
        # doubling the sample count (new seed) moves each entry by less
        # than the sum of the two Wilson half-widths for >= 90% of entries
        partition = tiny_partition()
        m = partition.n_cells
        rng = np.random.default_rng(17)
        kernel = rng.dirichlet(np.ones(m + 1) * 2, size=(m, 1))
        env = TeleportEnv(partition, kernel)
        n1, n2 = 4000, 8000
        m1 = estimate_transitions(env, partition, AbstractionConfig(n1, seed=21))
        m2 = estimate_transitions(env, partition, AbstractionConfig(n2, seed=22))
        checks = []
        for q in range(m):
            row1 = dict(rows_of(m1)[(q, 0)])
            row2 = dict(rows_of(m2)[(q, 0)])
            for target in set(row1) | set(row2):
                p1, p2 = row1.get(target, 0.0), row2.get(target, 0.0)
                bound = wilson_halfwidth(p1, n1) + wilson_halfwidth(p2, n2)
                checks.append(abs(p1 - p2) <= bound)
        assert np.mean(checks) >= 0.90


class TestReport:
    def test_wilson_values(self):
        assert wilson_halfwidth(0.5, 10_000) == pytest.approx(0.0098, abs=1e-4)
        assert wilson_halfwidth(0.0, 10_000) == pytest.approx(0.000192, abs=1e-5)

    def test_report_contents(self):
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 1, m + 1))
        for q in range(m):
            kernel[q, 0, q] = 1.0
        env = TeleportEnv(partition, kernel)
        cfg = AbstractionConfig(10_000, seed=2)
        mdp = estimate_transitions(env, partition, cfg)
        report = abstraction_report(mdp, cfg)
        assert report["deterministic_rows"] == m + 1
        first = report["rows"][0]
        assert first["max_wilson_halfwidth"] == pytest.approx(0.000192, abs=1e-5)
        assert first["entropy_bits"] == 0.0

    def test_half_width_of_even_split(self):
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 1, m + 1))
        kernel[:, 0, 0] = 0.5
        kernel[:, 0, 1] = 0.5
        env = TeleportEnv(partition, kernel)
        cfg = AbstractionConfig(10_000, seed=7)
        mdp = estimate_transitions(env, partition, cfg)
        report = abstraction_report(mdp, cfg)
        row = report["rows"][0]
        assert row["max_wilson_halfwidth"] == pytest.approx(0.0098, abs=3e-4)
        assert row["entropy_bits"] == pytest.approx(1.0, abs=0.01)

    def test_row_summary_matches_mdp_entries(self):
        # the report repeats no entry; its per-row figures follow from mdp.json
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.random.default_rng(3).dirichlet(np.ones(m + 1), size=(m, 1))
        cfg = AbstractionConfig(500, seed=8)
        mdp = estimate_transitions(TeleportEnv(partition, kernel), partition, cfg)
        report = json.loads(json.dumps(abstraction_report(mdp, cfg)))
        assert [(r["state"], r["action"]) for r in report["rows"]] == sorted(rows_of(mdp))
        for r in report["rows"]:
            assert set(r) == {"state", "action", "entropy_bits", "max_wilson_halfwidth"}
            ps = [p for _t, p in rows_of(mdp)[(r["state"], r["action"])]]
            assert r["max_wilson_halfwidth"] == max(wilson_halfwidth(p, 500) for p in ps)
            assert r["entropy_bits"] == pytest.approx(-sum(p * np.log2(p) for p in ps), abs=1e-12)

    def test_empty_model(self):
        empty = mdp_from_rows(
            n_states=0, action_names=(), rows={}, labels=(), atom_names=ATOM_NAMES
        )
        with pytest.raises(EmptyModelError):
            abstraction_report(empty, AbstractionConfig(10, seed=0))


class TestSpacecraftAbstraction:
    def test_draws_without_generator(self, monkeypatch):
        # rows read raw PCG64 outputs; no Generator is built on the way
        def refuse(*args, **kwargs):
            raise AssertionError("a Generator was built")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)
        partition = make_partition()
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        mdp = estimate_transitions(env, partition, AbstractionConfig(20, seed=1))
        assert mdp.validate() == []

    def test_full_pipeline_shape(self):
        partition = make_partition()
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        cfg = AbstractionConfig(samples_per_cell=500, seed=11)
        mdp = estimate_transitions(env, partition, cfg)
        assert mdp.n_states == 101
        assert mdp.action_names == MODES
        assert mdp.validate() == []
        # labels carried over from the partition plus the exit state
        assert mdp.labels[-1] == (1 << 1) | (1 << 2)
        assert all(
            mdp.labels[q] == label for q, label in enumerate(partition.labels.tolist())
        )
