import json

import numpy as np
import pytest

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
from shieldcraft.env import ATOM_NAMES, MODES, SpacecraftEnv
from shieldcraft.mdp import FiniteMdp


class TeleportEnv:
    """Analytic test simulator: lands uniformly inside a target cell drawn
    from a known per-(cell, action) categorical kernel. Column index
    len(cells) means 'leave the domain'."""

    action_names = ("go",)
    atom_names = ATOM_NAMES

    def __init__(self, partition: Partition, kernel: np.ndarray):
        self.partition = partition
        self.kernel = kernel  # (cells, actions, cells+1)

    def sample_in_cell(self, bounds, n, rng):
        cell = next(
            c.index for c in self.partition.cells if c.bounds == tuple(bounds)
        )
        return {"cell": np.full(n, cell), "n": n}

    def step_batch(self, batch, action, rng):
        n = batch["n"]
        cell = int(batch["cell"][0])
        weights = self.kernel[cell, action]
        targets = rng.choice(len(weights), size=n, p=weights)
        coords = np.empty((n, 3))
        for i, target in enumerate(targets):
            if target == len(self.partition.cells):
                coords[i] = (0.0, 0.0, -1.0)  # exits the domain (charge <= 0)
            else:
                b = self.partition.cells[target].bounds
                coords[i] = (
                    0.5 * (b[0][0] + b[0][1]),
                    0.5 * (b[1][0] + b[1][1]),
                    0.5 * (b[2][0] + b[2][1]),
                )
        return coords


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
        assert partition.cells[0].bounds == ((0.0, 0.0025), (0.0, 0.2), (0.0, 0.2))

    def test_row_major_order(self):
        partition = make_partition()
        # charge varies fastest, then wheel, then rate
        assert partition.cells[1].bounds[2] == (0.2, 0.4)
        assert partition.cells[5].bounds[1] == (0.2, 0.4)

    def test_low_charge_cells_labelled_p1(self):
        partition = make_partition()
        for cell in partition.cells:
            expect = 0
            if cell.bounds[2][1] <= 0.2:
                expect |= 1 << 1
            if cell.bounds[1][0] >= 0.8:
                expect |= 1 << 2
            assert cell.label == expect

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
        assert partition.cells[q_high].label & (1 << 2)


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
            for target, p in mdp.row(q, 0):
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
        for (q, a), row in mdp.rows.items():
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
            assert mdp.row(q, 0) == ((q, 1.0),)

    def test_exit_mass_goes_to_unsafe_state(self):
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 1, m + 1))
        kernel[:, 0, m] = 1.0  # everything leaves the domain
        env = TeleportEnv(partition, kernel)
        mdp = estimate_transitions(env, partition, AbstractionConfig(200, seed=3))
        for q in range(m):
            assert mdp.row(q, 0) == ((m, 1.0),)
        assert mdp.labels[m] == (1 << 1) | (1 << 2)
        assert mdp.row(m, 0) == ((m, 1.0),)
        assert mdp.state_meta[m] == {"unsafe_exit": True}

    def test_bit_identical_rerun(self):
        env = SpacecraftEnv()
        partition = make_partition()
        a = estimate_transitions(env, partition, AbstractionConfig(300, seed=4))
        b = estimate_transitions(env, partition, AbstractionConfig(300, seed=4))
        assert a.rows == b.rows
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_simulator_failure_annotated(self):
        partition = tiny_partition()

        class Broken:
            action_names = ("go",)
            atom_names = ATOM_NAMES

            def sample_in_cell(self, bounds, n, rng):
                return {}

            def step_batch(self, batch, action, rng):
                raise RuntimeError("boom")

        with pytest.raises(SimulatorFailureError) as err:
            estimate_transitions(Broken(), partition, AbstractionConfig(10, seed=0))
        assert err.value.state == 0 and err.value.action == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_landing_raises(self, bad):
        partition = tiny_partition()
        m = partition.n_cells
        kernel = np.zeros((m, 1, m + 1))
        kernel[:, :, 0] = 1.0
        env = TeleportEnv(partition, kernel)
        step_batch = env.step_batch

        def step_then_corrupt(batch, action, rng):
            coords = step_batch(batch, action, rng)
            coords[-1, 1] = bad
            return coords

        env.step_batch = step_then_corrupt
        with pytest.raises(SimulatorFailureError, match="non-finite") as err:
            estimate_transitions(env, partition, AbstractionConfig(10, seed=0))
        assert err.value.state == 0 and err.value.action == 0

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
            row1 = dict(m1.row(q, 0))
            row2 = dict(m2.row(q, 0))
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
        assert [(r["state"], r["action"]) for r in report["rows"]] == sorted(mdp.rows)
        for r in report["rows"]:
            assert set(r) == {"state", "action", "entropy_bits", "max_wilson_halfwidth"}
            ps = [p for _t, p in mdp.row(r["state"], r["action"])]
            assert r["max_wilson_halfwidth"] == max(wilson_halfwidth(p, 500) for p in ps)
            assert r["entropy_bits"] == pytest.approx(-sum(p * np.log2(p) for p in ps), abs=1e-12)

    def test_empty_model(self):
        empty = FiniteMdp(
            n_states=0, action_names=(), rows={}, labels=(), atom_names=ATOM_NAMES
        )
        with pytest.raises(EmptyModelError):
            abstraction_report(empty, AbstractionConfig(10, seed=0))


class TestSpacecraftAbstraction:
    def test_full_pipeline_shape(self):
        env = SpacecraftEnv()
        partition = make_partition()
        cfg = AbstractionConfig(samples_per_cell=500, seed=11)
        mdp = estimate_transitions(env, partition, cfg)
        assert mdp.n_states == 101
        assert mdp.action_names == MODES
        assert mdp.validate() == []
        # labels carried over from the partition plus the exit state
        assert mdp.labels[-1] == (1 << 1) | (1 << 2)
        assert all(
            mdp.labels[c.index] == c.label for c in partition.cells
        )
