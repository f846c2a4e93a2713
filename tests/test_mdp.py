import json

import numpy as np
import pytest

from oracles import sat_recursive
from shieldcraft.dfa import compile_cosafe
from shieldcraft.ltl import PropositionTable, parse
from shieldcraft.mdp import (
    AtomMismatchError,
    FiniteMdp,
    MissingActionError,
    ProbabilityError,
    RowSumError,
    check_trace,
    product,
)

T3 = PropositionTable(("p0", "p1", "p2"))


def make_mdp(n_states, rows, labels, actions=("a", "b"), atoms=T3.names):
    return FiniteMdp(
        n_states=n_states,
        action_names=tuple(actions),
        rows=rows,
        labels=tuple(labels),
        atom_names=tuple(atoms),
    )


def random_mdp(rng, n_states, n_actions, atoms=T3.names):
    rows = {}
    for q in range(n_states):
        for a in range(n_actions):
            weights = rng.random(n_states)
            weights /= weights.sum()
            rows[(q, a)] = tuple((t, float(w)) for t, w in enumerate(weights))
    labels = tuple(int(rng.integers(0, 1 << len(atoms))) for _ in range(n_states))
    actions = tuple(f"a{i}" for i in range(n_actions))
    return make_mdp(n_states, rows, labels, actions, atoms)


class TestValidate:
    def test_ok_row(self):
        m = make_mdp(
            3,
            {
                (q, a): ((1, 0.5), (2, 0.5))
                for q in range(3)
                for a in range(2)
            },
            [0, 0, 0],
        )
        assert m.validate() == []

    def test_row_sum_error(self):
        rows = {(q, a): ((1, 0.5), (2, 0.5)) for q in range(3) for a in range(2)}
        rows[(0, 0)] = ((1, 0.7), (2, 0.4))
        m = make_mdp(3, rows, [0, 0, 0])
        defects = m.validate()
        assert RowSumError(0, 0, pytest.approx(1.1)) in defects

    def test_missing_action(self):
        rows = {(q, a): ((0, 1.0),) for q in range(4) for a in range(2)}
        del rows[(3, 1)]
        m = make_mdp(4, rows, [0] * 4)
        assert MissingActionError(3, 1) in m.validate()

    def test_probability_range(self):
        rows = {(q, a): ((0, 1.0),) for q in range(2) for a in range(1)}
        rows[(0, 0)] = ((0, 1.5), (1, -0.5))
        m = make_mdp(2, rows, [0, 0], actions=("a",))
        kinds = {type(d) for d in m.validate()}
        assert ProbabilityError in kinds


class TestProduct:
    def test_size_law(self):
        m = random_mdp(np.random.default_rng(0), 2, 1)
        d = compile_cosafe(parse("F p0", T3), T3)
        pm = product(m, d)
        assert pm.n_states == 2 * d.n_states == 4

    def test_deterministic_chain_example(self):
        # q0 -> q1, labels {} and {p1}, against the DFA for F p1
        rows = {(0, 0): ((1, 1.0),), (1, 0): ((1, 1.0),)}
        m = make_mdp(2, rows, [0, 0b010], actions=("a",))
        d = compile_cosafe(parse("F p1", T3), T3)
        pm = product(m, d)
        (acc,) = d.accepting
        s0 = pm.state_index(0, d.z0)
        row = pm.row(s0, 0)
        assert row == ((pm.state_index(1, acc), 1.0),)

    def test_row_stochastic_inherited(self):
        rng = np.random.default_rng(42)
        d = compile_cosafe(parse("F (p0 & X p1)", T3), T3)
        for _ in range(100):
            m = random_mdp(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            pm = product(m, d)
            for (s, a), row in pm.rows.items():
                assert abs(sum(p for _t, p in row) - 1.0) <= 1e-9

    def test_final_and_sink_product_sets(self):
        m = random_mdp(np.random.default_rng(1), 3, 2)
        d = compile_cosafe(parse("(!p1) U p0", T3), T3)
        assert d.sinks
        pm = product(m, d)
        assert pm.final_states == frozenset(
            q * d.n_states + z for q in range(3) for z in d.accepting
        )
        # the DFA's sinks stay absorbing in every product row
        for (s, _a), row in pm.rows.items():
            _q, z = pm.decompose(s)
            if z in d.sinks:
                assert all(pm.decompose(t)[1] == z for t, _p in row)

    def test_atom_mismatch(self):
        m = random_mdp(np.random.default_rng(2), 2, 1, atoms=("x", "y"))
        d = compile_cosafe(parse("F p0", T3), T3)
        with pytest.raises(AtomMismatchError):
            product(m, d)

    def test_initial_state_consumes_start_label(self):
        rows = {(0, 0): ((0, 1.0),)}
        m = make_mdp(1, rows, [0b001], actions=("a",))
        d = compile_cosafe(parse("F p0", T3), T3)
        pm = product(m, d)
        (acc,) = d.accepting
        assert pm.initial_state(0) == pm.state_index(0, acc)


class TestCheckTrace:
    def _dfas(self):
        dl = compile_cosafe(parse("F p0", T3), T3)
        dv = compile_cosafe(parse("F (p1 | p2)", T3), T3)
        return dl, dv

    def test_satisfied_liveness(self):
        dl, dv = self._dfas()
        result = check_trace([0b000, 0b000, 0b001], dl, dv)
        assert result.sat_liveness and result.first_liveness == 2
        assert not result.violated_safety
        assert result.satisfied

    def test_violation_at_start(self):
        dl, dv = self._dfas()
        result = check_trace([0b010, 0b001], dl, dv)
        assert result.violated_safety and result.first_violation == 0
        assert result.sat_liveness and result.first_liveness == 1
        assert not result.satisfied

    def test_neither(self):
        dl, dv = self._dfas()
        result = check_trace([0b000] * 5, dl, dv)
        assert not result.sat_liveness and not result.violated_safety
        assert not result.satisfied

    def test_matches_recursive_semantics(self):
        import itertools

        dl, dv = self._dfas()
        fl = parse("F p0", T3)
        fv = parse("F (p1 | p2)", T3)
        for length in range(1, 4):
            for trace in itertools.product(range(8), repeat=length):
                r = check_trace(trace, dl, dv)
                assert r.sat_liveness == sat_recursive(fl, trace)
                assert r.violated_safety == sat_recursive(fv, trace)

    def test_matches_semantics_up_to_length_five(self):
        import numpy as np

        from oracles import dfa_accepts_matrix, sat_matrix, trace_matrix

        dl, dv = self._dfas()
        fl = parse("F p0", T3)
        fv = parse("F (p1 | p2)", T3)
        for length in range(1, 6):
            traces = trace_matrix(3, length)
            assert np.array_equal(dfa_accepts_matrix(dl, traces), sat_matrix(fl, traces))
            assert np.array_equal(dfa_accepts_matrix(dv, traces), sat_matrix(fv, traces))


class TestStationarity:
    def test_product_policy_equals_unrolled_history_policy(self):
        # a stationary policy on (q, z) and its history-dependent unrolling
        # on the base MDP pick identical actions under the same seed
        rng = np.random.default_rng(9)
        m = random_mdp(rng, 4, 3)
        d = compile_cosafe(parse("F (p0 & X p1)", T3), T3)
        pm = product(m, d)
        policy = {s: int(rng.integers(3)) for s in range(pm.n_states)}

        def rollout_product(seed, steps=30):
            r = np.random.default_rng(seed)
            q = 0
            z = d.step(d.z0, m.labels[q])
            actions = []
            for _ in range(steps):
                a = policy[pm.state_index(q, z)]
                actions.append(a)
                targets, probs = zip(*m.row(q, a))
                q = int(r.choice(targets, p=probs))
                z = d.step(z, m.labels[q])
            return actions

        def rollout_history(seed, steps=30):
            r = np.random.default_rng(seed)
            q = 0
            history = [q]
            actions = []
            for _ in range(steps):
                # recompute the DFA state from the whole label history
                z = d.z0
                for state in history:
                    z = d.step(z, m.labels[state])
                a = policy[pm.state_index(q, z)]
                actions.append(a)
                targets, probs = zip(*m.row(q, a))
                q = int(r.choice(targets, p=probs))
                history.append(q)
            return actions

        assert rollout_product(123) == rollout_history(123)


class TestJsonRoundTrip:
    def test_bit_exact(self, rng):
        m = random_mdp(rng, 5, 3)
        data = m.to_json()
        text = json.dumps(data)
        m2 = FiniteMdp.from_json(json.loads(text))
        assert m2.to_json() == data
        assert json.dumps(m2.to_json()) == text
        assert m2.rows == m.rows
        assert m2.labels == m.labels

    def test_file_round_trip(self, rng, tmp_path):
        m = random_mdp(rng, 4, 2)
        path = tmp_path / "m.json"
        m.save(path)
        m2 = FiniteMdp.load(path)
        m2.save(tmp_path / "m2.json")
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_schema(self, rng):
        m = random_mdp(rng, 3, 2)
        data = m.to_json()
        assert data["states"]["count"] == 3
        assert all(len(t) == 4 for t in data["transitions"])
        assert all(isinstance(q, int) and isinstance(names, list) for q, names in data["labels"])
