import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import final_states, mdp_from_rows, reference_product_rows, rows_of
from shieldcraft import mdp as mdp_module
from shieldcraft.dfa import Dfa, compile_cosafe
from shieldcraft.ltl import PropositionTable, parse
from shieldcraft.mdp import (
    AtomMismatchError,
    CorruptMdpError,
    FiniteMdp,
    LabelError,
    MalformedEntryError,
    MalformedFieldError,
    MissingActionError,
    MissingKeyError,
    ProbabilityError,
    RowIndexError,
    RowSumError,
    _row_classes,
    product,
)
from shieldcraft.pipeline import write_json

T3 = PropositionTable(("p0", "p1", "p2"))


def make_mdp(n_states, rows, labels, actions=("a", "b"), atoms=T3.names):
    return mdp_from_rows(n_states, actions, rows, labels, atoms)


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
        row = pm.rows[(s0, 0)]
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
        assert set(np.flatnonzero(pm.final_member).tolist()) == final_states(pm) == frozenset(
            q * d.n_states + z for q in range(3) for z in d.accepting
        )
        # the DFA's sinks stay absorbing in every product row
        for (s, _a), row in pm.rows.items():
            _q, z = divmod(s, pm.n_z)
            if z in d.sinks:
                assert all(divmod(t, pm.n_z)[1] == z for t, _p in row)

    @pytest.mark.parametrize("accepting, want", [
        ({1}, [0, 1, 0, 0, 1, 0]),
        ({0, 2}, [1, 0, 1, 1, 0, 1]),
        (set(), [0] * 6),
    ])
    def test_final_member_is_read_from_the_automaton(self, accepting, want):
        # two base states against a hand-built three-state automaton: state
        # q * 3 + z is final exactly when z is accepting
        rows = {(0, 0): ((1, 1.0),), (1, 0): ((0, 1.0),)}
        m = make_mdp(2, rows, [0, 0b010], actions=("a",))
        delta = np.zeros((3, 1 << len(T3.names)), dtype=np.int64)
        pm = product(m, Dfa(T3.names, 0, delta, frozenset(accepting), frozenset()))
        assert pm.final_member.tolist() == [bool(x) for x in want]
        assert set(np.flatnonzero(pm.final_member).tolist()) == final_states(pm)
        assert not pm.final_member.flags.writeable

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


def random_automaton(rng, n_z):
    """A DFA over T3 with ``n_z >= 2`` random states; state 0 starts and
    is not accepting, and every accepting state returns to it on the empty
    label, so no accepting state is absorbing."""
    delta = rng.integers(0, n_z, (n_z, 1 << len(T3.names)))
    accepting = rng.choice(np.arange(1, n_z), size=int(rng.integers(1, n_z)), replace=False)
    delta[accepting, 0] = 0
    return Dfa(T3.names, 0, delta, frozenset(accepting.tolist()), frozenset())


class TestProductGather:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), repeat=st.booleans())
    def test_equals_reference_product(self, seed, repeat):
        # random rows of up to four entries; with ``repeat`` a row may list
        # a target twice
        rng = np.random.default_rng(seed)
        n_q, n_actions = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        rows = {}
        for q in range(n_q):
            for a in range(n_actions):
                k = int(rng.integers(1, 5))
                if repeat:
                    targets = rng.integers(0, n_q, k)
                else:
                    targets = rng.choice(n_q, size=min(k, n_q), replace=False)
                weights = rng.dirichlet(np.ones(len(targets)))
                rows[(q, a)] = tuple(zip(targets.tolist(), weights.tolist()))
        labels = rng.integers(0, 1 << len(T3.names), n_q).tolist()
        m = make_mdp(n_q, rows, labels, [f"a{i}" for i in range(n_actions)])
        d = random_automaton(rng, int(rng.integers(2, 6)))
        pm = product(m, d)
        want = reference_product_rows(m, d)
        assert pm.rows == want
        # the benchmark counts the entries through the view
        assert sum(len(row) for row in pm.rows.values()) == len(pm.probs) == len(m.probs) * d.n_states
        # the rows of final states, the settled rows (all targets final) of
        # the other states, and the rest
        final = final_states(pm)
        assert np.flatnonzero(pm.final_member).tolist() == sorted(final)
        classes = _row_classes(pm)
        assert classes.shape == (pm.n_actions, pm.n_states)
        assert {(s, a): int(classes[a, s]) for s, a in want} == {
            (s, a): mdp_module.FINAL if s in final
            else mdp_module.SETTLED if all(t in final for t, _p in row)
            else mdp_module.LIVE
            for (s, a), row in want.items()
        }
        assert len(want) == classes.size


class TestTraceSemantics:
    def _dfas(self):
        dl = compile_cosafe(parse("F p0", T3), T3)
        dv = compile_cosafe(parse("F (p1 | p2)", T3), T3)
        return dl, dv

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
                targets, probs = zip(*rows_of(m)[(q, a)])
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
                targets, probs = zip(*rows_of(m)[(q, a)])
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
        assert rows_of(m2) == rows_of(m)
        assert m2.labels == m.labels

    def test_file_round_trip(self, rng, tmp_path):
        m = random_mdp(rng, 4, 2)
        path = tmp_path / "m.json"
        write_json(path, m.to_json())
        m2 = FiniteMdp.load(path)
        write_json(tmp_path / "m2.json", m2.to_json())
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_corrupt_rows_rejected_on_load(self, rng):
        # one row dropped, one probability tripled: both defects are found,
        # and the message gives their count and the first
        data = random_mdp(rng, 4, 2).to_json()
        data["transitions"] = [t for t in data["transitions"] if t[:2] != [0, 1]]
        tripled = next(t for t in data["transitions"] if t[:2] == [2, 0])
        tripled[3] *= 3
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects[0] == MissingActionError(0, 1)
        assert any(isinstance(d, (RowSumError, ProbabilityError)) and d.state == 2
                   for d in err.value.defects)
        assert str(err.value).startswith(f"corrupt MDP: {len(err.value.defects)} defect(s), ")
        assert "first: MissingActionError(state=0, action=1)" in str(err.value)

    @pytest.mark.parametrize("count, first", [
        (10**12, MissingActionError(2, 0)),
        (2**70, MissingActionError(2, 0)),
        (3, MissingActionError(2, 0)),
    ])
    def test_count_beyond_the_entries_fails_by_the_first_uncovered_row(self, rng, count, first):
        # a claimed state count whose rows the entries cannot cover is named
        # by the first uncovered row before any per-state allocation (a huge
        # count would otherwise end in a MemoryError); a count they can
        # cover is validated as before, with the same first defect
        data = random_mdp(rng, 2, 2).to_json()
        data["states"]["count"] = count
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects[0] == first

    def test_first_uncovered_row_skips_rows_outside_the_mdp(self, rng):
        # entries of no row (negative state, action past the last) cover
        # nothing, and a gap inside the covered rows is found first
        data = random_mdp(rng, 2, 2).to_json()
        data["states"]["count"] = 10**12
        data["transitions"] = [[0, 0, 0, 1.0], [0, 1, 0, 1.0], [1, 1, 0, 1.0],
                               [-1, 0, 0, 1.0], [1, 2, 0, 1.0]]
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MissingActionError(1, 0)]

    @pytest.mark.parametrize("key", ["atoms", "actions", "transitions", "labels"])
    def test_missing_key_rejected_on_load(self, rng, key):
        data = random_mdp(rng, 2, 2).to_json()
        del data[key]
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MissingKeyError(key)]

    def test_missing_state_count_rejected_on_load(self, rng):
        data = random_mdp(rng, 2, 2).to_json()
        del data["states"]["count"]
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MissingKeyError("count")]

    # "x" failed with a bare ValueError before the check
    @pytest.mark.parametrize("count", ["x", "2", None, 2.0, True, [2]])
    def test_malformed_state_count_rejected_on_load(self, rng, count):
        data = random_mdp(rng, 2, 2).to_json()
        data["states"]["count"] = count
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MalformedFieldError("states.count")]
        assert "MalformedFieldError(field='states.count')" in str(err.value)

    @pytest.mark.parametrize("state", [2, 5, -1])
    def test_label_outside_the_states_rejected_on_load(self, rng, state):
        data = random_mdp(rng, 2, 2).to_json()
        data["labels"].append([state, ["p0"]])
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [LabelError(state, ())]

    def test_label_with_unknown_atom_rejected_on_load(self, rng):
        data = random_mdp(rng, 2, 2).to_json()
        data["labels"][1][1] = ["p0", "q9"]
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [LabelError(1, ("q9",))]

    @pytest.mark.parametrize("state, action", [(2, 0), (0, 2), (-1, 1)])
    def test_row_outside_the_mdp_rejected_on_load(self, rng, state, action):
        # before this check a row for state 2 of a 2-state MDP loaded, and
        # synthesis wrote it into the next action's slice of the tensor
        data = random_mdp(rng, 2, 2).to_json()
        data["transitions"].append([state, action, 0, 1.0])
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [RowIndexError(state, action)]

    @pytest.mark.parametrize("entry", [
        [0, 0, 0],                   # too short
        [0, 0, 0, 0.5, 1],           # too long
        [0, 0, 0, "x"],              # a probability that is no number
        [0, 0, 0, None],             # a null probability
        [0, None, 0, 0.5],           # a null action
        [0, 0.5, 0, 0.5],            # an action that is no integer
        [0, 0, float("inf"), 0.5],   # a target that is no integer
        [0, 0, 1e300, 0.5],          # a target beyond int64
        [[0, 0], [0, 0.5]],          # nested
        "0000",
    ])
    def test_malformed_transition_rejected_on_load(self, rng, entry):
        data = random_mdp(rng, 2, 2).to_json()
        data["transitions"].insert(3, entry)
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MalformedEntryError("transitions", 3)]

    def test_first_malformed_transition_named(self, rng):
        data = random_mdp(rng, 2, 2).to_json()
        data["transitions"][6] = [0, 0, 0]
        data["transitions"][2][3] = None
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MalformedEntryError("transitions", 2)]

    @pytest.mark.parametrize("entry", [[0], [None, []], [0, None], [0, [["p0"]]]])
    def test_malformed_label_rejected_on_load(self, rng, entry):
        data = random_mdp(rng, 2, 2).to_json()
        data["labels"][1] = entry
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MalformedEntryError("labels", 1)]

    def test_negative_state_count_rejected_on_load(self, rng):
        # named as a malformed count before any entry is read
        data = random_mdp(rng, 2, 1).to_json()
        data["states"]["count"] = -1
        data["labels"] = []
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MalformedFieldError("states.count")]

    @pytest.mark.parametrize("count, actions, field", [
        (10**12, [], "actions"),
        (3, [], "actions"),
        (0, ["a"], "states.count"),
        (-5, ["a"], "states.count"),
    ], ids=["no-actions-huge-count", "no-actions", "zero-count", "negative-count"])
    def test_mdp_without_rows_fails_by_field(self, count, actions, field):
        # an MDP with no state or no action has no (state, action) row; it
        # is refused by name before any per-state allocation (a label list
        # of 10**12 states would not fit in memory, and an empty synthesis
        # tensor cannot be mapped)
        data = {"states": {"count": count}, "actions": actions, "transitions": [],
                "labels": [], "atoms": ["p1", "p2"]}
        with pytest.raises(CorruptMdpError) as err:
            FiniteMdp.from_json(data)
        assert err.value.defects == [MalformedFieldError(field)]

    def test_schema(self, rng):
        m = random_mdp(rng, 3, 2)
        data = m.to_json()
        assert data["states"]["count"] == 3
        assert all(len(t) == 4 for t in data["transitions"])
        assert all(isinstance(q, int) and isinstance(names, list) for q, names in data["labels"])
