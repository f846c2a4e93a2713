import json

import numpy as np
import pytest

from oracles import (
    all_traces,
    dfa_accepts_matrix,
    random_cosafe_formula,
    sat_matrix,
    sat_recursive,
    trace_matrix,
)
from shieldcraft.dfa import (
    Dfa,
    FragmentError,
    StateExplosionError,
    compile_cosafe,
    eval_last,
    identify_sinks,
    monitor_product,
    progress,
)
from shieldcraft.env import proposition_table
from shieldcraft.ltl import (
    Atom,
    Eventually,
    FALSE,
    Next,
    NotAtom,
    PropositionTable,
    TRUE,
    Until,
    conj,
    negate,
    parse,
)

T2 = PropositionTable(("p3", "p4"))
T3 = PropositionTable(("p0", "p1", "p2"))
TENV = proposition_table()


class TestProgress:
    def test_obligation_discharged(self):
        assert progress(Eventually(Atom(0)), 0b1) is TRUE

    def test_obligation_persists(self):
        f = Eventually(Atom(0))
        assert progress(f, 0b0) == f

    def test_constants(self):
        assert progress(TRUE, 3) is TRUE
        assert progress(FALSE, 3) is FALSE

    def test_next_chain_example(self):
        # p3 & X F p4 over atoms (p3, p4); consuming {p3} leaves F p4
        f = conj([Atom(0), Next(Eventually(Atom(1)))])
        assert progress(f, 0b01) == Eventually(Atom(1))

    def test_progression_equivalence_against_recursive_oracle(self):
        # sigma . rest |= f iff rest |= progress(f, sigma), for nonempty rest
        f = conj([Atom(0), Next(Eventually(Atom(1)))])
        for sigma in range(4):
            g = progress(f, sigma)
            for length in (1, 2):
                for rest in all_traces(2, length):
                    assert sat_recursive(f, (sigma, *rest)) == sat_recursive(g, rest)

    def test_last_step_evaluation(self):
        f = conj([Atom(0), Next(Eventually(Atom(1)))])
        for sigma in range(4):
            assert eval_last(f, sigma) == sat_recursive(f, (sigma,))


class TestCompile:
    def test_simple_liveness_two_states(self):
        d = compile_cosafe(parse("F p0", TENV), TENV)
        assert d.n_states == 2
        assert len(d.accepting) == 1
        assert d.sinks == frozenset()

    def test_negated_safety_two_states(self):
        d = compile_cosafe(parse("F (p1 | p2)", TENV), TENV)
        assert d.n_states == 2
        # brute-force language equivalence on traces up to length 4
        f = parse("F (p1 | p2)", TENV)
        for length in range(1, 5):
            traces = trace_matrix(2, length) << 1  # symbols over bits 1..2
            expect = sat_matrix(f, traces)
            got = dfa_accepts_matrix(d, traces)
            assert np.array_equal(expect, got)

    def test_rejects_non_cosafe(self):
        with pytest.raises(FragmentError):
            compile_cosafe(parse("G !p0", TENV), TENV)

    def test_state_cap(self):
        chain = "F (p0 & X F (p1 & X F (p2 & X F p0)))"
        with pytest.raises(StateExplosionError):
            compile_cosafe(parse(chain, T3), T3, max_states=2)

    def test_absorbing_accept(self):
        d = compile_cosafe(parse("F p0", TENV), TENV)
        (acc,) = d.accepting
        assert all(d.delta[acc, s] == acc for s in range(d.n_symbols))
        assert d.step(d.z0, 0b1) == acc  # {p0}
        assert d.step(acc, 0) == acc

    def test_self_loop_before_accept(self):
        d = compile_cosafe(parse("F (p1 | p2)", TENV), TENV)
        assert d.step(d.z0, 0) == d.z0

    def test_delta_total_and_reachable(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_cosafe_formula(rng, 4, 3)
            d = compile_cosafe(f, T3)
            assert d.delta.shape == (d.n_states, 8)
            assert ((d.delta >= 0) & (d.delta < d.n_states)).all()
            seen = {d.z0}
            frontier = [d.z0]
            while frontier:
                z = frontier.pop()
                for s in range(d.n_symbols):
                    t = int(d.delta[z, s])
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
            assert seen == set(range(d.n_states))

    def test_language_equivalence_corpus(self):
        rng = np.random.default_rng(11)
        matrices = {length: trace_matrix(3, length) for length in range(1, 6)}
        for _ in range(60):
            f = random_cosafe_formula(rng, 4, 3)
            d = compile_cosafe(f, T3)
            for length, traces in matrices.items():
                assert np.array_equal(sat_matrix(f, traces), dfa_accepts_matrix(d, traces))

    def test_minimality_no_two_states_equivalent(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            f = random_cosafe_formula(rng, 3, 2)
            d = compile_cosafe(f, T3)
            assert _pairwise_distinguishable(d)

    def test_vectorized_oracle_agrees_with_recursive_oracle(self):
        rng = np.random.default_rng(17)
        traces = trace_matrix(3, 3)
        for _ in range(20):
            f = random_cosafe_formula(rng, 3, 3)
            got = sat_matrix(f, traces)
            for row in range(0, traces.shape[0], 37):
                assert got[row] == sat_recursive(f, tuple(traces[row]))


def _pairwise_distinguishable(d: Dfa) -> bool:
    # two states are equivalent iff no word leads them to differing
    # acceptance; explore the pair graph
    n = d.n_states
    for a in range(n):
        for b in range(a + 1, n):
            seen = set()
            stack = [(a, b)]
            distinguishable = False
            while stack and not distinguishable:
                x, y = stack.pop()
                if (x, y) in seen:
                    continue
                seen.add((x, y))
                if (x in d.accepting) != (y in d.accepting):
                    distinguishable = True
                    break
                for s in range(d.n_symbols):
                    nx, ny = int(d.delta[x, s]), int(d.delta[y, s])
                    if nx != ny:
                        stack.append((nx, ny))
            if not distinguishable:
                return False
    return True


class TestSinks:
    def test_liveness_has_no_sink(self):
        d = compile_cosafe(parse("F p0", TENV), TENV)
        assert identify_sinks(d.delta, d.accepting) == frozenset()

    def test_until_violation_trap(self):
        # (!p1) U p0: seeing p1 without p0 makes satisfaction impossible
        d = compile_cosafe(Until(NotAtom(1), Atom(0)), T3)
        assert len(d.sinks) == 1
        (trap,) = d.sinks
        assert all(d.delta[trap, s] == trap for s in range(d.n_symbols))
        assert trap not in d.accepting
        assert d.step(d.z0, 0b010) == trap

    def test_sinks_exclude_accepting(self):
        d = compile_cosafe(parse("F p0", TENV), TENV)
        assert not (d.sinks & d.accepting)


class TestMonitorProduct:
    def _parts(self):
        liveness = compile_cosafe(
            parse("F (p3 & X F (p4 & X F (p3 & X F (p4 & X F p3))))", TENV), TENV
        )
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", TENV)), TENV)
        return liveness, violation

    def test_complex_monitor_has_seven_states(self):
        liveness, violation = self._parts()
        assert liveness.n_states == 6
        monitor = monitor_product(liveness, violation)
        assert monitor.n_states == 7
        assert len(monitor.accepting) == 1
        assert len(monitor.sinks) == 1

    def test_simple_monitor_has_three_states(self):
        liveness = compile_cosafe(parse("F p0", TENV), TENV)
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", TENV)), TENV)
        monitor = monitor_product(liveness, violation)
        assert monitor.n_states == 3

    def test_monitor_language_achieved_while_safe(self):
        # accepted iff some prefix satisfies the liveness part before any
        # violation-accepting prefix
        liveness = compile_cosafe(parse("F p0", T3), T3)
        violation = compile_cosafe(parse("F (p1 | p2)", T3), T3)
        monitor = monitor_product(liveness, violation)
        fl = parse("F p0", T3)
        fv = parse("F (p1 | p2)", T3)
        for length in range(1, 5):
            for trace in all_traces(3, length):
                expect = False
                for i in range(1, length + 1):
                    prefix = trace[:i]
                    if sat_recursive(fl, prefix) and not sat_recursive(fv, prefix):
                        expect = True
                        break
                assert monitor.accepts(trace) == expect, trace

    def test_violation_enters_sink(self):
        liveness, violation = self._parts()
        monitor = monitor_product(liveness, violation)
        (sink,) = monitor.sinks
        assert monitor.step(monitor.z0, 0b00010) == sink  # {p1}

    def test_accept_is_absorbing(self):
        liveness, violation = self._parts()
        monitor = monitor_product(liveness, violation)
        (acc,) = monitor.accepting
        assert all(monitor.delta[acc, s] == acc for s in range(monitor.n_symbols))


class TestSerialization:
    def test_round_trip(self):
        d = compile_cosafe(parse("F (p3 & X F p4)", TENV), TENV)
        data = json.loads(json.dumps(d.to_json()))
        d2 = Dfa.from_json(data)
        assert d2.atom_names == d.atom_names
        assert d2.z0 == d.z0
        assert np.array_equal(d2.delta, d.delta)
        assert d2.accepting == d.accepting
        assert d2.sinks == d.sinks

    def test_schema_fields(self):
        d = compile_cosafe(parse("F p0", TENV), TENV)
        data = d.to_json()
        assert set(data) == {"atoms", "z0", "delta", "accepting", "sinks"}
        assert len(data["delta"]) == d.n_states
        assert len(data["delta"][0]) == 2 ** len(TENV)


class TestRunHelpers:
    def test_first_accept_index(self):
        d = compile_cosafe(parse("F p0", TENV), TENV)
        assert d.first_accept([0b0, 0b0, 0b1]) == 2
        assert d.first_accept([0b0, 0b0]) is None
        assert d.accepts([0b1])
