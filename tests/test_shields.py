import json

import numpy as np
import pytest

from oracles import min_reach_paths, min_reach_within
from shieldcraft import mdp as mdp_module
from shieldcraft.dfa import compile_cosafe
from shieldcraft.ltl import PropositionTable, parse
from shieldcraft.mdp import FiniteMdp, product
from shieldcraft.shields import (
    Shield,
    ShieldConfig,
    ShieldRuntime,
    one_step,
    q_optimal,
    synthesize,
    two_step,
)

T1 = PropositionTable(("p0",))


def violation_dfa():
    return compile_cosafe(parse("F p0", T1), T1)


def product_from_rows(rows, labels, n_actions):
    """A real product: base MDP with one watched atom, violation DFA F p0."""
    n = len(labels)
    base = FiniteMdp(
        n_states=n,
        action_names=tuple(f"a{i}" for i in range(n_actions)),
        rows=rows,
        labels=tuple(labels),
        atom_names=T1.names,
    )
    assert base.validate() == []
    return product(base, violation_dfa())


def random_product(rng, max_q=3, max_actions=3):
    n = int(rng.integers(2, max_q + 1))
    n_actions = int(rng.integers(1, max_actions + 1))
    rows = {}
    for q in range(n):
        for a in range(n_actions):
            weights = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 2.0))
            rows[(q, a)] = tuple((t, float(w)) for t, w in enumerate(weights))
    labels = [0] + [int(rng.random() < 0.35) for _ in range(n - 1)]
    return product_from_rows(rows, labels, n_actions)


def brute_force_allowed(pm, unsafe, p):
    """Exhaustive enumeration of allowed sets: per (state, action), sum the
    row mass landing in `unsafe` and compare against the threshold."""
    allowed = []
    for s in range(pm.n_states):
        acts = []
        for a in range(pm.n_actions):
            mass = sum(prob for target, prob in pm.row(s, a) if target in unsafe)
            if mass < p:
                acts.append(a)
        allowed.append(tuple(acts))
    return allowed


def brute_force_two_step_unsafe(pm, p):
    unsafe = set(pm.final_states)
    while True:
        allowed = brute_force_allowed(pm, unsafe, p)
        grown = unsafe | {s for s in range(pm.n_states) if not allowed[s]}
        if grown == unsafe:
            return unsafe
        unsafe = grown


class TestOneStep:
    def test_low_mass_action_allowed(self):
        rows = {
            (0, 0): ((0, 0.97), (1, 0.03)),
            (0, 1): ((0, 0.90), (1, 0.10)),
            (1, 0): ((1, 1.0),),
            (1, 1): ((1, 1.0),),
        }
        pm = product_from_rows(rows, [0, 1], 2)
        shield = one_step(pm, ShieldConfig(threshold=0.05, kind="one"))
        s0 = pm.initial_state(0)
        assert 0 in shield.allowed[s0]
        assert 1 not in shield.allowed[s0]

    def test_mass_exactly_p_disallowed(self):
        rows = {
            (0, 0): ((0, 0.95), (1, 0.05)),
            (1, 0): ((1, 1.0),),
        }
        pm = product_from_rows(rows, [0, 1], 1)
        shield = one_step(pm, ShieldConfig(threshold=0.05, kind="one"))
        assert shield.allowed[pm.initial_state(0)] == ()

    def test_four_state_hand_instance_matches_enumeration(self):
        rows = {
            (0, 0): ((1, 0.5), (2, 0.5)),
            (0, 1): ((3, 0.2), (0, 0.8)),
            (1, 0): ((3, 0.04), (1, 0.96)),
            (1, 1): ((2, 1.0),),
            (2, 0): ((3, 0.5), (2, 0.5)),
            (2, 1): ((0, 1.0),),
            (3, 0): ((3, 1.0),),
            (3, 1): ((3, 1.0),),
        }
        pm = product_from_rows(rows, [0, 0, 0, 1], 2)
        cfg = ShieldConfig(threshold=0.05, kind="one")
        shield = one_step(pm, cfg)
        expect = brute_force_allowed(pm, pm.final_states, cfg.threshold)
        assert list(shield.allowed) == expect

    def test_fallback_minimizes_unsafe_mass(self):
        rows = {
            (0, 0): ((1, 0.5), (0, 0.5)),
            (0, 1): ((1, 0.3), (0, 0.7)),
            (0, 2): ((1, 0.9), (0, 0.1)),
            (1, 0): ((1, 1.0),),
            (1, 1): ((1, 1.0),),
            (1, 2): ((1, 1.0),),
        }
        pm = product_from_rows(rows, [0, 1], 3)
        shield = one_step(pm, ShieldConfig(threshold=0.05, kind="one"))
        assert shield.fallback[pm.initial_state(0)] == 1

    def test_fallback_lowest_index_tie_break(self):
        rows = {
            (0, 0): ((1, 0.5), (0, 0.5)),
            (0, 1): ((1, 0.5), (0, 0.5)),
            (1, 0): ((1, 1.0),),
            (1, 1): ((1, 1.0),),
        }
        pm = product_from_rows(rows, [0, 1], 2)
        shield = one_step(pm, ShieldConfig(threshold=0.2, kind="one"))
        assert shield.fallback[pm.initial_state(0)] == 0


class TestTwoStep:
    def test_zero_risk_everywhere_equals_one_step(self):
        rows = {
            (0, 0): ((0, 1.0),),
            (1, 0): ((0, 1.0),),
        }
        pm = product_from_rows(rows, [0, 0], 1)
        cfg1 = ShieldConfig(threshold=0.05, kind="one")
        cfg2 = ShieldConfig(threshold=0.05, kind="two")
        assert two_step(pm, cfg2).allowed == one_step(pm, cfg1).allowed
        assert two_step(pm, cfg2).unsafe_states == pm.final_states

    def test_recursive_growth_hand_instance(self):
        # state b has only risky actions, so it joins the unsafe set and
        # its predecessors lose the actions that reach it too often
        rows = {
            (0, 0): ((1, 0.9), (0, 0.1)),   # into b: unsafe once b joins U
            (0, 1): ((0, 1.0),),
            (1, 0): ((2, 0.5), (1, 0.5)),    # b: only action is risky
            (1, 1): ((2, 0.3), (1, 0.7)),
            (2, 0): ((2, 1.0),),
            (2, 1): ((2, 1.0),),
        }
        pm = product_from_rows(rows, [0, 0, 1], 2)
        cfg = ShieldConfig(threshold=0.05, kind="two")
        shield = two_step(pm, cfg)
        b = pm.initial_state(1)
        a0 = pm.initial_state(0)
        assert b in shield.unsafe_states
        assert shield.allowed[b] == ()
        assert 0 not in shield.allowed[a0]
        assert 1 in shield.allowed[a0]
        assert shield.unsafe_states == frozenset(brute_force_two_step_unsafe(pm, 0.05))

    def test_nesting_in_one_step(self, rng):
        for _ in range(200):
            pm = random_product(rng)
            p = float(rng.uniform(0.02, 0.4))
            s1 = one_step(pm, ShieldConfig(threshold=p, kind="one"))
            s2 = two_step(pm, ShieldConfig(threshold=p, kind="two"))
            for a1, a2 in zip(s1.allowed, s2.allowed):
                assert set(a2) <= set(a1)
            assert pm.final_states <= s2.unsafe_states


class TestQOptimal:
    def test_absorbing_safe_mdp_all_allowed(self):
        rows = {
            (0, 0): ((0, 1.0),),
            (0, 1): ((1, 1.0),),
            (1, 0): ((1, 1.0),),
            (1, 1): ((0, 1.0),),
        }
        pm = product_from_rows(rows, [0, 0], 2)
        shield = q_optimal(pm, ShieldConfig(threshold=0.05, kind="q", horizon=50))
        # clean labels: from every reachable (state, watching) pair the
        # violation set has zero mass, so everything is allowed
        for q in (0, 1):
            s = pm.initial_state(q)
            assert s not in pm.final_states
            assert shield.allowed[s] == (0, 1)
            assert shield.values[s] == 0.0

    def test_three_state_chain_against_path_enumeration(self):
        rows = {
            (0, 0): ((1, 0.5), (0, 0.5)),
            (1, 0): ((2, 0.4), (1, 0.6)),
            (2, 0): ((2, 1.0),),
        }
        pm = product_from_rows(rows, [0, 0, 1], 1)
        horizon = 4
        shield = q_optimal(pm, ShieldConfig(threshold=0.05, kind="q", horizon=horizon))
        for s in range(pm.n_states):
            for a in range(pm.n_actions):
                expect = sum(
                    p * min_reach_paths(pm, t, horizon - 1) for t, p in pm.row(s, a)
                )
                assert shield.scores[s][a] == pytest.approx(expect, abs=1e-10)

    def test_horizon_one_equals_one_step(self, rng):
        for _ in range(100):
            pm = random_product(rng)
            p = float(rng.uniform(0.02, 0.4))
            sq = q_optimal(pm, ShieldConfig(threshold=p, kind="q", horizon=1))
            s1 = one_step(pm, ShieldConfig(threshold=p, kind="one"))
            assert sq.allowed == s1.allowed

    def test_requires_horizon(self):
        # the guarantee is a bounded-horizon reachability probability
        with pytest.raises(ValueError, match="horizon"):
            ShieldConfig(kind="q")
        with pytest.raises(ValueError, match="horizon"):
            ShieldConfig(kind="q", horizon=0)


class TestGuaranteesAndMonotonicity:
    def test_one_step_guarantee(self, rng):
        for _ in range(100):
            pm = random_product(rng)
            p = float(rng.uniform(0.02, 0.4))
            shield = one_step(pm, ShieldConfig(threshold=p, kind="one"))
            for s in range(pm.n_states):
                for a in shield.allowed[s]:
                    mass = sum(
                        prob for t, prob in pm.row(s, a) if t in pm.final_states
                    )
                    assert mass < p

    def test_two_step_guarantee(self, rng):
        for _ in range(100):
            pm = random_product(rng)
            p = float(rng.uniform(0.02, 0.4))
            shield = two_step(pm, ShieldConfig(threshold=p, kind="two"))
            unsafe = shield.unsafe_states
            for s in range(pm.n_states):
                if s in unsafe:
                    continue
                assert shield.allowed[s]
                for a in shield.allowed[s]:
                    mass = sum(prob for t, prob in pm.row(s, a) if t in unsafe)
                    assert mass < p

    def test_monotone_in_threshold(self, rng):
        for _ in range(60):
            pm = random_product(rng)
            p1, p2 = sorted((float(rng.uniform(0.02, 0.5)), float(rng.uniform(0.02, 0.5))))
            for kind, synth in (("one", one_step), ("two", two_step), ("q", q_optimal)):
                lo = synth(pm, ShieldConfig(threshold=p1, kind=kind, horizon=3))
                hi = synth(pm, ShieldConfig(threshold=p2, kind=kind, horizon=3))
                for a_lo, a_hi in zip(lo.allowed, hi.allowed):
                    assert set(a_lo) <= set(a_hi)

    def test_two_step_terminates_within_state_count(self, rng):
        # the loop body in two_step asserts the fixed point is reached in
        # <= |S| iterations; run it across the random suite
        for _ in range(100):
            pm = random_product(rng)
            two_step(pm, ShieldConfig(threshold=float(rng.uniform(0.02, 0.4)), kind="two"))


class TestFilter:
    def _shield(self):
        rows = {
            (0, 0): ((1, 0.5), (0, 0.5)),
            (0, 1): ((1, 0.02), (0, 0.98)),
            (0, 2): ((1, 0.01), (0, 0.99)),
            (1, 0): ((1, 1.0),),
            (1, 1): ((1, 1.0),),
            (1, 2): ((1, 1.0),),
        }
        pm = product_from_rows(rows, [0, 1], 3)
        return pm, one_step(pm, ShieldConfig(threshold=0.05, kind="one"))

    def test_allowed_action_passes_through(self):
        pm, shield = self._shield()
        decision = shield.filter(pm.initial_state(0), 1)
        assert decision.action == 1 and not decision.intervened

    def test_disallowed_replaced_by_safest_allowed(self):
        pm, shield = self._shield()
        decision = shield.filter(pm.initial_state(0), 0)
        assert decision.action == 2 and decision.intervened

    def test_empty_allowed_falls_back(self):
        pm, shield = self._shield()
        s_bad = pm.initial_state(1)  # violated component: nothing allowed
        assert shield.allowed[s_bad] == ()
        decision = shield.filter(s_bad, 1)
        assert decision.action == shield.fallback[s_bad] and decision.intervened

    def test_violated_state_fallback_minimizes_fresh_violation(self):
        # from the violated automaton state, the fallback steers toward
        # regions whose labels do not fire the violation automaton afresh
        rows = {
            (0, 0): ((1, 1.0),),
            (0, 1): ((0, 1.0),),
            (1, 0): ((1, 1.0),),
            (1, 1): ((0, 1.0),),
        }
        pm = product_from_rows(rows, [0, 1], 2)
        shield = one_step(pm, ShieldConfig(threshold=0.05, kind="one"))
        s_bad = pm.initial_state(1)
        assert shield.fallback[s_bad] == 1  # action 1 returns to the clean region


class TestMatrixOracle:
    def test_thousand_random_instances(self, rng):
        for _ in range(1000):
            pm = random_product(rng)
            p = float(rng.uniform(0.02, 0.45))
            s1 = one_step(pm, ShieldConfig(threshold=p, kind="one"))
            assert list(s1.allowed) == brute_force_allowed(pm, pm.final_states, p)
            s2 = two_step(pm, ShieldConfig(threshold=p, kind="two"))
            unsafe = brute_force_two_step_unsafe(pm, p)
            assert s2.unsafe_states == frozenset(unsafe)
            assert list(s2.allowed) == brute_force_allowed(pm, unsafe, p)

    def test_q_backup_matches_memoized_recursion(self, rng):
        for _ in range(300):
            pm = random_product(rng)
            horizon = int(rng.integers(1, 6))
            shield = q_optimal(pm, ShieldConfig(threshold=0.1, kind="q", horizon=horizon))
            for s in range(pm.n_states):
                for a in range(pm.n_actions):
                    expect = sum(
                        p * min_reach_within(pm, t, horizon - 1) for t, p in pm.row(s, a)
                    )
                    assert abs(shield.scores[s][a] - expect) <= 1e-10

    def test_memoized_recursion_matches_raw_path_enumeration(self, rng):
        for _ in range(40):
            pm = random_product(rng, max_q=2, max_actions=2)
            for steps in (1, 2, 3):
                for s in range(pm.n_states):
                    assert min_reach_within(pm, s, steps) == pytest.approx(
                        min_reach_paths(pm, s, steps), abs=1e-12
                    )


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        pm = random_product(rng)
        shield = synthesize(pm, ShieldConfig(threshold=0.07, kind="q", horizon=4))
        path = tmp_path / "shield.json"
        shield.save(path)
        loaded = Shield.load(path)
        assert loaded == shield

    def test_schema(self, rng):
        pm = random_product(rng)
        data = one_step(pm, ShieldConfig(threshold=0.05, kind="one")).to_json()
        assert {"kind", "p", "allowed", "fallback"} <= set(data)
        assert data["p"] == 0.05
        assert len(data["allowed"]) == pm.n_states


class TestSharedTensor:
    CONFIGS = (
        ShieldConfig(threshold=0.2, kind="one"),
        ShieldConfig(threshold=0.2, kind="two"),
        ShieldConfig(threshold=0.2, kind="q", horizon=4),
    )

    def test_one_build_shared_by_all_kinds(self, monkeypatch):
        fresh = [
            json.dumps(synthesize(random_product(np.random.default_rng(7), max_q=5), cfg).to_json())
            for cfg in self.CONFIGS
        ]
        builds = []
        build = mdp_module._dense_transitions

        def counting(pm):
            builds.append(pm)
            return build(pm)

        monkeypatch.setattr(mdp_module, "_dense_transitions", counting)
        shared = random_product(np.random.default_rng(7), max_q=5)
        assert [json.dumps(synthesize(shared, cfg).to_json()) for cfg in self.CONFIGS] == fresh
        assert len(builds) == 1 and builds[0] is shared


class TestRuntime:
    def test_tracks_violation_automaton(self):
        from shieldcraft.abstraction import AbstractionConfig, estimate_transitions, make_partition
        from shieldcraft.env import SpacecraftEnv, proposition_table
        from shieldcraft.ltl import negate

        table = proposition_table()
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", table)), table)
        partition = make_partition()
        env = SpacecraftEnv()
        mdp = estimate_transitions(env, partition, AbstractionConfig(200, seed=0))
        pm = product(mdp, violation)
        shield = one_step(pm, ShieldConfig(threshold=0.05, kind="one"))
        runtime = ShieldRuntime(shield, violation, partition)
        runtime.reset(0)
        assert runtime.z == violation.z0
        runtime.update(1 << 2)  # p2 fires
        assert runtime.z in violation.accepting
        s = runtime.product_state(0.001, 0.9, 0.5)
        assert s % violation.n_states == runtime.z

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShieldConfig(threshold=0.0)
        with pytest.raises(ValueError):
            ShieldConfig(kind="three")
