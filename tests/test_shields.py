import json
import mmap
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    backup_values,
    final_states,
    mdp_from_rows,
    min_reach_paths,
    min_reach_within,
    reference_shield_json,
    scatter_tensor,
    settled_split,
    two_step_unsafe_sets,
)
import shieldcraft
from shieldcraft import mdp as mdp_module
from shieldcraft import pipeline
from shieldcraft.dfa import Dfa, compile_cosafe
from shieldcraft.ltl import PropositionTable, parse
from shieldcraft.mdp import MalformedEntryError, MalformedFieldError, MissingKeyError, product
from shieldcraft.shields import (
    AllowedActionError,
    CorruptShieldError,
    FallbackError,
    LengthError,
    ScoresRowError,
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
    base = mdp_from_rows(n, [f"a{i}" for i in range(n_actions)], rows, labels, T1.names)
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
            mass = sum(prob for target, prob in pm.rows[(s, a)] if target in unsafe)
            if mass < p:
                acts.append(a)
        allowed.append(tuple(acts))
    return allowed


def brute_force_two_step_unsafe(pm, p):
    unsafe = set(final_states(pm))
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
        expect = brute_force_allowed(pm, final_states(pm), cfg.threshold)
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
        assert two_step(pm, cfg2).unsafe_states == final_states(pm)

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
            assert final_states(pm) <= s2.unsafe_states


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
            assert s not in final_states(pm)
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
                    p * min_reach_paths(pm, t, horizon - 1) for t, p in pm.rows[(s, a)]
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
            final = final_states(pm)
            for s in range(pm.n_states):
                for a in shield.allowed[s]:
                    mass = sum(prob for t, prob in pm.rows[(s, a)] if t in final)
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
                    mass = sum(prob for t, prob in pm.rows[(s, a)] if t in unsafe)
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


def reference_decision(shield, s, proposed):
    """The filter rule computed per call: pass an allowed action through,
    else take the allowed action with the least (score, index), else the
    state's fallback."""
    allowed = shield.allowed[s]
    if proposed in allowed:
        return proposed, False
    if allowed:
        row = shield.scores[s]
        return min(allowed, key=lambda a: (row[a], a)), True
    return shield.fallback[s], True


class TestDecisionTable:
    def test_table_equals_the_filter_rule(self):
        rng = np.random.default_rng(11)
        empty = 0
        for _ in range(100):
            pm = random_product(rng)
            p = float(rng.uniform(0.02, 0.5))
            configs = (
                ShieldConfig(threshold=p, kind="one"),
                ShieldConfig(threshold=p, kind="two"),
                ShieldConfig(threshold=p, kind="q", horizon=int(rng.integers(1, 5))),
            )
            for cfg in configs:
                shield = synthesize(pm, cfg)
                for s in range(shield.n_states):
                    empty += not shield.allowed[s]
                    for a in range(pm.n_actions):
                        decision = shield.filter(s, a)
                        assert (decision.action, decision.intervened) == reference_decision(
                            shield, s, a
                        )
        assert empty  # the fallback branch was reached

    def test_score_ties_go_to_the_lower_index(self):
        shield = Shield(
            kind="one", threshold=0.5, horizon=None, allowed=((1, 2),), fallback=(0,),
            scores=((0.9, 0.1, 0.1),), unsafe_states=frozenset(),
        )
        assert shield.filter(0, 0).action == 1
        assert shield.filter(0, 2).action == 2

    def test_built_once_on_first_use_and_shared_by_runtimes(self):
        rows = {(0, 0): ((1, 0.5), (0, 0.5)), (1, 0): ((1, 1.0),)}
        pm = product_from_rows(rows, [0, 1], 1)
        shield = one_step(pm, ShieldConfig(threshold=0.05, kind="one"))
        assert "_decisions" not in vars(shield)  # synthesis builds no table
        shield.filter(0, 0)
        table = vars(shield)["_decisions"]
        shield.filter(1, 0)
        assert vars(shield)["_decisions"] is table


class TestMatrixOracle:
    def test_thousand_random_instances(self, rng):
        for _ in range(1000):
            pm = random_product(rng)
            p = float(rng.uniform(0.02, 0.45))
            s1 = one_step(pm, ShieldConfig(threshold=p, kind="one"))
            assert list(s1.allowed) == brute_force_allowed(pm, final_states(pm), p)
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
                        p * min_reach_within(pm, t, horizon - 1) for t, p in pm.rows[(s, a)]
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
        pipeline.write_json(path, shield.to_json())
        loaded = Shield.load(path)
        assert loaded == shield

    def test_schema(self, rng):
        pm = random_product(rng)
        data = one_step(pm, ShieldConfig(threshold=0.05, kind="one")).to_json()
        assert {"kind", "p", "allowed", "fallback"} <= set(data)
        assert data["p"] == 0.05
        assert len(data["allowed"]) == pm.n_states


class TestCorruptShield:
    """Each kind of entry the filter would misread fails the load by name."""

    def _data(self):
        pm = product_from_rows(
            {(0, 0): ((0, 0.9), (1, 0.1)), (0, 1): ((1, 1.0),), (1, 0): ((1, 1.0),),
             (1, 1): ((0, 1.0),)}, [0, 1], 2)
        return synthesize(pm, ShieldConfig(threshold=0.2, kind="q", horizon=3)).to_json()

    def _defects(self, data):
        with pytest.raises(CorruptShieldError) as exc:
            Shield.from_json(data)
        assert str(exc.value).startswith(
            f"corrupt shield: {len(exc.value.defects)} defect(s), first: {exc.value.defects[0]}")
        return exc.value.defects

    def test_intact_shield_loads(self):
        data = self._data()
        assert Shield.from_json(data).validate() == []

    def test_missing_scores_row(self):
        data = self._data()
        data["scores"].pop()
        assert self._defects(data) == [LengthError("scores", 3, 4)]

    def test_missing_fallback(self):
        data = self._data()
        data["fallback"].pop()
        assert self._defects(data) == [LengthError("fallback", 3, 4)]

    def test_short_scores_row(self):
        data = self._data()
        data["scores"][2].pop()
        assert self._defects(data) == [ScoresRowError(2, 1, 2)]

    @pytest.mark.parametrize("action", [2, -1])
    def test_allowed_action_out_of_range(self, action):
        data = self._data()
        data["allowed"][1].append(action)
        assert self._defects(data) == [AllowedActionError(1, action, 2)]

    @pytest.mark.parametrize("action", [2, -1])
    def test_fallback_out_of_range(self, action):
        data = self._data()
        data["fallback"][3] = action
        assert self._defects(data) == [FallbackError(3, action, 2)]

    def test_every_defect_listed(self):
        data = self._data()
        data["allowed"][0].append(5)
        data["fallback"][0] = 7
        defects = self._defects(data)
        assert defects == [AllowedActionError(0, 5, 2), FallbackError(0, 7, 2)]

    @pytest.mark.parametrize("field, index, entry", [
        ("allowed", 1, ["x"]),
        ("allowed", 0, 3),
        ("scores", 2, ["y"]),
        ("scores", 0, [None, 0.5]),
        ("fallback", 3, None),
        ("unsafe", 0, "z"),
        ("values", 2, None),
    ])
    def test_malformed_entry(self, field, index, entry):
        data = self._data()
        data[field][index] = entry
        assert self._defects(data) == [MalformedEntryError(field, index)]

    @pytest.mark.parametrize("field, value", [
        ("p", None),          # failed with a bare TypeError before the check
        ("p", "0.2"),
        ("p", 1.5),
        ("p", 0.0),
        ("p", float("nan")),
        ("kind", "three"),
        ("kind", None),
        ("horizon", None),    # a q shield's guarantee needs its horizon
        ("horizon", 0),
        ("horizon", 2.5),
        ("horizon", True),
    ])
    def test_malformed_field(self, field, value):
        data = self._data()
        data[field] = value
        assert self._defects(data) == [MalformedFieldError(field)]

    def test_horizon_on_a_one_step_shield(self):
        data = self._data()
        data["kind"] = "one"
        assert self._defects(data) == [MalformedFieldError("horizon")]
        data["horizon"] = None
        assert Shield.from_json(data).kind == "one"

    def test_every_malformed_field_listed(self):
        data = self._data()
        data["p"], data["horizon"] = None, 0
        assert self._defects(data) == [MalformedFieldError("horizon"), MalformedFieldError("p")]
        # under an unknown kind the horizon is not judged
        data["kind"] = "q9"
        assert self._defects(data) == [MalformedFieldError("kind"), MalformedFieldError("p")]

    @pytest.mark.parametrize("key", ["kind", "p", "allowed", "fallback", "scores", "unsafe"])
    def test_missing_key(self, key):
        data = self._data()
        del data[key]
        assert self._defects(data) == [MissingKeyError(key)]


class TestSharedTensor:
    CONFIGS = (
        ShieldConfig(threshold=0.2, kind="one"),
        ShieldConfig(threshold=0.2, kind="two"),
        ShieldConfig(threshold=0.2, kind="q", horizon=4),
    )
    SHARED_TERMS = ("_split", "final_mass", "fresh_violation_mass")

    def test_one_build_shared_by_all_kinds(self, monkeypatch):
        fresh = [
            json.dumps(synthesize(random_product(np.random.default_rng(7), max_q=5), cfg).to_json())
            for cfg in self.CONFIGS
        ]
        builds = []
        build = mdp_module._split_rows

        def counting(pm):
            builds.append(pm)
            return build(pm)

        monkeypatch.setattr(mdp_module, "_split_rows", counting)
        shared = random_product(np.random.default_rng(7), max_q=5)
        made = [json.dumps(synthesize(shared, self.CONFIGS[0]).to_json())]
        # the terms every kind reads are computed once, by the first kind
        terms = [vars(shared)[name] for name in self.SHARED_TERMS]
        made += [json.dumps(synthesize(shared, cfg).to_json()) for cfg in self.CONFIGS[1:]]
        assert made == fresh
        assert len(builds) == 1 and builds[0] is shared
        assert all(vars(shared)[name] is t for name, t in zip(self.SHARED_TERMS, terms))


# Builds a product of 4 x 2048 x 2048 tensors (134 MB each) in a fresh
# process and synthesizes all three kinds. Each base state moves to itself
# or a neighbour, so a product row's entries fall on one or two of its four
# 4 KiB pages. Six in seven base states are labelled, so most rows of the
# non-final states enter only violating states and are settled. The
# resident bytes of each row class are measured by filling its entries on
# their own after synthesis.
PEAK_SCRIPT = """
from oracles import mdp_from_rows
from shieldcraft import mdp as mdp_module
from shieldcraft.dfa import compile_cosafe
from shieldcraft.ltl import PropositionTable, parse
from shieldcraft.mdp import product
from shieldcraft.shields import ShieldConfig, synthesize

def status(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024

def resident(index, probs):
    before = status("VmRSS")
    _buf, t = mdp_module._zero_mapping(pm.live_tensor.shape)
    mdp_module._scatter(t.reshape(-1), index, probs)
    return status("VmRSS") - before

n = 1024
rows = {}
for q in range(n):
    targets = sorted(((q - 1) % n, q, (q + 1) % n))
    rows[(q, 0)] = tuple(zip(targets, (0.25, 0.5, 0.25)))
    rows[(q, 1)] = ((q, 1.0),)
    rows[(q, 2)] = (((q + 1) % n, 1.0),)
    rows[(q, 3)] = (((q - 1) % n, 1.0),)
table = PropositionTable(("p0",))
labels = tuple(int(q % 7 != 0) for q in range(n))
base = mdp_from_rows(n, ("a0", "a1", "a2", "a3"), rows, labels, table.names)
pm = product(base, compile_cosafe(parse("F p0", table), table))
before = status("VmRSS")
for kind in ("one", "two", "q"):
    synthesize(pm, ShieldConfig(threshold=0.2, kind=kind, horizon=4 if kind == "q" else None))
peak = status("VmHWM") - before
kind = mdp_module._row_classes(pm)[pm.actions, pm.sources]
n_s = pm.n_states
index = (pm.actions * n_s + pm.sources) * n_s + pm.targets
print(peak, *(resident(index[kind == k], pm.probs[kind == k])
              for k in (mdp_module.LIVE, mdp_module.SETTLED, mdp_module.FINAL)),
      pm.live_tensor.nbytes)
"""


def _mapping(t):
    """The buffer under the tensor's views."""
    while isinstance(t, (np.ndarray, memoryview)):
        t = t.obj if isinstance(t, memoryview) else t.base
    return t


class TestMappedTensor:
    def test_equals_zeros_scatter(self):
        repeated = product_from_rows(
            {(0, 0): ((0, 0.25), (0, 0.25), (1, 0.5)), (1, 0): ((1, 1.0),)}, [0, 1], 1
        )
        rng = np.random.default_rng(11)
        for pm in [repeated] + [random_product(rng, max_q=5) for _ in range(20)]:
            live, settled = settled_split(pm)
            t = pm.live_tensor
            assert isinstance(_mapping(t), mmap.mmap)
            assert t.shape == live.shape and t.dtype == live.dtype
            assert t.flags.c_contiguous and t.flags.writeable
            assert t.tobytes() == live.tobytes()
            assert not pm.settled_mass.flags.writeable
            assert pm.settled_mass.tobytes() == settled.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmRSS and VmHWM from /proc/self/status")
    def test_peak_holds_the_live_tensor_or_the_settled_rows(self):
        src = str(Path(shieldcraft.__file__).parents[1])
        tests = str(Path(__file__).parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, tests, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", PEAK_SCRIPT], env=env,
                             capture_output=True, text=True, check=True).stdout
        peak, live, settled, final, nbytes = map(int, out.split())
        assert nbytes >= 64 * 2**20
        # the untouched pages of the live tensor stay unbacked
        assert live < 0.75 * nbytes
        # the settled rows are never resident beside the live tensor, and
        # the rows of final states are never filled: they alone would hold
        # more than the live tensor
        assert final > live
        assert peak < live + settled

    def test_no_mapping_holds_an_entry_from_a_final_state(self, monkeypatch):
        filled = []
        scatter = mdp_module._scatter

        def recording(flat, index, probs):
            filled.append(index.copy())
            scatter(flat, index, probs)

        monkeypatch.setattr(mdp_module, "_scatter", recording)
        rng = np.random.default_rng(13)
        for _ in range(10):
            pm = automaton_product(rng, n_q=5, n_actions=2, n_z=4, repeat=True)
            filled.clear()
            pm.live_tensor
            assert len(filled) == 2
            sources = np.concatenate(filled) // pm.n_states % pm.n_states
            assert not pm.final_member[sources].any()
            # every entry of a non-final state is in one of the two
            assert len(sources) == np.count_nonzero(~pm.final_member[pm.sources])

    def test_mappings_released_when_synthesis_drops_the_product(self, monkeypatch, tmp_path):
        pm = random_product(np.random.default_rng(3), max_q=5)
        mdp, dfa = pm.base, pm.dfa
        del pm
        mappings = []
        make = mdp_module._zero_mapping

        def recording(shape):
            # the settled rows' mapping is unmapped before the live one is made
            assert all(ref().closed for ref in mappings)
            buf, t = make(shape)
            mappings.append(weakref.ref(buf))
            return buf, t

        monkeypatch.setattr(mdp_module, "_zero_mapping", recording)
        targets = {tmp_path / f"{cfg.kind}.json": cfg for cfg in TestSharedTensor.CONFIGS}
        shields = pipeline.synthesize_shields(mdp, dfa, targets)
        assert set(shields) == {"one", "two", "q"} and len(mappings) == 2
        assert [ref() for ref in mappings] == [None, None]


T2 = PropositionTable(("p0", "p1"))


def automaton_product(rng, n_q, n_actions, n_z, repeat, width=4):
    """A product with a random violation automaton of ``n_z >= 3`` states
    whose first accepting state is not absorbing. Each row has up to
    ``width`` targets; with ``repeat`` a row may list a target twice.

    Base state ``n_q - 1`` is labelled so that entering it always accepts,
    and action 0 of base state 0 enters only it, so that row is settled
    from every automaton state; action 0 of base state ``n_q - 1`` enters
    base state 0, whose label leaves the first accepting state, so that
    row leaves the final set."""
    rows = {}
    for q in range(n_q):
        for a in range(n_actions):
            k = int(rng.integers(1, width + 1))
            if repeat:
                targets = rng.integers(max(q - width, 0), min(q + width + 1, n_q), k)
            else:
                targets = rng.choice(n_q, size=min(k, n_q), replace=False)
            weights = rng.dirichlet(np.ones(len(targets)))
            rows[(q, a)] = tuple(sorted(zip(targets.tolist(), weights.tolist())))
    labels = rng.integers(0, 4, n_q)
    delta = rng.integers(0, n_z, (n_z, 4))
    accepting = rng.choice(np.arange(1, n_z), size=int(rng.integers(1, n_z)), replace=False)
    labels[0], labels[-1] = 0, 3
    delta[:, 3] = accepting[0]
    delta[accepting[0], 0] = 0  # z0 = 0 is not accepting
    rows[(0, 0)], rows[(n_q - 1, 0)] = ((n_q - 1, 1.0),), ((0, 1.0),)
    dfa = Dfa(T2.names, 0, delta, frozenset(accepting.tolist()), frozenset())
    base = mdp_from_rows(n_q, [f"a{i}" for i in range(n_actions)], rows, labels.tolist(),
                         T2.names)
    assert base.validate() == []
    return product(base, dfa)


def row_kinds(pm):
    """Whether the product has a settled row from a non-final state, and a
    row from a final state that leaves the final set."""
    final = final_states(pm)
    settled_live = leaving_final = False
    for (s, _a), row in pm.rows.items():
        all_final = all(target in final for target, _p in row)
        settled_live |= all_final and s not in final
        leaving_final |= not all_final and s in final
    return settled_live, leaving_final


def assert_split_matches_oracle(pm, threshold, horizon):
    """``live_tensor @ v + settled_mass`` equals the single tensor's
    ``@ v`` bit for bit at every non-final row and is exactly 1.0 at every
    final row, for every vector the shields multiply, and every kind's
    shield JSON equals the oracle's byte for byte."""
    t = scatter_tensor(pm)
    member = np.zeros(pm.n_states, dtype=bool)
    member[list(final_states(pm))] = True
    vectors = [unsafe.astype(float) for unsafe in two_step_unsafe_sets(t, member, threshold)]
    vectors += backup_values(t, member, horizon)
    for v in vectors:
        expect = t @ v
        expect[:, member] = 1.0
        assert (pm.live_tensor @ v + pm.settled_mass).tobytes() == expect.tobytes()
        assert pm.step_mass(v).tobytes() == expect.tobytes()
    for cfg in (
        ShieldConfig(threshold=threshold, kind="one"),
        ShieldConfig(threshold=threshold, kind="two"),
        ShieldConfig(threshold=threshold, kind="q", horizon=horizon),
    ):
        assert json.dumps(synthesize(pm, cfg).to_json()) == json.dumps(
            reference_shield_json(pm, cfg))


class TestSettledSplitOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 6), repeat=st.booleans())
    def test_random_products(self, seed, horizon, repeat):
        rng = np.random.default_rng(seed)
        pm = automaton_product(rng, n_q=int(rng.integers(2, 7)), n_actions=int(rng.integers(1, 4)),
                               n_z=int(rng.integers(3, 6)), repeat=repeat)
        assert any((pm.dfa.delta[z] != z).any() for z in pm.dfa.accepting)
        assert row_kinds(pm) == (True, True)
        assert_split_matches_oracle(pm, float(rng.uniform(0.02, 0.6)), horizon)

    def test_settled_row_of_a_live_state(self):
        # F p0: from (0, z0) action 0 enters only (1, z1), which is final
        pm = product_from_rows({(0, 0): ((1, 1.0),), (1, 0): ((0, 0.5), (1, 0.5))}, [0, 1], 1)
        s = pm.state_index(0, 0)
        assert s not in final_states(pm)
        assert not pm.live_tensor[0, s].any() and pm.settled_mass[0, s] == 1.0
        assert_split_matches_oracle(pm, 0.3, 4)

    def test_settled_row_keeps_the_full_tensors_bits(self):
        # F p0: from (0, z0) action 0 enters the final states (1, z1),
        # (2, z1) and (3, z1) with 8, 9 and 18 of 35 samples, three entries
        # that sum to 1 - 2**-53 in every order
        rows = {(0, 0): ((1, 8 / 35), (2, 9 / 35), (3, 18 / 35))}
        rows.update({(q, 0): ((q, 1.0),) for q in (1, 2, 3)})
        pm = product_from_rows(rows, [0, 1, 1, 1], 1)
        s = pm.state_index(0, 0)
        assert s not in final_states(pm)
        assert mdp_module._row_classes(pm)[0, s] == mdp_module.SETTLED
        full = scatter_tensor(pm) @ pm.final_member.astype(float)
        assert full[0, s] != 1.0
        assert pm.settled_mass[0, s].tobytes() == full[0, s].tobytes()
        assert not pm.live_tensor[0, s].any()
        assert_split_matches_oracle(pm, 0.3, 4)

    def test_final_row_leaving_the_final_set_scores_one(self):
        # the accepting state 1 returns to 0 on an unlabelled region, so the
        # final state (0, 1) steps out of the final set under both actions
        # (one-step mass 0.5 and 0.0) and (1, 1) under action 1 (0.25), all
        # below p
        dfa = Dfa(T1.names, 0, np.array([[0, 1], [0, 1]]), frozenset({1}), frozenset())
        rows = {(0, 0): ((0, 0.5), (1, 0.5)), (0, 1): ((0, 1.0),),
                (1, 0): ((1, 1.0),), (1, 1): ((0, 0.75), (1, 0.25))}
        pm = product(mdp_from_rows(2, ("a0", "a1"), rows, (0, 1), T1.names), dfa)
        final = [pm.state_index(0, 1), pm.state_index(1, 1)]
        assert sorted(final_states(pm)) == final
        for s in final:
            assert (mdp_module._row_classes(pm)[:, s] == mdp_module.FINAL).all()
            assert not pm.live_tensor[:, s].any()
        t = scatter_tensor(pm)
        assert (t[:, final[0]] @ pm.final_member).tolist() == [0.5, 0.0]
        assert t[1, final[1]] @ pm.final_member == 0.25
        for cfg in (ShieldConfig(threshold=0.6, kind="one"), ShieldConfig(threshold=0.6, kind="two"),
                    ShieldConfig(threshold=0.6, kind="q", horizon=3)):
            shield = synthesize(pm, cfg)
            for s in final:
                assert shield.scores[s] == (1.0, 1.0)
                assert shield.allowed[s] == ()
            # the fresh-violation rule: from base state 0 action 1 never
            # enters the labelled region, from base state 1 action 1 does
            # least often; the scores alone would fall back to action 0
            assert [shield.fallback[s] for s in final] == [1, 1]
        assert_split_matches_oracle(pm, 0.6, 3)

    def test_blas_threaded_size(self):
        # S = 750: large enough for OpenBLAS to split each gemv over threads
        rng = np.random.default_rng(5)
        pm = automaton_product(rng, n_q=250, n_actions=3, n_z=3, repeat=True, width=6)
        assert row_kinds(pm) == (True, True)
        assert_split_matches_oracle(pm, 0.05, 6)


class TestRuntime:
    def test_tracks_violation_automaton(self):
        from shieldcraft.abstraction import AbstractionConfig, estimate_transitions, make_partition
        from shieldcraft.env import Discretizer, EnvParams, SpacecraftEnv, proposition_table
        from shieldcraft.ltl import negate

        table = proposition_table()
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", table)), table)
        partition = make_partition()
        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        mdp = estimate_transitions(env, partition, AbstractionConfig(200, seed=0))
        pm = product(mdp, violation)
        shield = one_step(pm, ShieldConfig(threshold=0.05, kind="one"))
        runtime = ShieldRuntime(shield, violation, partition)
        runtime.reset(0)
        assert runtime.z == violation.z0
        runtime.update(1 << 2)  # p2 fires
        assert runtime.z in violation.accepting
        s = runtime.product_state(int(partition.locate(np.array([[0.001, 0.9, 0.5]]))[0]))
        assert s % violation.n_states == runtime.z

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShieldConfig(threshold=0.0)
        with pytest.raises(ValueError):
            ShieldConfig(kind="three")
