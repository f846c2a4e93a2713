import numpy as np
import pytest

from shieldcraft.abstraction import make_partition
from shieldcraft.dfa import compile_cosafe
from shieldcraft.env import SpacecraftEnv, proposition_table
from shieldcraft.learner import (
    Discretizer,
    LearnerConfig,
    SpacecraftSession,
    StepOutcome,
    evaluate,
    qtable_from_json,
    qtable_to_json,
    train,
)
from shieldcraft.ltl import PropositionTable, negate, parse
from shieldcraft.rewards import RewardConfig

T1 = PropositionTable(("p0",))
TENV = proposition_table()


class ToggleEnv:
    """Two observable states; action 0 toggles, action 1 stays. State 1 is
    labelled p0. Deterministic, no failure."""

    n_actions = 2

    def __init__(self):
        self.state = 0

    def reset(self, rng):
        self.state = 0
        return StepOutcome(obs_index=0, labels=0)

    def step(self, action, rng):
        if action == 0:
            self.state = 1 - self.state
        labels = 1 if self.state == 1 else 0
        return StepOutcome(obs_index=self.state, labels=labels)


class TestDiscretizer:
    def test_same_bin_same_index(self):
        partition = make_partition()
        d = Discretizer(partition)
        obs1 = np.array([0.05, 0.001, 0.45, 0.65, 1, 0, 1, 0, 0, 0])
        obs2 = np.array([0.06, 0.0012, 0.48, 0.70, 1, 0, 0, 1, 0, 0])
        assert d(obs1) == d(obs2)

    def test_wheel_region_edge_splits_bins(self):
        partition = make_partition()
        d = Discretizer(partition)
        low = np.array([0.05, 0.001, 0.79, 0.65, 1, 0, 1, 0, 0, 0])
        high = np.array([0.05, 0.001, 0.81, 0.65, 1, 0, 1, 0, 0, 0])
        assert d(low) != d(high)

    def test_index_range_under_capacity(self):
        partition = make_partition()
        d = Discretizer(partition)
        assert d.capacity == 4 * 5 * 5 * 3 * 2 * 2
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            obs = np.zeros(10)
            obs[0] = rng.uniform(0, 0.3)
            obs[1] = rng.uniform(0, 0.02)
            obs[2] = rng.uniform(0, 1.2)
            obs[3] = rng.uniform(0, 1.0)
            obs[4] = rng.integers(0, 2)
            obs[5] = rng.integers(0, 2)
            idx = d(obs)
            assert 0 <= idx < d.capacity


class TestToyConvergence:
    def test_converges_to_hand_solved_fixed_point(self):
        # greedy from zero init locks onto the toggle cycle 0 -> 1 -> 0;
        # with gamma_final 0.9 on accepts and gamma 0.99 on idle steps the
        # on-cycle Bellman equations give
        #   q(s0, toggle) = 0.1 + 0.9 * q(s1, toggle)
        #   q(s1, toggle) = 0.99 * q(s0, toggle)
        # whose fixed point is 0.1 / (1 - 0.891).
        dfa = compile_cosafe(parse("F p0", T1), T1)
        cfg = LearnerConfig(
            alpha=0.1, epsilon_start=0.0, epsilon_end=0.0,
            episodes=100, episode_length=100,
        )
        result = train(ToggleEnv(), dfa, cfg, RewardConfig(), seed=0)
        q0 = result.qtable[(0, dfa.z0)]
        q1 = result.qtable[(1, dfa.z0)]
        expect = 0.1 / (1 - 0.9 * 0.99)
        assert q0[0] == pytest.approx(expect, abs=1e-6)
        assert q1[0] == pytest.approx(0.99 * expect, abs=1e-6)

    def test_accept_reset_keeps_monitor_at_start(self):
        dfa = compile_cosafe(parse("F p0", T1), T1)
        cfg = LearnerConfig(episodes=50, episode_length=20)
        result = train(ToggleEnv(), dfa, cfg, RewardConfig(), seed=1)
        assert all(z == dfa.z0 for (_obs, z) in result.qtable)

    def test_update_uses_transition_discount_not_global(self):
        # one episode, one step: reaching the accepting state must be
        # discounted by gamma_final, distinguishable from gamma
        dfa = compile_cosafe(parse("F p0", T1), T1)
        reward = RewardConfig(gamma=0.5, gamma_transition=0.7, gamma_final=0.9)
        cfg = LearnerConfig(
            alpha=1.0, epsilon_start=0.0, epsilon_end=0.0,
            episodes=1, episode_length=1,
        )
        result = train(ToggleEnv(), dfa, cfg, reward, seed=0)
        # accept pays 1 - gamma_final regardless of gamma
        assert result.qtable[(0, dfa.z0)][0] == pytest.approx(1 - 0.9)

    def test_same_seed_identical_qtable(self):
        dfa = compile_cosafe(parse("F p0", T1), T1)
        cfg = LearnerConfig(episodes=30, episode_length=15)
        r1 = train(ToggleEnv(), dfa, cfg, RewardConfig(), seed=5)
        r2 = train(ToggleEnv(), dfa, cfg, RewardConfig(), seed=5)
        assert set(r1.qtable) == set(r2.qtable)
        for key in r1.qtable:
            assert np.array_equal(r1.qtable[key], r2.qtable[key])
        assert r1.episode_log == r2.episode_log

    def test_training_log_shape(self):
        dfa = compile_cosafe(parse("F p0", T1), T1)
        cfg = LearnerConfig(episodes=10, episode_length=5)
        result = train(ToggleEnv(), dfa, cfg, RewardConfig(), seed=2)
        assert len(result.episode_log) == 10
        for ep, value, event in result.episode_log:
            assert event in ("horizon", "sink", "failure")
        assert result.avg_vf == pytest.approx(
            sum(v for _e, v, _t in result.episode_log) / 10
        )


class FailingEnv:
    """Labels p1 (a violation) on action 1; fails the craft on action 2."""

    n_actions = 3

    def reset(self, rng):
        return StepOutcome(obs_index=0, labels=0)

    def step(self, action, rng):
        if action == 2:
            return StepOutcome(obs_index=0, labels=0, failed=True)
        labels = (1 << 1) if action == 1 else 0
        return StepOutcome(obs_index=0, labels=labels)


class TestEpisodeTermination:
    def _monitor(self):
        from shieldcraft.dfa import monitor_product

        liveness = compile_cosafe(parse("F p0", TENV), TENV)
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", TENV)), TENV)
        return monitor_product(liveness, violation)

    def test_training_stops_at_sink(self):
        monitor = self._monitor()
        cfg = LearnerConfig(
            alpha=0.5, epsilon_start=1.0, epsilon_end=1.0, episodes=40,
            episode_length=30,
        )
        result = train(FailingEnv(), monitor, cfg, RewardConfig(), seed=3)
        events = {event for _e, _v, event in result.episode_log}
        assert "sink" in events or "failure" in events

    def test_evaluation_runs_through_violations(self):
        monitor = self._monitor()
        liveness = compile_cosafe(parse("F p0", TENV), TENV)
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", TENV)), TENV)
        q = {(0, monitor.z0): np.array([0.0, 1.0, 0.0])}  # always violate
        result = evaluate(
            q, FailingEnv(), monitor, liveness, violation, RewardConfig(),
            episodes=5, episode_length=10, seed=0,
        )
        assert result.metrics.violate_pct == 100.0
        assert result.metrics.failure_pct == 0.0
        assert all(r.steps == 10 for r in result.episodes)

    def test_evaluation_stops_at_failure(self):
        monitor = self._monitor()
        liveness = compile_cosafe(parse("F p0", TENV), TENV)
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", TENV)), TENV)
        q = {(0, monitor.z0): np.array([0.0, 0.0, 1.0])}  # drive into failure
        result = evaluate(
            q, FailingEnv(), monitor, liveness, violation, RewardConfig(),
            episodes=3, episode_length=10, seed=0,
        )
        assert result.metrics.failure_pct == 100.0
        assert all(r.steps == 1 for r in result.episodes)


class TestMetricsIdentities:
    def test_no_shield_zero_interventions(self):
        dfa = compile_cosafe(parse("F p0", T1), T1)
        cfg = LearnerConfig(episodes=20, episode_length=10)
        result = train(ToggleEnv(), dfa, cfg, RewardConfig(), seed=1)
        out = evaluate(
            result.qtable, ToggleEnv(), dfa, dfa, compile_cosafe(parse("F p0", T1), T1),
            RewardConfig(), episodes=50, episode_length=10, seed=0,
        )
        m = out.metrics
        assert m.interventions_mean == 0.0
        assert m.sat_pct + (100.0 - m.sat_pct) == 100.0
        assert m.episodes == 50

    def test_records_first_accept_index(self):
        dfa = compile_cosafe(parse("F p0", T1), T1)
        q = {(0, dfa.z0): np.array([1.0, 0.0]), (1, dfa.z0): np.array([0.0, 1.0])}
        out = evaluate(
            q, ToggleEnv(), dfa, dfa, compile_cosafe(parse("F p0", T1), T1),
            RewardConfig(), episodes=2, episode_length=5, seed=0,
        )
        for r in out.episodes:
            assert r.satisfied_liveness and r.first_liveness == 1


class TestShieldInLoop:
    def _spacecraft_setup(self):
        from shieldcraft.abstraction import AbstractionConfig, estimate_transitions
        from shieldcraft.mdp import product
        from shieldcraft.shields import ShieldConfig, ShieldRuntime, one_step

        table = proposition_table()
        partition = make_partition()
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", table)), table)
        env = SpacecraftEnv()
        mdp = estimate_transitions(env, partition, AbstractionConfig(500, seed=0))
        pm = product(mdp, violation)
        shield = one_step(pm, ShieldConfig(threshold=0.05, kind="one"))
        return partition, violation, shield

    def test_executed_actions_always_shield_approved(self):
        from shieldcraft.shields import ShieldRuntime

        partition, violation, shield = self._spacecraft_setup()
        liveness = compile_cosafe(parse("F p0", proposition_table()), proposition_table())

        executed_log = []

        class SpyRuntime(ShieldRuntime):
            def filter(self, coords, proposed):
                decision = super().filter(coords, proposed)
                s = self.product_state(*coords)
                executed_log.append((s, decision.action))
                return decision

        session = SpacecraftSession(SpacecraftEnv(), Discretizer(partition))
        cfg = LearnerConfig(episodes=30, episode_length=50)
        train(
            session, liveness, cfg, RewardConfig(), seed=0,
            shield_runtime=SpyRuntime(shield, violation, partition),
        )
        assert executed_log
        for s, action in executed_log:
            assert action in shield.allowed[s] or action == shield.fallback[s]

    def test_proposed_update_mode_credits_proposal(self):
        # with update_on="proposed", a corrected action's outcome is
        # credited to the proposed action's entry
        from shieldcraft.shields import FilterDecision

        class AlwaysCorrect:
            def reset(self, labels):
                pass

            def update(self, labels):
                pass

            def filter(self, coords, proposed):
                return FilterDecision(1, proposed != 1)  # force action 1

        dfa = compile_cosafe(parse("F p0", T1), T1)
        cfg = LearnerConfig(
            alpha=1.0, epsilon_start=0.0, epsilon_end=0.0, episodes=1,
            episode_length=1, update_on="proposed",
        )
        result = train(
            ToggleEnv(), dfa, cfg, RewardConfig(), seed=0, shield_runtime=AlwaysCorrect()
        )
        row = result.qtable[(0, dfa.z0)]
        # greedy proposes 0, shield forces 1 (stay at s0: no reward);
        # the zero-reward outcome lands on entry 0
        assert row[0] == 0.0 and row[1] == 0.0
        cfg2 = LearnerConfig(
            alpha=1.0, epsilon_start=0.0, epsilon_end=0.0, episodes=1,
            episode_length=1, update_on="executed",
        )
        result2 = train(
            ToggleEnv(), dfa, cfg2, RewardConfig(), seed=0, shield_runtime=AlwaysCorrect()
        )
        assert result2.qtable[(0, dfa.z0)][1] == 0.0


class TestPolicySerialization:
    def test_round_trip(self):
        q = {(3, 1): np.array([0.5, -0.25]), (0, 0): np.array([1.0, 0.0])}
        data = qtable_to_json(q)
        assert set(data) == {"0,0", "3,1"}
        back = qtable_from_json(data)
        assert set(back) == set(q)
        for key in q:
            assert np.array_equal(back[key], q[key])


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            LearnerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LearnerConfig(epsilon_start=1.5)
        with pytest.raises(ValueError):
            LearnerConfig(update_on="both")
