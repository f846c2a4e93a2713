import numpy as np
import pytest

from oracles import GeneratorDraws
from shieldcraft import learner as learner_mod
from shieldcraft.abstraction import make_partition
from shieldcraft.dfa import compile_cosafe, monitor_product
from shieldcraft.env import (
    RESET_DRAWS,
    Discretizer,
    EnvParams,
    SpacecraftEnv,
    SpacecraftState,
    proposition_table,
)
from shieldcraft.learner import (
    CorruptPolicyError,
    LearnerConfig,
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
        self.steps = 0  # step calls, over all episodes

    def reset(self, draws):
        self.state = 0
        return 0, 0, 0, False  # (obs_index, cell, labels, failed)

    def step(self, action, draws):
        self.steps += 1
        if action == 0:
            self.state = 1 - self.state
        labels = 1 if self.state == 1 else 0
        return self.state, 0, labels, False


def flight_state(err, rate, wheel, charge, sun, target, mode=0):
    return SpacecraftState(
        pointing_error=err, attitude_rate=rate, wheel_speed=wheel, charge=charge,
        sun=sun, target=target, mode=mode, minutes=0.0,
    )


class TestDiscretizer:
    def test_same_bin_same_index(self):
        partition = make_partition()
        d = Discretizer(partition)
        obs1 = flight_state(0.05, 0.001, 0.45, 0.65, 1, 0, mode=0)
        obs2 = flight_state(0.06, 0.0012, 0.48, 0.70, 1, 0, mode=1)
        assert d(obs1, False) == d(obs2, False)

    def test_wheel_region_edge_splits_bins(self):
        partition = make_partition()
        d = Discretizer(partition)
        low = flight_state(0.05, 0.001, 0.79, 0.65, 1, 0)
        high = flight_state(0.05, 0.001, 0.81, 0.65, 1, 0)
        assert d(low, False) != d(high, False)

    def test_index_range_under_capacity(self):
        partition = make_partition()
        d = Discretizer(partition)
        assert d.capacity == 4 * 5 * 5 * 3 * 2 * 2
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            obs = flight_state(
                err=rng.uniform(0, 0.3),
                rate=rng.uniform(0, 0.02),
                wheel=rng.uniform(0, 1.2),
                charge=rng.uniform(0, 1.0),
                sun=int(rng.integers(0, 2)),
                target=int(rng.integers(0, 2)),
            )
            idx, _cell = d(obs, False)
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

    def test_steps_count_env_steps(self):
        dfa = compile_cosafe(parse("F p0", T1), T1)
        cfg = LearnerConfig(episodes=25, episode_length=7)
        env = ToggleEnv()
        result = train(env, dfa, cfg, RewardConfig(), seed=4)
        assert result.steps == env.steps == 25 * 7

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

    def reset(self, draws):
        return 0, 0, 0, False  # (obs_index, cell, labels, failed)

    def step(self, action, draws):
        if action == 2:
            return 0, 0, 0, True
        labels = (1 << 1) if action == 1 else 0
        return 0, 0, labels, False


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
        q = {(0, monitor.z0): [0.0, 1.0, 0.0]}  # always violate
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
        q = {(0, monitor.z0): [0.0, 0.0, 1.0]}  # drive into failure
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
        q = {(0, dfa.z0): [1.0, 0.0], (1, dfa.z0): [0.0, 1.0]}
        out = evaluate(
            q, ToggleEnv(), dfa, dfa, compile_cosafe(parse("F p0", T1), T1),
            RewardConfig(), episodes=2, episode_length=5, seed=0,
        )
        for r in out.episodes:
            assert r.satisfied_liveness and r.first_liveness == 1


def _spacecraft_shield():
    from shieldcraft.abstraction import AbstractionConfig, estimate_transitions
    from shieldcraft.mdp import product
    from shieldcraft.shields import ShieldConfig, one_step

    table = proposition_table()
    partition = make_partition()
    violation = compile_cosafe(negate(parse("G !(p1 | p2)", table)), table)
    env = SpacecraftEnv(EnvParams(), Discretizer(partition))
    mdp = estimate_transitions(env, partition, AbstractionConfig(500, seed=0))
    shield = one_step(product(mdp, violation), ShieldConfig(threshold=0.05, kind="one"))
    return partition, violation, shield


class TestShieldInLoop:
    def test_executed_actions_always_shield_approved(self):
        from shieldcraft.shields import ShieldRuntime

        partition, violation, shield = _spacecraft_shield()
        liveness = compile_cosafe(parse("F p0", proposition_table()), proposition_table())

        executed_log = []

        class SpyRuntime(ShieldRuntime):
            def filter(self, cell, proposed):
                decision = super().filter(cell, proposed)
                s = self.product_state(cell)
                executed_log.append((s, decision.action))
                return decision

        env = SpacecraftEnv(EnvParams(), Discretizer(partition))
        cfg = LearnerConfig(episodes=30, episode_length=50)
        train(
            env, liveness, cfg, RewardConfig(), seed=0,
            shield_runtime=SpyRuntime(shield, violation, partition),
        )
        assert executed_log
        for s, action in executed_log:
            assert action in shield.allowed[s] or action == shield.fallback[s]

    def test_reset_outside_the_domain_gets_the_exit_cell(self):
        from shieldcraft.shields import ShieldRuntime

        partition, violation, shield = _spacecraft_shield()
        liveness = compile_cosafe(parse("F p0", proposition_table()), proposition_table())
        # starts above RATE_LIMIT
        env = SpacecraftEnv(EnvParams(init_rate=(0.011, 0.012)), Discretizer(partition))
        first_filters = []

        class SpyRuntime(ShieldRuntime):
            def reset(self, labels):
                super().reset(labels)
                self.first = True

            def filter(self, cell, proposed):
                if self.first:
                    st = env.state
                    coords = np.array([[st.attitude_rate, st.wheel_speed, st.charge]])
                    located = int(partition.locate(coords)[0])
                    first_filters.append((located, self.product_state(cell), self.z))
                    self.first = False
                return super().filter(cell, proposed)

        cfg = LearnerConfig(episodes=5, episode_length=3)
        train(
            env, liveness, cfg, RewardConfig(), seed=0,
            shield_runtime=SpyRuntime(shield, violation, partition),
        )
        assert len(first_filters) == 5
        for located, s, z in first_filters:
            assert located == -1
            assert s == partition.n_cells * violation.n_states + z

    def test_proposed_update_mode_credits_proposal(self):
        # with update_on="proposed", a corrected action's outcome is
        # credited to the proposed action's entry
        from shieldcraft.shields import FilterDecision

        class AlwaysCorrect:
            def reset(self, labels):
                pass

            def update(self, labels):
                pass

            def filter(self, cell, proposed):
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


class TestEpisodeDrawsInLoop:
    """`train` and `evaluate` on `EpisodeDraws` against the same loops on
    a reference that makes one `Generator` call per read."""

    @pytest.fixture(scope="class")
    def setup(self):
        from shieldcraft.shields import ShieldRuntime

        partition, violation, shield = _spacecraft_shield()
        table = proposition_table()
        liveness = compile_cosafe(parse("F p0", table), table)
        monitor = monitor_product(liveness, violation)

        def make_env():
            return SpacecraftEnv(EnvParams(randomize_windows=True), Discretizer(partition))

        def runtime():
            return ShieldRuntime(shield, violation, partition)

        return make_env, runtime, monitor, liveness, violation

    def _run(self, setup, shielded):
        make_env, runtime, monitor, liveness, violation = setup
        # epsilon anneals from 0.9 to 0.2: exploration and greedy steps mix
        cfg = LearnerConfig(
            episodes=40, episode_length=60, epsilon_start=0.9, epsilon_end=0.2,
            optimistic_init=0.5 if shielded else 0.0,
        )
        trained = train(
            make_env(), monitor, cfg, RewardConfig(), seed=4,
            shield_runtime=runtime() if shielded else None,
        )
        # random greedy actions: the imaging modes saturate the wheels, so
        # some episodes fail early and others run the whole horizon
        pick = np.random.default_rng(0)
        capacity = make_env().discretizer.capacity
        q = {(obs, z): pick.random(4).tolist()
             for obs in range(capacity) for z in range(monitor.n_states)}
        evaluated = evaluate(
            q, make_env(), monitor, liveness, violation, RewardConfig(),
            episodes=40, episode_length=60, seed=4,
            shield_runtime=runtime() if shielded else None, record_trajectories=5,
        )
        return trained, evaluated

    @pytest.mark.parametrize("shielded", [False, True])
    def test_equal_to_generator_draws(self, setup, shielded, monkeypatch):
        trained, evaluated = self._run(setup, shielded)
        monkeypatch.setattr(learner_mod, "EpisodeDraws", GeneratorDraws)
        ref_trained, ref_evaluated = self._run(setup, shielded)

        assert list(trained.qtable) and set(trained.qtable) == set(ref_trained.qtable)
        for key, row in ref_trained.qtable.items():
            assert np.asarray(trained.qtable[key]).tobytes() == np.asarray(row).tobytes(), key
        assert trained.episode_log == ref_trained.episode_log
        assert trained.steps == ref_trained.steps
        assert evaluated.episodes == ref_evaluated.episodes
        assert evaluated.trajectories == ref_evaluated.trajectories
        assert len(evaluated.trajectories) == 5
        events = {event for _ep, _v, event in trained.episode_log}
        assert "horizon" in events
        assert max(r.steps for r in evaluated.episodes) == 60
        if not shielded:
            # early ends in training, and in recorded evaluation episodes
            assert len(events) > 1
            assert any(r.failed for r in evaluated.episodes[:5])

    def test_training_reads_fit_its_blocks(self, setup):
        # at epsilon 1 every step explores: its epsilon draw, half an output
        # for `integers(4)` (2**32 mod 4 = 0, so Lemire's method never
        # rejects) and three noise outputs; with randomized windows a reset
        # reads six
        make_env, _runtime, monitor, _liveness, _violation = setup
        counting = CountingEnv(make_env())
        cfg = LearnerConfig(episodes=40, episode_length=60, epsilon_start=1.0, epsilon_end=1.0)
        trained = train(counting, monitor, cfg, RewardConfig(), seed=4)
        assert counting.resets == [RESET_DRAWS] * 40
        assert len(counting.steps) == trained.steps
        assert set(counting.steps) == {4, 5}

    def test_evaluation_reads_three_per_step(self, setup):
        make_env, _runtime, monitor, liveness, violation = setup
        counting = CountingEnv(make_env())
        pick = np.random.default_rng(0)
        capacity = counting.discretizer.capacity
        q = {(obs, z): pick.random(4).tolist()
             for obs in range(capacity) for z in range(monitor.n_states)}
        evaluated = evaluate(
            q, counting, monitor, liveness, violation, RewardConfig(),
            episodes=40, episode_length=60, seed=4,
        )
        assert counting.resets == [RESET_DRAWS] * 40
        assert len(counting.steps) == sum(r.steps for r in evaluated.episodes)
        assert set(counting.steps) == {3}


class CountingEnv:
    """An env that records the draws each reset reads, and those each
    step reads since the previous reset or step."""

    def __init__(self, env):
        self.env = env
        self.n_actions = env.n_actions
        self.discretizer = env.discretizer
        self.resets = []
        self.steps = []
        self._read = 0

    def reset(self, draws):
        outcome = self.env.reset(draws)
        self.resets.append(draws._pos)
        self._read = draws._pos
        return outcome

    def step(self, action, draws):
        outcome = self.env.step(action, draws)
        self.steps.append(draws._pos - self._read)
        self._read = draws._pos
        return outcome

    def observation(self):
        return self.env.observation()


class TestPolicySerialization:
    def test_round_trip(self):
        q = {(3, 1): [0.5, -0.25], (0, 0): [1.0, 0.0]}
        data = qtable_to_json(q)
        assert set(data) == {"0,0", "3,1"}
        back = qtable_from_json(data, 2, 4, 2)
        assert set(back) == set(q)
        for key in q:
            assert np.array_equal(back[key], q[key])

    def test_rows_load_as_float_lists(self):
        back = qtable_from_json({"2,1": [1, 0.5, -3]}, 3, 3, 2)
        assert back == {(2, 1): [1.0, 0.5, -3.0]}
        assert all(type(v) is float for v in back[(2, 1)])

    @pytest.mark.parametrize("data, key", [
        ({"0,0": [0.0, 1.0], "1,0": [float("nan"), 0.0]}, "1,0"),
        ({"0,0": [-float("inf"), 0.0]}, "0,0"),
        ({"0,0": [10 ** 400, 0.0]}, "0,0"),
        ({"0,0": [True, 0.0]}, "0,0"),
        ({"0,0": ["1.0", 0.0]}, "0,0"),
        ({"0,0": [None, 0.0]}, "0,0"),
        ({"0,0": []}, "0,0"),
        ({"0,0": 1.0}, "0,0"),
        ({"0;0": [1.0]}, "0;0"),
        ({"0,0,0": [1.0]}, "0,0,0"),
        ({"+1,0": [1.0]}, "+1,0"),
        ({"-1,0": [1.0]}, "-1,0"),
        ({"01,0": [1.0]}, "01,0"),
        ({"1, 0": [1.0]}, "1, 0"),
        ({"1,x": [1.0]}, "1,x"),
        ([[1.0]], None),
    ])
    def test_corrupt_policy_named(self, data, key):
        # every list row has the action count, so the defect is the key's own
        rows = [v for v in data.values() if isinstance(v, list)] if isinstance(data, dict) else []
        with pytest.raises(CorruptPolicyError) as err:
            qtable_from_json(data, max(map(len, rows), default=1), 10, 10)
        assert err.value.key == key
        assert str(err.value).startswith(
            "corrupt policy: the policy is not" if key is None else f"corrupt policy: key {key!r}: ")

    @pytest.mark.parametrize("row", [[0.0, 1.0, 0.0], [1.0]])
    def test_row_of_another_action_count_named(self, row):
        # a longer row could pick an action the env does not have
        data = {"0,0": [0.0, 1.0], "1,0": row, "2,0": [1.0, 2.0, 3.0, 4.0]}
        with pytest.raises(CorruptPolicyError) as err:
            qtable_from_json(data, 2, 3, 1)
        assert err.value.key == "1,0"
        assert str(err.value) == f"corrupt policy: key '1,0': a row of {len(row)} values, not 2"

    @pytest.mark.parametrize("key, problem", [
        ("4,0", "observation index 4 is outside the 4 of this run"),
        ("99999,0", "observation index 99999 is outside the 4 of this run"),
        ("0,2", "monitor state 2 is outside the 2 of this run"),
        ("3,99", "monitor state 99 is outside the 2 of this run"),
    ])
    def test_key_outside_the_run_named(self, key, problem):
        # a policy of another partition or monitor would evaluate as rows
        # never seen; the first key outside the counts is named
        data = {"0,0": [0.0, 1.0], "3,1": [1.0, 0.0], key: [0.0, 1.0], "5,5": [0.0, 1.0]}
        with pytest.raises(CorruptPolicyError) as err:
            qtable_from_json(data, 2, 4, 2)
        assert err.value.key == key
        assert str(err.value) == f"corrupt policy: key {key!r}: {problem}"


class TestGreedyRule:
    """Training and evaluation take a row's first maximum; an unseen row
    takes action 0."""

    def test_evaluation_takes_the_first_maximum(self):
        monitor = TestEpisodeTermination()._monitor()
        liveness = compile_cosafe(parse("F p0", TENV), TENV)
        violation = compile_cosafe(negate(parse("G !(p1 | p2)", TENV)), TENV)
        for row, violates in (([0.0, 1.0, 1.0], True), ([1.0, 1.0, 0.0], False)):
            result = evaluate(
                {(0, monitor.z0): row}, FailingEnv(), monitor, liveness, violation,
                RewardConfig(), episodes=2, episode_length=3, seed=0,
            )
            assert result.metrics.violate_pct == (100.0 if violates else 0.0)
            assert result.metrics.failure_pct == 0.0
        unseen = evaluate(
            {}, FailingEnv(), monitor, liveness, violation, RewardConfig(),
            episodes=2, episode_length=3, seed=0,
        )
        assert unseen.metrics.violate_pct == 0.0 and unseen.metrics.failure_pct == 0.0

    def test_training_rows_are_float_lists(self):
        dfa = compile_cosafe(parse("F p0", T1), T1)
        result = train(ToggleEnv(), dfa, LearnerConfig(episodes=5, episode_length=4),
                       RewardConfig(), seed=1)
        assert result.qtable
        assert all(type(row) is list and all(type(v) is float for v in row)
                   for row in result.qtable.values())


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            LearnerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LearnerConfig(epsilon_start=1.5)
        with pytest.raises(ValueError, match="update_on .*'both'"):
            LearnerConfig(update_on="both")

    BAD = [
        ("epsilon_decay_fraction", 0.0),
        ("epsilon_decay_fraction", -0.5),
        ("epsilon_decay_fraction", float("nan")),
        ("epsilon_decay_fraction", float("inf")),
        ("optimistic_init", float("nan")),
        ("optimistic_init", float("inf")),
        ("optimistic_init", float("-inf")),
    ]

    @pytest.mark.parametrize(("field", "value"), BAD)
    def test_bad_value_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearnerConfig(**{field: value})

    @pytest.mark.parametrize(("field", "value"), BAD)
    def test_bad_value_named_through_config_from_dict(self, field, value):
        from shieldcraft.pipeline import config_from_dict

        with pytest.raises(ValueError, match=field):
            config_from_dict({"learner": {field: value}})
