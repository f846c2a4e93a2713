"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with -s to see them inline).

The heavy end-to-end criteria share the session-scoped pipeline fixtures
from conftest, so the simple and complex experiment matrices each run
once per session at the default seed.
"""

import json
import time

import numpy as np
from scipy import stats

from oracles import (
    dfa_accepts_matrix,
    min_reach_paths,
    min_reach_within,
    random_cosafe_formula,
    sat_matrix,
    trace_matrix,
)
from shieldcraft.abstraction import AbstractionConfig, PartitionSpec, estimate_transitions, make_partition
from shieldcraft.dfa import compile_cosafe, monitor_product
from shieldcraft.env import proposition_table
from shieldcraft.ltl import PropositionTable, negate, parse
from shieldcraft.rewards import EpisodeEvent, RewardConfig, RewardStep, cumulative_value, step_reward
from shieldcraft.shields import ShieldConfig, one_step, q_optimal, two_step

from test_abstraction import TeleportEnv
from test_shields import brute_force_allowed, brute_force_two_step_unsafe, random_product

T3 = PropositionTable(("p0", "p1", "p2"))
TENV = proposition_table()


def test_criterion_1_dfa_language_correctness():
    """Compiled DFAs agree with brute-force finite-trace satisfaction on
    every trace of length <= 5 for a 200-formula co-safe corpus."""
    started = time.time()
    rng = np.random.default_rng(2024)
    corpus = [
        parse("F p0", T3),
        parse("F (p1 | p2)", T3),
        parse("F (p0 & X F (p1 & X F p2))", T3),
        parse("(!p1) U p0", T3),
    ]
    while len(corpus) < 200:
        corpus.append(random_cosafe_formula(rng, depth=4, n_atoms=3))
    matrices = {length: trace_matrix(3, length) for length in range(1, 6)}
    checked = 0
    for formula in corpus:
        dfa = compile_cosafe(formula, T3)
        for traces in matrices.values():
            expect = sat_matrix(formula, traces)
            got = dfa_accepts_matrix(dfa, traces)
            assert np.array_equal(expect, got), formula.key
            checked += traces.shape[0]
    elapsed = time.time() - started
    assert elapsed < 60.0

    simple = compile_cosafe(parse("F p0", TENV), TENV)
    assert simple.n_states == 2
    liveness = compile_cosafe(
        parse("F (p3 & X F (p4 & X F (p3 & X F (p4 & X F p3))))", TENV), TENV
    )
    violation = compile_cosafe(negate(parse("G !(p1 | p2)", TENV)), TENV)
    monitor = monitor_product(liveness, violation)
    print(
        f"\ncriterion 1 PASS: {len(corpus)} formulas x {checked // len(corpus)} traces, "
        f"100% agreement in {elapsed:.1f}s; simple-liveness DFA has 2 states; "
        f"combined training monitor has {monitor.n_states} states "
        f"(reference count: 7)"
    )


def test_criterion_2_shield_oracle_equivalence():
    """One/two-step allowed sets match exhaustive enumeration exactly on
    1000 random products; q-optimal backups match enumeration-based
    reachability at horizon <= 5 within 1e-10."""
    started = time.time()
    rng = np.random.default_rng(77)
    worst_q = 0.0
    for i in range(1000):
        pm = random_product(rng)
        p = float(rng.uniform(0.02, 0.45))
        s1 = one_step(pm, ShieldConfig(threshold=p, kind="one"))
        assert list(s1.allowed) == brute_force_allowed(pm, pm.final_states, p)
        s2 = two_step(pm, ShieldConfig(threshold=p, kind="two"))
        unsafe = brute_force_two_step_unsafe(pm, p)
        assert s2.unsafe_states == frozenset(unsafe)
        assert list(s2.allowed) == brute_force_allowed(pm, unsafe, p)
        horizon = int(rng.integers(1, 6))
        sq = q_optimal(pm, ShieldConfig(threshold=p, kind="q", horizon=horizon))
        for s in range(pm.n_states):
            for a in range(pm.n_actions):
                expect = sum(
                    prob * min_reach_within(pm, t, horizon - 1)
                    for t, prob in pm.rows[(s, a)]
                )
                worst_q = max(worst_q, abs(sq.scores[s][a] - expect))
        if i < 25:
            # cross-check the memoized recursion against raw path
            # enumeration on small instances
            for s in range(pm.n_states):
                assert abs(
                    min_reach_within(pm, s, 3) - min_reach_paths(pm, s, 3)
                ) <= 1e-12
    assert worst_q <= 1e-10
    elapsed = time.time() - started
    assert elapsed < 120.0
    print(
        f"\ncriterion 2 PASS: 1000 instances, allowed sets exact, "
        f"max q-backup deviation {worst_q:.2e} in {elapsed:.1f}s"
    )


def test_criterion_3_shield_structural_properties():
    """Nesting, fixed-point convergence, threshold monotonicity and the
    strict per-action unsafe-mass bound across the random suite."""
    rng = np.random.default_rng(88)
    for _ in range(300):
        pm = random_product(rng)
        p_lo, p_hi = sorted(
            (float(rng.uniform(0.02, 0.45)), float(rng.uniform(0.02, 0.45)))
        )
        shields = {}
        for p in (p_lo, p_hi):
            s1 = one_step(pm, ShieldConfig(threshold=p, kind="one"))
            s2 = two_step(pm, ShieldConfig(threshold=p, kind="two"))
            sq = q_optimal(pm, ShieldConfig(threshold=p, kind="q", horizon=3))
            shields[p] = (s1, s2, sq)
            # two-step allowed sets nest inside one-step
            for a1, a2 in zip(s1.allowed, s2.allowed):
                assert set(a2) <= set(a1)
            # strict threshold bound on every allowed action
            for s in range(pm.n_states):
                for a in s1.allowed[s]:
                    mass = sum(pr for t, pr in pm.rows[(s, a)] if t in pm.final_states)
                    assert mass < p
                for a in s2.allowed[s]:
                    mass = sum(pr for t, pr in pm.rows[(s, a)] if t in s2.unsafe_states)
                    assert mass < p
                for a in sq.allowed[s]:
                    assert sq.scores[s][a] < p
        # monotonicity in the threshold for all three designs
        for lo, hi in zip(shields[p_lo], shields[p_hi]):
            for a_lo, a_hi in zip(lo.allowed, hi.allowed):
                assert set(a_lo) <= set(a_hi)
    print("\ncriterion 3 PASS: nesting, fixed point, monotonicity and strict "
          "threshold bound hold on 300 instances x 2 thresholds")


def test_criterion_4_abstraction_estimator():
    """At 10,000 samples per (cell, action) the estimated kernel is within
    +-0.02 of the analytic one for >= 95% of entries; rows are exact count
    ratios; output is bit-identical across reruns."""
    started = time.time()
    spec = PartitionSpec(
        attitude_rate_edges=(0.0, 0.01),
        wheel_edges=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        charge_edges=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    )
    partition = make_partition(spec)
    m = partition.n_cells
    rng = np.random.default_rng(4242)
    kernel = rng.dirichlet(np.ones(m + 1), size=(m, 1))
    env = TeleportEnv(partition, kernel)
    n = 10_000
    cfg = AbstractionConfig(samples_per_cell=n, seed=9)
    mdp = estimate_transitions(env, partition, cfg)

    errors = []
    for q in range(m):
        est = np.zeros(m + 1)
        counts = 0
        for target, p in mdp.rows[(q, 0)]:
            est[target] = p
            counts += round(p * n)
        assert counts == n  # exactly stochastic by construction
        errors.extend(np.abs(est - kernel[q, 0]))
    errors = np.asarray(errors)
    frac = (errors <= 0.02).mean()
    assert frac >= 0.95

    rerun = estimate_transitions(env, partition, cfg)
    assert json.dumps(mdp.to_json()) == json.dumps(rerun.to_json())
    elapsed = time.time() - started
    assert elapsed < 120.0
    print(
        f"\ncriterion 4 PASS: {len(errors)} entries, {frac * 100:.1f}% within "
        f"+-0.02 (max err {errors.max():.4f}); rerun bit-identical; "
        f"{elapsed:.1f}s"
    )


def test_criterion_5_reward_machine_values():
    """Hand-computed returns match to 1e-12; sink termination applies -1;
    episodes with at most one accept never exceed a return of 1."""
    cfg = RewardConfig()
    single = [RewardStep(1 - cfg.gamma_final, cfg.gamma_final, EpisodeEvent.ACCEPT_RESET)]
    assert abs(cumulative_value(single) - 0.1) <= 1e-12
    double = [
        RewardStep(1 - cfg.gamma_final, cfg.gamma_final, EpisodeEvent.ACCEPT_RESET),
        RewardStep(0.0, cfg.gamma, EpisodeEvent.NONE),
        RewardStep(1 - cfg.gamma_final, cfg.gamma_final, EpisodeEvent.ACCEPT_RESET),
    ]
    assert abs(cumulative_value(double) - (0.1 + 0.9 * 0.99 * 0.1)) <= 1e-12

    liveness = compile_cosafe(parse("F p0", TENV), TENV)
    violation = compile_cosafe(negate(parse("G !(p1 | p2)", TENV)), TENV)
    monitor = monitor_product(liveness, violation)
    (sink,) = monitor.sinks
    sink_step = step_reward(monitor.z0, sink, monitor, cfg)
    assert sink_step.reward == -1.0
    assert sink_step.event is EpisodeEvent.SINK_TERMINATE

    rng = np.random.default_rng(55)
    worst = -np.inf
    for _ in range(5000):
        steps = []
        for _k in range(int(rng.integers(0, 60))):
            kind = rng.random()
            if kind < 0.5:
                steps.append(RewardStep(0.0, cfg.gamma, EpisodeEvent.NONE))
            else:
                steps.append(
                    RewardStep(1 - cfg.gamma_transition, cfg.gamma_transition, EpisodeEvent.NONE)
                )
        if rng.random() < 0.7:
            steps.insert(
                int(rng.integers(0, len(steps) + 1)),
                RewardStep(1 - cfg.gamma_final, cfg.gamma_final, EpisodeEvent.ACCEPT_RESET),
            )
        value = cumulative_value(steps)
        worst = max(worst, value)
        assert value <= 1.0 + 1e-12
    print(
        f"\ncriterion 5 PASS: hand values match to 1e-12, sink pays -1 and "
        f"terminates, max single-accept return observed {worst:.6f} <= 1"
    )


def _row(rows, shield, inloop, spec):
    for r in rows:
        if (
            r.spec.shield == shield
            and r.spec.trained_with_shield == inloop
            and r.spec.train_spec == spec
        ):
            return r
    raise KeyError((shield, inloop, spec))


def test_criterion_6_simple_task_trend(simple_run):
    """Training with the safety conjunct strictly reduces both the
    violation and the failure rate while keeping satisfaction >= 90%."""
    rows = simple_run.rows
    only = _row(rows, "none", False, "liveness_only").metrics
    both = _row(rows, "none", False, "liveness_and_safety").metrics
    assert only.episodes == both.episodes == 1000
    assert both.violate_pct < only.violate_pct
    assert both.failure_pct < only.failure_pct
    assert only.sat_pct >= 90.0 and both.sat_pct >= 90.0
    elapsed = json.loads((simple_run.out_dir / "run_info.json").read_text())["elapsed_s"]
    assert elapsed < 600.0
    print(
        f"\ncriterion 6 PASS: violations {only.violate_pct:.1f}% -> "
        f"{both.violate_pct:.1f}%, failures {only.failure_pct:.1f}% -> "
        f"{both.failure_pct:.1f}%, satisfaction {only.sat_pct:.1f}%/"
        f"{both.sat_pct:.1f}%; pipeline {elapsed:.0f}s"
    )


def _pooled_interventions(run, predicate):
    sat_total = sat_count = unsat_total = unsat_count = 0
    for row in run.rows:
        if not predicate(row.spec):
            continue
        path = run.out_dir / f"episodes_{row.spec.row_id}.jsonl"
        for line in path.read_text().strip().split("\n"):
            record = json.loads(line)
            if record["satisfied_liveness"]:
                sat_total += record["interventions"]
                sat_count += 1
            else:
                unsat_total += record["interventions"]
                unsat_count += 1
    return sat_total / max(1, sat_count), unsat_total / max(1, unsat_count)


def test_criterion_7_complex_task_trends(complex_run):
    """Shielded deployments never fail and violate below the threshold;
    safety-aware training needs fewer interventions; interventions pile up
    on unsatisfied episodes; in-loop training leans on the shield."""
    rows = complex_run.rows
    shielded = [r for r in rows if r.spec.shield != "none"]
    assert shielded

    # (a) zero failures and violation rate under the threshold
    for r in shielded:
        assert r.metrics.failure_pct == 0.0, r.spec.row_id
        assert r.metrics.violate_pct < 5.0, r.spec.row_id

    # (b) fewer interventions for safety-aware training, same shield
    for kind in ("one", "two", "q"):
        lone = _row(rows, kind, False, "liveness_only").metrics
        both = _row(rows, kind, False, "liveness_and_safety").metrics
        assert both.interventions_mean < lone.interventions_mean, kind

    # (c) interventions concentrate on non-satisfying episodes (pooled)
    sat_mean, unsat_mean = _pooled_interventions(
        complex_run, lambda spec: spec.shield != "none"
    )
    assert unsat_mean > sat_mean

    # (d) shield-in-the-loop training yields more deployment interventions
    for kind in ("one", "two", "q"):
        for spec in ("liveness_only", "liveness_and_safety"):
            inloop = _row(rows, kind, True, spec).metrics
            plain = _row(rows, kind, False, spec).metrics
            assert inloop.interventions_mean > plain.interventions_mean, (kind, spec)

    elapsed = json.loads((complex_run.out_dir / "run_info.json").read_text())["elapsed_s"]
    assert elapsed < 1800.0
    kinds_b = {
        kind: (
            _row(rows, kind, False, "liveness_and_safety").metrics.interventions_mean,
            _row(rows, kind, False, "liveness_only").metrics.interventions_mean,
            _row(rows, kind, True, "liveness_only").metrics.interventions_mean,
        )
        for kind in ("one", "two", "q")
    }
    print(
        f"\ncriterion 7 PASS: all shielded rows fail=0% and violate<5%; "
        f"interventions (safety-trained < liveness-trained < in-loop): "
        + "; ".join(
            f"{k}: {a:.1f} < {b:.1f} < {c:.1f}" for k, (a, b, c) in kinds_b.items()
        )
        + f"; pooled unsat {unsat_mean:.1f} > sat {sat_mean:.1f}; pipeline {elapsed:.0f}s"
    )


def test_criterion_8_reward_satisfaction_correlation(complex_run):
    """Positive Spearman correlation between the reported training value
    and the deployed satisfaction rate across the policy matrix."""
    rows = complex_run.rows
    values = [r.train_avg_vf for r in rows]
    sats = [r.metrics.sat_pct for r in rows]
    rho, p = stats.spearmanr(values, sats)
    assert rho > 0.0
    print(f"\ncriterion 8 PASS: Spearman rho {rho:.3f} (p={p:.4f}) over {len(rows)} rows")
