"""Tabular Q-learning over (discretized observation, monitor state).

The learner state couples a discrete observation index with the state of
the specification monitor, which makes the optimal policy stationary on
the pair even though it is history dependent on the raw environment. The
Q-update uses the monitor's per-transition discount, never a global
constant. An optional shield filters each action before execution; no
reward is attached to an intervention.

Episode semantics: accept-reset keeps the episode running after each
acceptance; a monitor sink (training) and spacecraft failure (always)
terminate; evaluation runs the full horizon through safety violations,
ending early only on failure.

A Q-table row is a list of action values, from training through the policy
file to evaluation. The greedy action of a row is its first maximum,
``row.index(max(row))``, in training and in evaluation; an unseen row's is
action 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rewards
from .dfa import Dfa
# perfbench/probe.py imports `Discretizer` from this module
from .env import RESET_DRAWS, Discretizer, EpisodeDraws  # noqa: F401
from .rewards import EpisodeEvent, RewardConfig

_TRAIN_STREAM = 2
_EVAL_STREAM = 3
# values drawn per step: training's epsilon draw, exploration action (half
# an output or less) and three noise deviates; evaluation's noise alone
_TRAIN_STEP_DRAWS = 5
_EVAL_STEP_DRAWS = 3

QTable = dict  # (obs_index, monitor_state) -> list of action values


@dataclass(frozen=True)
class LearnerConfig:
    alpha: float = 0.1
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    episodes: int = 5000
    episode_length: int = 100
    update_on: str = "executed"  # or "proposed": credit the agent's choice
    # fraction of episodes over which epsilon anneals; it holds at
    # epsilon_end afterwards
    epsilon_decay_fraction: float = 1.0
    # starting value for newly seen state rows; safe to raise above zero
    # only when a shield filters execution
    optimistic_init: float = 0.0

    def __post_init__(self):
        if self.episodes < 1 or self.episode_length < 1:
            raise ValueError("episodes and episode_length must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        for name in ("epsilon_start", "epsilon_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.update_on not in ("executed", "proposed"):
            raise ValueError(f"update_on must be 'executed' or 'proposed', got {self.update_on!r}")
        f = self.epsilon_decay_fraction
        if not (math.isfinite(f) and f > 0.0):
            raise ValueError(f"epsilon_decay_fraction must be finite and > 0, got {f!r}")
        if not math.isfinite(self.optimistic_init):
            raise ValueError(f"optimistic_init must be finite, got {self.optimistic_init!r}")


def _q_row(q: dict, key, init_row: list) -> list:
    row = q.get(key)
    if row is None:
        row = q[key] = init_row.copy()
    return row


@dataclass
class TrainResult:
    qtable: QTable
    episode_log: list  # (episode, value, terminal_event)
    avg_vf: float
    # mean over the final quarter of episodes, past the exploration
    # burn-in; this is the value reported next to deployment metrics
    settled_avg_vf: float
    steps: int  # env steps taken over all episodes


def train(
    env,
    monitor: Dfa,
    cfg: LearnerConfig,
    reward_cfg: RewardConfig,
    seed: int = 0,
    shield_runtime=None,
) -> TrainResult:
    """Q-learn against the monitored specification.

    The executed action is the shield-corrected one when a shield runtime
    is supplied; `cfg.update_on` chooses whether the update credits the
    executed or the proposed action.

    Each episode reads one `EpisodeDraws` of stream ``(seed, 2, episode)``:
    the env's reset, then per step the epsilon draw, the exploration
    action when it explores, and the env step's noise, in that order,
    as the `Generator` calls ``random()``, ``integers(n_actions)`` and
    ``random(3)`` would draw them. ``env.step(action, draws)`` is called
    once per env step.
    """
    q = {}
    n_actions = env.n_actions
    init_row = [float(cfg.optimistic_init)] * n_actions
    advance = rewards.advance_table(monitor, reward_cfg)
    sink = EpisodeEvent.SINK_TERMINATE
    credit_proposed = cfg.update_on == "proposed"
    alpha = cfg.alpha
    log = []
    total_steps = 0
    block = RESET_DRAWS + _TRAIN_STEP_DRAWS * cfg.episode_length
    denom = max(1.0, cfg.episodes * cfg.epsilon_decay_fraction)
    for ep in range(cfg.episodes):
        draws = EpisodeDraws([seed, _TRAIN_STREAM, ep], block)
        anneal = min(1.0, ep / denom)
        epsilon = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * anneal
        obs_idx, cell, labels, _failed = env.reset(draws)
        init = advance[monitor.z0][labels]
        z = init.z_next
        reward_steps = [init.step]
        terminal_event = "horizon"
        if shield_runtime is not None:
            shield_runtime.reset(labels)
        if init.step.event is sink:
            terminal_event = "sink"
        else:
            # the row of (obs_idx, z); each step's successor row is the
            # next step's row
            row = _q_row(q, (obs_idx, z), init_row)
            for t in range(cfg.episode_length):
                if draws.random() < epsilon:
                    proposed = draws.integers(n_actions)
                else:
                    proposed = row.index(max(row))
                if shield_runtime is not None:
                    executed = shield_runtime.filter(cell, proposed).action
                else:
                    executed = proposed
                obs_idx, cell, labels, failed = env.step(executed, draws)
                adv = advance[z][labels]
                step = adv.step
                reward_steps.append(step)
                z = adv.z_next
                terminal = step.event is sink or failed
                target = step.reward
                if not terminal:
                    nxt = _q_row(q, (obs_idx, z), init_row)
                    target += step.discount * max(nxt)
                update_action = proposed if credit_proposed else executed
                row[update_action] += alpha * (target - row[update_action])
                if shield_runtime is not None:
                    shield_runtime.update(labels)
                if terminal:
                    terminal_event = "sink" if step.event is sink else "failure"
                    break
                row = nxt
            total_steps += t + 1
        value = rewards.cumulative_value(reward_steps)
        log.append((ep, value, terminal_event))
    values = [v for _ep, v, _event in log]
    tail = values[-max(1, len(values) // 4):]
    return TrainResult(
        qtable=q,
        episode_log=log,
        avg_vf=sum(values) / len(values),
        settled_avg_vf=sum(tail) / len(tail),
        steps=total_steps,
    )


@dataclass(frozen=True)
class Metrics:
    # metrics.csv's columns after the row's, in this order
    sat_pct: float
    violate_pct: float
    failure_pct: float
    interventions_sat: float
    interventions_unsat: float
    interventions_mean: float
    eval_mean_vf: float
    episodes: int


@dataclass
class EpisodeRecord:
    episode: int
    satisfied_liveness: bool
    first_liveness: int | None
    violated_safety: bool
    first_violation: int | None
    failed: bool
    interventions: int
    value: float
    steps: int


@dataclass
class EvalResult:
    metrics: Metrics
    episodes: list
    trajectories: list


def evaluate(
    qtable: QTable,
    env,
    monitor: Dfa,
    dfa_liveness: Dfa,
    dfa_violation: Dfa,
    reward_cfg: RewardConfig,
    episodes: int = 1000,
    episode_length: int = 100,
    seed: int = 0,
    shield_runtime=None,
    record_trajectories: int = 0,
) -> EvalResult:
    """Greedy rollouts with ground-truth trace checking.

    Liveness satisfaction is first-accept on the liveness DFA; safety
    violation is first-accept on the violation DFA; failure is domain
    exit. The policy's own monitor keeps running (with accept-reset) so
    Q lookups stay on-distribution.

    Each episode reads one `EpisodeDraws` of stream ``(seed, 3, episode)``:
    the env's reset, then each step's noise; its first block covers the
    whole horizon. ``env.step(action, draws)`` is called once per env step.
    """
    advance = rewards.advance_table(monitor, reward_cfg)
    delta_l = dfa_liveness.delta.tolist()
    delta_v = dfa_violation.delta.tolist()
    accept_l = dfa_liveness.accepting
    accept_v = dfa_violation.accepting
    greedy = {}  # key -> greedy action; the Q-table is fixed here
    records = []
    trajectories = []
    block = RESET_DRAWS + _EVAL_STEP_DRAWS * episode_length
    for ep in range(episodes):
        draws = EpisodeDraws([seed, _EVAL_STREAM, ep], block)
        obs_idx, cell, labels, _failed = env.reset(draws)
        adv0 = advance[monitor.z0][labels]
        z = adv0.z_next
        reward_steps = [adv0.step]
        zl = delta_l[dfa_liveness.z0][labels]
        zv = delta_v[dfa_violation.z0][labels]
        first_sat = 0 if zl in accept_l else None
        first_viol = 0 if zv in accept_v else None
        if shield_runtime is not None:
            shield_runtime.reset(labels)
        interventions = 0
        failed = False
        steps = 0
        trajectory = None
        if ep < record_trajectories:
            trajectory = [
                _trajectory_row(0, None, env.observation(), labels, adv0.step.reward, z, False)
            ]
        for t in range(episode_length):
            key = (obs_idx, z)
            proposed = greedy.get(key)
            if proposed is None:
                row = qtable.get(key)
                proposed = greedy[key] = 0 if row is None else row.index(max(row))
            intervened = False
            executed = proposed
            if shield_runtime is not None:
                decision = shield_runtime.filter(cell, proposed)
                executed = decision.action
                intervened = decision.intervened
                interventions += int(intervened)
            obs_idx, cell, labels, failed = env.step(executed, draws)
            steps = t + 1
            adv = advance[z][labels]
            reward_steps.append(adv.step)
            zl = delta_l[zl][labels]
            zv = delta_v[zv][labels]
            if first_sat is None and zl in accept_l:
                first_sat = steps
            if first_viol is None and zv in accept_v:
                first_viol = steps
            if shield_runtime is not None:
                shield_runtime.update(labels)
            z = adv.z_next
            if trajectory is not None:
                trajectory.append(_trajectory_row(
                    steps, executed, env.observation(), labels, adv.step.reward, z,
                    intervened,
                ))
            if failed:
                break
        records.append(
            EpisodeRecord(
                episode=ep,
                satisfied_liveness=first_sat is not None,
                first_liveness=first_sat,
                violated_safety=first_viol is not None,
                first_violation=first_viol,
                failed=failed,
                interventions=interventions,
                value=rewards.cumulative_value(reward_steps),
                steps=steps,
            )
        )
        if trajectory is not None:
            trajectories.append(trajectory)
    return EvalResult(
        metrics=_aggregate(records), episodes=records, trajectories=trajectories
    )


def _trajectory_row(step, mode, obs: list[float], labels, reward, z, intervened):
    return {
        "step": step,
        "mode": mode,
        "observation": obs,
        "labels": labels,
        "reward": reward,
        "dfa_state": z,
        "intervened": bool(intervened),
    }


def _aggregate(records) -> Metrics:
    n = len(records)
    if n == 0:
        raise ValueError("no episodes to aggregate")
    sat = [r for r in records if r.satisfied_liveness]
    unsat = [r for r in records if not r.satisfied_liveness]

    def mean_interventions(group):
        if not group:
            return float("nan")
        return sum(r.interventions for r in group) / len(group)

    return Metrics(
        sat_pct=100.0 * len(sat) / n,
        violate_pct=100.0 * sum(r.violated_safety for r in records) / n,
        failure_pct=100.0 * sum(r.failed for r in records) / n,
        interventions_sat=mean_interventions(sat),
        interventions_unsat=mean_interventions(unsat),
        interventions_mean=sum(r.interventions for r in records) / n,
        eval_mean_vf=sum(r.value for r in records) / n,
        episodes=n,
    )


# --- policy serialization ---------------------------------------------------


def qtable_to_json(q: QTable) -> dict:
    """The policy file's dict: ``"<obs_index>,<monitor_state>"`` keys in
    sorted order, each holding its row (the same list, not a copy)."""
    return {f"{obs},{z}": row for (obs, z), row in sorted(q.items())}


class CorruptPolicyError(ValueError):
    """A policy read from JSON whose key or row evaluation would misread."""

    def __init__(self, key, problem: str):
        where = "" if key is None else f"key {key!r}: "
        super().__init__(f"corrupt policy: {where}{problem}")
        self.key = key


def qtable_from_json(data: dict, n_actions: int, n_observations: int,
                     n_monitor_states: int) -> QTable:
    """The Q-table of a `qtable_to_json` dict for ``n_actions`` actions,
    ``n_observations`` observation indices and ``n_monitor_states`` monitor
    states; raises `CorruptPolicyError` naming the first key that is not
    ``"<int>,<int>"`` as `qtable_to_json` writes it or lies outside those
    counts, or whose row is not a list of ``n_actions`` finite numbers. A
    NaN, a row of another length or a key of another partition or monitor
    would change the greedy action silently or pick one the env lacks."""
    if not isinstance(data, dict):
        raise CorruptPolicyError(None, "the policy is not a JSON object")
    q: QTable = {}
    for key, values in data.items():
        obs, _, z = key.partition(",")
        if not (obs.isdecimal() and z.isdecimal() and key == f"{int(obs)},{int(z)}"):
            raise CorruptPolicyError(key, "not '<obs_index>,<monitor_state>'")
        obs, z = int(obs), int(z)
        if obs >= n_observations:
            raise CorruptPolicyError(
                key, f"observation index {obs} is outside the {n_observations} of this run")
        if z >= n_monitor_states:
            raise CorruptPolicyError(
                key, f"monitor state {z} is outside the {n_monitor_states} of this run")
        if not (isinstance(values, list) and values
                and all(type(v) in (int, float) for v in values)):
            raise CorruptPolicyError(key, "not a non-empty list of numbers")
        if len(values) != n_actions:
            raise CorruptPolicyError(key, f"a row of {len(values)} values, not {n_actions}")
        try:
            row = [float(v) for v in values]
            finite = all(map(math.isfinite, row))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise CorruptPolicyError(key, "a value is not finite")
        q[(obs, z)] = row
    return q
