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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import rewards
from .dfa import Dfa
from .env import (
    POINTING_TOL,
    RESET_DRAWS,
    EpisodeDraws,
    SpacecraftEnv,
    SpacecraftState,
    is_failure,
    observation,
)
from .rewards import EpisodeEvent, RewardConfig

_TRAIN_STREAM = 2
_EVAL_STREAM = 3
# values drawn per step: training's epsilon draw, exploration action (half
# an output or less) and three noise deviates; evaluation's noise alone
_TRAIN_STEP_DRAWS = 5
_EVAL_STEP_DRAWS = 3

QTable = dict  # (obs_index, monitor_state) -> np.ndarray of action values


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


class Discretizer:
    """Observation binning: the safety partition for (rate, wheel, charge)
    plus coarse pointing-error bins and the two access indicators.

    Bins come from ``bisect_right`` over Python-float edges, which gives
    the bins of ``np.searchsorted(side="right")`` without a numpy call per
    step. The same bins give the shield's partition cell.
    """

    def __init__(self, partition, pointing_edges=(POINTING_TOL, 0.04)):
        self.partition = partition
        self.pointing_edges = tuple(float(e) for e in pointing_edges)
        self._rate_edges, self._wheel_edges, self._charge_edges = partition.interior_edges
        self._dims = (
            len(self._rate_edges) + 1,
            len(self._wheel_edges) + 1,
            len(self._charge_edges) + 1,
            len(self.pointing_edges) + 1,
            2,
            2,
        )

    @property
    def capacity(self) -> int:
        return int(np.prod(self._dims))

    def __call__(self, state: SpacecraftState, failed: bool) -> tuple[int, int]:
        """(observation index, partition cell) of a state; the cell is -1
        when ``failed`` (the state left the safe domain)."""
        ri = bisect_right(self._rate_edges, state.attitude_rate)
        wi = bisect_right(self._wheel_edges, state.wheel_speed)
        ci = bisect_right(self._charge_edges, state.charge)
        pi = bisect_right(self.pointing_edges, state.pointing_error)
        _, nw, nc, np_, _, _ = self._dims
        cell = (ri * nw + wi) * nc + ci
        idx = (cell * np_ + pi) * 2 + state.sun
        return idx * 2 + state.target, -1 if failed else cell


# What the learner reads after a reset or a step: (obs_index, cell, labels,
# failed), where cell is the shield's partition cell, -1 on domain exit.
StepOutcome = tuple[int, int, int, bool]


class SpacecraftSession:
    """Adapter presenting a SpacecraftEnv as a discrete learning session."""

    def __init__(self, env: SpacecraftEnv, discretizer: Discretizer):
        self.env = env
        self.discretizer = discretizer
        self.n_actions = len(env.action_names)

    def reset(self, draws: EpisodeDraws) -> StepOutcome:
        labels = self.env.reset(draws)
        st = self.env.state
        failed = is_failure(st.attitude_rate, st.wheel_speed, st.charge)
        return (*self.discretizer(st, failed), labels, failed)

    def step(self, action: int, draws: EpisodeDraws) -> StepOutcome:
        labels, failed = self.env.step(action, draws)
        return (*self.discretizer(self.env.state, failed), labels, failed)

    def observation(self) -> list[float]:
        """The current observation vector, for recorded trajectory rows."""
        return observation(self.env.state)


def _q_row(q: dict, key, init_row: list) -> list:
    row = q.get(key)
    if row is None:
        row = q[key] = init_row.copy()
    return row


def _greedy(q: QTable, key) -> int:
    row = q.get(key)
    if row is None:
        return 0
    return int(np.argmax(row))


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
    session,
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
    the session's reset, then per step the epsilon draw, the exploration
    action when it explores, and the session step's noise, in that order,
    as the `Generator` calls ``random()``, ``integers(n_actions)`` and
    ``random(3)`` would draw them. ``session.step(action, draws)`` is called
    once per env step.
    """
    q = {}  # key -> list of action values; arrays only in the result
    n_actions = session.n_actions
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
        obs_idx, cell, labels, _failed = session.reset(draws)
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
                    # the first maximum, as np.argmax picks it
                    proposed = row.index(max(row))
                if shield_runtime is not None:
                    executed = shield_runtime.filter(cell, proposed).action
                else:
                    executed = proposed
                obs_idx, cell, labels, failed = session.step(executed, draws)
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
        qtable={key: np.array(row, dtype=float) for key, row in q.items()},
        episode_log=log,
        avg_vf=sum(values) / len(values),
        settled_avg_vf=sum(tail) / len(tail),
        steps=total_steps,
    )


@dataclass(frozen=True)
class Metrics:
    episodes: int
    avg_vf: float
    sat_pct: float
    violate_pct: float
    failure_pct: float
    interventions_sat: float
    interventions_unsat: float
    interventions_mean: float


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
    session,
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
    the session's reset, then each step's noise; its first block covers the
    whole horizon. ``session.step(action, draws)`` is called once per env
    step.
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
        obs_idx, cell, labels, _failed = session.reset(draws)
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
                _trajectory_row(0, None, session.observation(), labels, adv0.step.reward, z, False)
            ]
        for t in range(episode_length):
            key = (obs_idx, z)
            proposed = greedy.get(key)
            if proposed is None:
                proposed = greedy[key] = _greedy(qtable, key)
            intervened = False
            executed = proposed
            if shield_runtime is not None:
                decision = shield_runtime.filter(cell, proposed)
                executed = decision.action
                intervened = decision.intervened
                interventions += int(intervened)
            obs_idx, cell, labels, failed = session.step(executed, draws)
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
                    steps, executed, session.observation(), labels, adv.step.reward, z,
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
        episodes=n,
        avg_vf=sum(r.value for r in records) / n,
        sat_pct=100.0 * len(sat) / n,
        violate_pct=100.0 * sum(r.violated_safety for r in records) / n,
        failure_pct=100.0 * sum(r.failed for r in records) / n,
        interventions_sat=mean_interventions(sat),
        interventions_unsat=mean_interventions(unsat),
        interventions_mean=sum(r.interventions for r in records) / n,
    )


# --- policy serialization ---------------------------------------------------


def qtable_to_json(q: QTable) -> dict:
    return {
        f"{obs},{z}": [float(v) for v in row] for (obs, z), row in sorted(q.items())
    }


def qtable_from_json(data: dict) -> QTable:
    q: QTable = {}
    for key, values in data.items():
        obs, z = key.split(",")
        q[(int(obs), int(z))] = np.asarray(values, dtype=float)
    return q
