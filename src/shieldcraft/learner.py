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

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import rewards
from .dfa import Dfa
from .env import POINTING_TOL, SpacecraftEnv
from .rewards import EpisodeEvent, RewardConfig

_TRAIN_STREAM = 2
_EVAL_STREAM = 3

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
            raise ValueError(f"update_on must be 'executed' or 'proposed'")


class Discretizer:
    """Observation binning: the safety partition for (rate, wheel, charge)
    plus coarse pointing-error bins and the two access indicators.

    Bins come from ``bisect_right`` over Python-float edges, which gives
    the bins of ``np.searchsorted(side="right")`` without a numpy call per
    observation.
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

    def __call__(self, observation) -> int:
        err, rate, wheel, charge, sun, target = observation[:6].tolist()
        ri = bisect_right(self._rate_edges, rate)
        wi = bisect_right(self._wheel_edges, wheel)
        ci = bisect_right(self._charge_edges, charge)
        pi = bisect_right(self.pointing_edges, err)
        _, nw, nc, np_, _, _ = self._dims
        idx = ((ri * nw + wi) * nc + ci) * np_ + pi
        return (idx * 2 + int(sun)) * 2 + int(target)


@dataclass
class StepOutcome:
    obs_index: int
    labels: int
    failed: bool = False
    observation: np.ndarray | None = None
    coords: tuple | None = None


class SpacecraftSession:
    """Adapter presenting a SpacecraftEnv as a discrete learning session."""

    def __init__(self, env: SpacecraftEnv, discretizer: Discretizer):
        self.env = env
        self.discretizer = discretizer
        self.n_actions = len(env.action_names)

    def _outcome(self, obs, labels, failed=False) -> StepOutcome:
        return StepOutcome(
            obs_index=self.discretizer(obs),
            labels=labels,
            failed=failed,
            observation=obs,
            coords=self.env.coords(),
        )

    def reset(self, rng) -> StepOutcome:
        obs, labels = self.env.reset(rng)
        return self._outcome(obs, labels)

    def step(self, action: int, rng) -> StepOutcome:
        obs, labels, failed = self.env.step(action, rng)
        return self._outcome(obs, labels, failed)


def _q_row(q: dict, key, init_row: list) -> list:
    row = q.get(key)
    if row is None:
        row = q[key] = init_row.copy()
    return row


def _argmax(row: list) -> int:
    """Index of the first maximum, as ``np.argmax`` picks it."""
    return row.index(max(row))


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
    """
    q = {}  # key -> list of action values; arrays only in the result
    n_actions = session.n_actions
    init_row = [float(cfg.optimistic_init)] * n_actions
    advance = rewards.advance_table(monitor, reward_cfg)
    sink = EpisodeEvent.SINK_TERMINATE
    credit_proposed = cfg.update_on == "proposed"
    alpha = cfg.alpha
    log = []
    denom = max(1.0, cfg.episodes * cfg.epsilon_decay_fraction)
    for ep in range(cfg.episodes):
        rng = np.random.default_rng([seed, _TRAIN_STREAM, ep])
        anneal = min(1.0, ep / denom)
        epsilon = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * anneal
        out = session.reset(rng)
        init = advance[monitor.z0][out.labels]
        z = init.z_next
        reward_steps = [init.step]
        terminal_event = "horizon"
        if shield_runtime is not None:
            shield_runtime.reset(out.labels)
        if init.step.event is sink:
            terminal_event = "sink"
        else:
            obs_idx = out.obs_index
            coords = out.coords
            for _t in range(cfg.episode_length):
                if rng.random() < epsilon:
                    proposed = int(rng.integers(n_actions))
                else:
                    proposed = _argmax(_q_row(q, (obs_idx, z), init_row))
                if shield_runtime is not None:
                    executed = shield_runtime.filter(coords, proposed).action
                else:
                    executed = proposed
                out = session.step(executed, rng)
                adv = advance[z][out.labels]
                step = adv.step
                reward_steps.append(step)
                terminal = step.event is sink or out.failed
                target = step.reward
                if not terminal:
                    nxt = _q_row(q, (out.obs_index, adv.z_next), init_row)
                    target += step.discount * max(nxt)
                update_action = proposed if credit_proposed else executed
                row = _q_row(q, (obs_idx, z), init_row)
                row[update_action] += alpha * (target - row[update_action])
                if shield_runtime is not None:
                    shield_runtime.update(out.labels)
                z = adv.z_next
                obs_idx = out.obs_index
                coords = out.coords
                if terminal:
                    terminal_event = "sink" if step.event is sink else "failure"
                    break
        value = rewards.cumulative_value(reward_steps)
        log.append((ep, value, terminal_event))
    values = [v for _ep, v, _event in log]
    tail = values[-max(1, len(values) // 4):]
    return TrainResult(
        qtable={key: np.array(row, dtype=float) for key, row in q.items()},
        episode_log=log,
        avg_vf=sum(values) / len(values),
        settled_avg_vf=sum(tail) / len(tail),
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
    """
    advance = rewards.advance_table(monitor, reward_cfg)
    delta_l = dfa_liveness.delta.tolist()
    delta_v = dfa_violation.delta.tolist()
    accept_l = dfa_liveness.accepting
    accept_v = dfa_violation.accepting
    greedy = {}  # key -> greedy action; the Q-table is fixed here
    records = []
    trajectories = []
    for ep in range(episodes):
        rng = np.random.default_rng([seed, _EVAL_STREAM, ep])
        out = session.reset(rng)
        adv0 = advance[monitor.z0][out.labels]
        z = adv0.z_next
        reward_steps = [adv0.step]
        zl = delta_l[dfa_liveness.z0][out.labels]
        zv = delta_v[dfa_violation.z0][out.labels]
        first_sat = 0 if zl in accept_l else None
        first_viol = 0 if zv in accept_v else None
        if shield_runtime is not None:
            shield_runtime.reset(out.labels)
        interventions = 0
        failed = False
        steps = 0
        trajectory = None
        if ep < record_trajectories:
            trajectory = [_trajectory_row(0, None, out, adv0.step.reward, z, False)]
        obs_idx = out.obs_index
        coords = out.coords
        for t in range(episode_length):
            key = (obs_idx, z)
            proposed = greedy.get(key)
            if proposed is None:
                proposed = greedy[key] = _greedy(qtable, key)
            intervened = False
            executed = proposed
            if shield_runtime is not None:
                decision = shield_runtime.filter(coords, proposed)
                executed = decision.action
                intervened = decision.intervened
                interventions += int(intervened)
            out = session.step(executed, rng)
            steps = t + 1
            labels = out.labels
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
            obs_idx = out.obs_index
            coords = out.coords
            if trajectory is not None:
                trajectory.append(
                    _trajectory_row(steps, executed, out, adv.step.reward, z, intervened)
                )
            if out.failed:
                failed = True
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


def _trajectory_row(step, mode, out: StepOutcome, reward, z, intervened):
    obs = out.observation
    return {
        "step": step,
        "mode": mode,
        "observation": None if obs is None else [float(x) for x in obs],
        "labels": out.labels,
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
