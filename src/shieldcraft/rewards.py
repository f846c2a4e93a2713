"""Automaton-based reward: per-transition reward and discount, cumulative
return, and the accept-reset / sink-terminate episode semantics.

Reaching an accepting DFA state pays ``1 - gamma_final`` and resets the
automaton so the specification can be satisfied again within the episode;
reaching a sink pays -1 and ends the episode. Progress between distinct
non-final states pays a small bonus ``1 - gamma_transition`` (the
``original`` style drops that bonus, leaving reward only on acceptance).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .dfa import Dfa


class EpisodeEvent(Enum):
    NONE = "none"
    ACCEPT_RESET = "accept_reset"
    SINK_TERMINATE = "sink_terminate"


@dataclass(frozen=True)
class RewardConfig:
    gamma: float = 0.99
    gamma_transition: float = 0.95
    gamma_final: float = 0.9
    style: str = "shaped"  # "shaped" or "original" (no bonus on z != z')

    def __post_init__(self):
        for name in ("gamma", "gamma_transition", "gamma_final"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if self.style not in ("shaped", "original"):
            raise ValueError(f"unknown reward style {self.style!r}")


@dataclass(frozen=True)
class RewardStep:
    reward: float
    discount: float
    event: EpisodeEvent


def step_reward(z: int, z_next: int, d: Dfa, cfg: RewardConfig) -> RewardStep:
    """Reward and discount for the DFA transition z -> z_next.

    Case order: accept, then sink, then plain state change, then self-loop.
    The sink discount is gamma_transition (the episode ends there, so it
    only matters for learner bootstrapping consistency).
    """
    if z_next in d.accepting:
        return RewardStep(1.0 - cfg.gamma_final, cfg.gamma_final, EpisodeEvent.ACCEPT_RESET)
    if z_next in d.sinks:
        return RewardStep(-1.0, cfg.gamma_transition, EpisodeEvent.SINK_TERMINATE)
    if z != z_next:
        bonus = 0.0 if cfg.style == "original" else 1.0 - cfg.gamma_transition
        return RewardStep(bonus, cfg.gamma_transition, EpisodeEvent.NONE)
    return RewardStep(0.0, cfg.gamma, EpisodeEvent.NONE)


@dataclass(frozen=True)
class Advance:
    z_next: int
    step: RewardStep


def advance(z: int, symbol: int, d: Dfa, cfg: RewardConfig) -> Advance:
    """One monitored step: consume a symbol, compute the reward, apply
    accept-reset. On SINK_TERMINATE the caller must end the episode."""
    z_raw = d.step(z, symbol)
    step = step_reward(z, z_raw, d, cfg)
    z_next = d.z0 if step.event is EpisodeEvent.ACCEPT_RESET else z_raw
    return Advance(z_next=z_next, step=step)


def advance_table(d: Dfa, cfg: RewardConfig) -> list[list[Advance]]:
    """``advance(z, symbol)`` for every monitor state and symbol, indexed
    ``[z][symbol]``, so that an episode step looks its outcome up."""
    return [[advance(z, s, d, cfg) for s in range(d.n_symbols)] for z in range(d.n_states)]


def cumulative_value(steps: Iterable[RewardStep]) -> float:
    """Discounted return: sum_i r_i * prod_{j<i} g_j (empty product = 1)."""
    total = 0.0
    weight = 1.0
    for s in steps:
        total += s.reward * weight
        weight *= s.discount
    return total
