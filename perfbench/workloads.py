"""The benchmark's workloads: one pipeline configuration per name.

Every workload is a ``run_pipeline`` call, so the benchmark drives the
same code path a researcher runs with ``shieldcraft pipeline``. The sizes
are cut from the presets so that one repetition takes a few seconds and a
run holds several repetitions; what each cut loads or bypasses is said
next to it and in README.md.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from shieldcraft.abstraction import PartitionSpec
from shieldcraft.pipeline import ExperimentConfig, default_config

WHY = {
    "simple_unshielded": (
        "simple preset, no shields: greedy evaluation (Q lookups, three DFAs "
        "per step, JSONL per episode) dominates; the shield filter never runs"
    ),
    "complex_fine": (
        "complex preset, all shield kinds and in-loop rows, 10x10x15 cells: "
        "shielded training with locate_one per step, dense synthesis at S=3002"
    ),
}

NAMES = tuple(WHY)


def _fine_partition() -> PartitionSpec:
    # charge edges at k/15 keep 0.2 = 3/15 on an edge, and wheel edges at
    # k/10 keep 0.8, so the p1/p2 regions stay aligned with cells
    return PartitionSpec(
        attitude_rate_edges=tuple(np.linspace(0.0, 0.01, 11)),
        wheel_edges=tuple(np.linspace(0.0, 1.0, 11)),
        charge_edges=tuple(np.linspace(0.0, 1.0, 16)),
    )


def config(name: str, seed: int) -> ExperimentConfig:
    """The pipeline configuration of workload ``name`` at ``seed``."""
    if name == "simple_unshielded":
        cfg = default_config("simple", seed=seed)
        # training is cut harder than evaluation, so evaluation (the read
        # path) takes most of the episode time
        return replace(
            cfg,
            samples_per_cell=2000,
            learner=replace(cfg.learner, episodes=150),
            eval_episodes=200,
        )
    if name == "complex_fine":
        cfg = default_config("complex", seed=seed)
        # 8 policies x 60 training episodes (the largest stage) against 14
        # rows x 10 evaluation episodes; the finer partition makes the
        # product S = 3002 states, so the dense (A, S, S) synthesis and its
        # memory show, and few samples per cell keep the abstraction short
        return replace(
            cfg,
            partition=_fine_partition(),
            samples_per_cell=200,
            learner=replace(cfg.learner, episodes=60),
            inloop_train_episodes=60,
            eval_episodes=10,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
