"""Temporal-logic tasking, probabilistic shielding, and tabular RL for a
surrogate spacecraft operations environment."""

from .abstraction import (
    AbstractionConfig,
    Partition,
    PartitionSpec,
    abstraction_report,
    estimate_transitions,
    make_partition,
)
from .dfa import Dfa, compile_cosafe, monitor_product, progress
from .env import EnvParams, SpacecraftEnv, label, observation, proposition_table
from .learner import Discretizer, LearnerConfig, Metrics, evaluate, train
from .ltl import Fragment, PropositionTable, classify, negate, parse
from .mdp import FiniteMdp, ProductMdp, product
from .pipeline import ExperimentConfig, default_config, run_pipeline
from .rewards import RewardConfig, advance, cumulative_value, step_reward
from .shields import Shield, ShieldConfig, ShieldRuntime, one_step, q_optimal, two_step

__version__ = "0.1.0"
