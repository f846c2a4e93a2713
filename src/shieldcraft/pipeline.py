"""End-to-end experiment driver: specs -> DFAs -> abstraction -> shields
-> training matrix -> evaluation matrix -> reports.

Everything downstream of the config is deterministic in the single master
seed: the abstraction, each training episode and each evaluation episode
derive their own RNG streams from (seed, stream tag, ...), so reruns are
byte-identical and evaluation rows share initial conditions.
"""

from __future__ import annotations

import dataclasses
import json
import time
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import learner as learner_mod
from .abstraction import (
    AbstractionConfig,
    PartitionSpec,
    abstraction_report,
    estimate_transitions,
    make_partition,
)
from .dfa import DEFAULT_STATE_CAP, Dfa, compile_cosafe, monitor_product
from .env import Discretizer, EnvParams, SpacecraftEnv, proposition_table
from .learner import LearnerConfig, evaluate, train
from .ltl import Formula, negate, parse
from .mdp import product
from .rewards import RewardConfig
from .shields import KINDS, ShieldConfig, ShieldRuntime, synthesize

LIVENESS_SIMPLE = "F p0"
LIVENESS_COMPLEX = "F (p3 & X F (p4 & X F (p3 & X F (p4 & X F p3))))"
SAFETY_SPEC = "G !(p1 | p2)"

TASKS = ("simple", "complex")
TRAIN_SPECS = ("liveness_only", "liveness_and_safety")
SHIELD_KINDS = ("none", *KINDS)

class PipelineStageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage


class MissingRunError(FileNotFoundError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "simple"
    seed: int = 0
    liveness_spec: str = LIVENESS_SIMPLE
    safety_spec: str = SAFETY_SPEC
    env: EnvParams = field(default_factory=EnvParams)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    samples_per_cell: int = 10_000
    shield_threshold: float = 0.05
    shield_horizon: int | None = None
    reward: RewardConfig = field(default_factory=RewardConfig)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    inloop_train_episodes: int = 1200
    # optimistic initial values are safe to explore under a shield; they
    # also keep never-executed (blocked) actions attractive, which is what
    # makes a policy lean on its shield
    inloop_optimism: float = 1.0
    train_specs: tuple[str, ...] = TRAIN_SPECS
    shield_kinds: tuple[str, ...] = ("none",)
    include_inloop_rows: bool = False
    eval_episodes: int = 1000
    record_trajectories: int = 3

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        for spec in self.train_specs:
            if spec not in TRAIN_SPECS:
                raise ValueError(f"unknown training spec selector {spec!r}")
        for kind in self.shield_kinds:
            if kind not in SHIELD_KINDS:
                raise ValueError(f"unknown shield kind {kind!r}")
        # each selector names a matrix row group once: an empty one runs no
        # row, a repeated one writes the same rows twice
        for name in ("train_specs", "shield_kinds"):
            chosen = getattr(self, name)
            if not chosen or len(set(chosen)) != len(chosen):
                raise ValueError(f"{name} must name at least one selector, each once, "
                                 f"got {chosen!r}")
        # ShieldConfig holds the threshold and horizon rules; "one" checks
        # both even when the run synthesizes no shield
        try:
            for kind in ("one", *self.shield_kinds):
                if kind != "none":
                    self.shield_config(kind)
        except ValueError as exc:
            raise ValueError(f"shield_{exc}") from None
        # AbstractionConfig holds the sample count and seed rules; its
        # messages name the fields this config shares with it
        self.abstraction_config()
        for name in ("eval_episodes", "inloop_train_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.record_trajectories < 0:
            raise ValueError(f"record_trajectories must be >= 0, got {self.record_trajectories}")

    def abstraction_config(self) -> AbstractionConfig:
        return AbstractionConfig(samples_per_cell=self.samples_per_cell, seed=self.seed)

    def shield_config(self, kind: str) -> ShieldConfig:
        return ShieldConfig(
            threshold=self.shield_threshold, kind=kind, horizon=self.shield_horizon
        )


def default_config(task: str, seed: int = 0) -> ExperimentConfig:
    """Task presets: the simple task runs 100-step episodes on a fixed
    orbit; the complex task runs 90-step episodes with per-episode target
    windows and the full shield matrix."""
    if task == "simple":
        return ExperimentConfig(
            task="simple",
            seed=seed,
            liveness_spec=LIVENESS_SIMPLE,
            learner=LearnerConfig(episodes=5000, episode_length=100),
            shield_horizon=100,
            shield_kinds=("none",),
            include_inloop_rows=False,
        )
    if task == "complex":
        return ExperimentConfig(
            task="complex",
            seed=seed,
            liveness_spec=LIVENESS_COMPLEX,
            env=EnvParams(
                randomize_windows=True,
                window_width=0.15,
                init_wheel=(0.25, 0.50),
            ),
            learner=LearnerConfig(
                episodes=12000, episode_length=90,
                alpha=0.2, epsilon_decay_fraction=0.35,
            ),
            # the q shield bounds reachability over the episode length
            shield_horizon=90,
            shield_kinds=SHIELD_KINDS,
            include_inloop_rows=True,
        )
    raise ValueError(f"unknown task {task!r}")


# --- config (de)serialization ------------------------------------------------


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def _fits(value, hint) -> bool:
    """Whether ``value`` has the field annotation ``hint``: a float, or an
    int that converts to a finite float, is a ``float``, a bool is no
    ``int``, and a ``tuple`` is a list (or a tuple, as `config_to_dict`
    leaves it) of the element types."""
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if isinstance(value, bool):
        return hint is bool
    if hint is float and isinstance(value, int):
        try:
            float(value)  # an int too large for a float overflows
        except OverflowError:
            return False
        return True
    return isinstance(value, hint)


def _tuples(value):
    """A JSON value with every list read as a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, (list, tuple)) else value


def _build(cls, data, path: str = ""):
    """``cls`` from the JSON object ``data`` at section ``path`` (the
    root's is empty), each value checked against its field's annotation
    and a list read as a tuple. A non-object, an unknown key or a value of
    the wrong type raises ValueError naming the section or the field."""
    if not isinstance(data, dict):
        raise ValueError(f"config section {path or '<root>'} must be a JSON object, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(f"unknown config keys at {path or '<root>'}: {sorted(unknown)}")
    values = {}
    for key, v in data.items():
        hint = hints[key]
        name = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(hint):
            values[key] = _build(hint, v, name)
        elif _fits(v, hint):
            values[key] = _tuples(v)
        else:
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ValueError(f"config field {name} must be {expected}, got {_tuples(v)!r}")
    return cls(**values)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# --- stages -------------------------------------------------------------------


@dataclass
class SpecBundle:
    dfa_liveness: Dfa
    dfa_violation: Dfa
    monitors: dict  # train-spec selector -> Dfa


# The monitor builders call compile_cosafe and monitor_product as globals of
# this module, where the benchmark's probe wraps them.


def violation_monitor(safety: Formula, table, max_states=DEFAULT_STATE_CAP) -> Dfa:
    """The DFA accepting exactly the traces that violate the safe ``safety``."""
    return compile_cosafe(negate(safety), table, max_states=max_states)


def training_monitor(liveness: Formula, safety: Formula, table, max_states=DEFAULT_STATE_CAP):
    """The liveness DFA, the violation DFA of ``safety``, and their product:
    the liveness-and-safety training monitor."""
    dfa_liveness = compile_cosafe(liveness, table, max_states=max_states)
    dfa_violation = violation_monitor(safety, table, max_states)
    return dfa_liveness, dfa_violation, monitor_product(dfa_liveness, dfa_violation)


def build_specs(cfg: ExperimentConfig) -> SpecBundle:
    table = proposition_table()
    liveness = parse(cfg.liveness_spec, table)
    safety = parse(cfg.safety_spec, table)
    dfa_liveness, dfa_violation, monitor = training_monitor(liveness, safety, table)
    monitors = {"liveness_only": dfa_liveness, "liveness_and_safety": monitor}
    return SpecBundle(dfa_liveness, dfa_violation, monitors)


# run_pipeline and the CLI stage commands wire each stage through the
# functions below. They call the stage entry points (estimate_transitions,
# abstraction_report, product, synthesize, train, evaluate) as globals of
# this module, which is where the benchmark's probe wraps them.


def write_lines(path, lines):
    """Write one run file, each line followed by a newline; every file a
    run writes goes through here."""
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_json(path, data):
    """Write one JSON artifact: compact, so CPython's C encoder runs."""
    write_lines(path, [json.dumps(data)])


def estimate_mdp(cfg: ExperimentConfig, partition, mdp_path, report_path):
    """Estimate the safety MDP by simulation; write it and its sampling
    report."""
    abs_cfg = cfg.abstraction_config()
    mdp = estimate_transitions(make_env(cfg, partition), partition, abs_cfg)
    write_json(mdp_path, mdp.to_json())
    write_json(report_path, abstraction_report(mdp, abs_cfg))
    return mdp


def synthesize_shields(mdp, violation_dfa: Dfa, targets: dict) -> dict:
    """Build the safety product once, synthesize one shield per
    ``{path: ShieldConfig}`` entry, then write them; returns the shields by
    kind."""
    pm = product(mdp, violation_dfa)
    made = {path: synthesize(pm, sh_cfg) for path, sh_cfg in targets.items()}
    # the product holds the live transition tensor in its own mapping (the
    # settled rows' mapping is gone once their mass is taken); dropping the
    # product unmaps it before the shields are written
    del pm
    for path, shield in made.items():
        write_json(path, shield.to_json())
    return {shield.kind: shield for shield in made.values()}


def make_env(cfg: ExperimentConfig, partition) -> SpacecraftEnv:
    return SpacecraftEnv(cfg.env, Discretizer(partition))


def make_runtime(shield, specs: SpecBundle, partition) -> ShieldRuntime | None:
    """The runtime filter of ``shield``; None runs unshielded."""
    if shield is None:
        return None
    return ShieldRuntime(shield, specs.dfa_violation, partition)


def train_policy(cfg: ExperimentConfig, specs: SpecBundle, partition, train_spec: str,
                 shield, policy_path) -> learner_mod.TrainResult:
    """Train one policy against the ``train_spec`` monitor and write its
    policy file. Given a shield, training is filtered by it and runs the
    in-loop settings: ``inloop_train_episodes`` episodes from
    ``inloop_optimism``."""
    learner_cfg = cfg.learner
    if shield is not None:
        learner_cfg = replace(
            learner_cfg, episodes=cfg.inloop_train_episodes, optimistic_init=cfg.inloop_optimism
        )
    result = train(
        make_env(cfg, partition),
        specs.monitors[train_spec],
        learner_cfg,
        cfg.reward,
        seed=cfg.seed,
        shield_runtime=make_runtime(shield, specs, partition),
    )
    write_json(policy_path, learner_mod.qtable_to_json(result.qtable))
    return result


def evaluate_policy(cfg: ExperimentConfig, specs: SpecBundle, partition, qtable,
                    train_spec: str, shield) -> learner_mod.EvalResult:
    """Evaluate one matrix row: ``qtable`` under ``shield`` (or none)."""
    return evaluate(
        qtable,
        make_env(cfg, partition),
        specs.monitors[train_spec],
        specs.dfa_liveness,
        specs.dfa_violation,
        cfg.reward,
        episodes=cfg.eval_episodes,
        episode_length=cfg.learner.episode_length,
        seed=cfg.seed,
        shield_runtime=make_runtime(shield, specs, partition),
        record_trajectories=cfg.record_trajectories,
    )


@dataclass
class RowSpec:
    shield: str  # "none" | "one" | "two" | "q"
    trained_with_shield: bool
    train_spec: str

    @property
    def policy_key(self) -> str:
        if self.trained_with_shield:
            return f"{self.train_spec}__inloop_{self.shield}"
        return self.train_spec

    @property
    def row_id(self) -> str:
        flag = "yes" if self.trained_with_shield else "no"
        return f"{self.shield}__trained-with-shield-{flag}__{self.train_spec}"


def matrix_rows(cfg: ExperimentConfig) -> list[RowSpec]:
    """Per shield kind, a row per training spec, then, for a shield with
    in-loop rows, a row per spec trained with it."""
    rows = []
    for kind in cfg.shield_kinds:
        inloop = (False, True) if cfg.include_inloop_rows and kind != "none" else (False,)
        rows += [RowSpec(kind, trained, spec) for trained in inloop for spec in cfg.train_specs]
    return rows


@dataclass
class RowResult:
    spec: RowSpec
    train_avg_vf: float
    metrics: learner_mod.Metrics


@dataclass
class PipelineResult:
    out_dir: Path
    policies: dict  # policy key -> TrainResult
    rows: list


def _metrics_lines(rows: list) -> list[str]:
    """metrics.csv: one line per row, its `RowSpec` fields, then
    ``train_avg_vf``, then its `Metrics` fields, under their names."""
    names = [f.name for f in dataclasses.fields(RowSpec)]
    names += ["train_avg_vf", *(f.name for f in dataclasses.fields(learner_mod.Metrics))]
    lines = [",".join(names)]
    for row in rows:
        values = [*vars(row.spec).values(), row.train_avg_vf, *vars(row.metrics).values()]
        lines.append(",".join(_fmt(v) for v in values))
    return lines


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def _stage(name):
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(cfg: ExperimentConfig, out_dir) -> PipelineResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    write_json(out_dir / "config.json", config_to_dict(cfg))

    with _stage("compile"):
        specs = build_specs(cfg)
    for name, d in (
        ("dfa_liveness", specs.dfa_liveness),
        ("dfa_violation", specs.dfa_violation),
        ("dfa_monitor", specs.monitors["liveness_and_safety"]),
    ):
        write_json(out_dir / f"{name}.json", d.to_json())

    partition = make_partition(cfg.partition)
    with _stage("abstract"):
        mdp = estimate_mdp(cfg, partition, out_dir / "mdp.json", out_dir / "mdp_report.json")

    with _stage("shields"):
        targets = {
            out_dir / f"shield_{kind}.json": cfg.shield_config(kind)
            for kind in cfg.shield_kinds
            if kind != "none"
        }
        shields = synthesize_shields(mdp, specs.dfa_violation, targets)

    policies = {}
    train_info = {}  # policy key -> steps and throughput
    with _stage("train"):
        for row in matrix_rows(cfg):
            key = row.policy_key
            if key in policies:
                continue
            shield = shields[row.shield] if row.trained_with_shield else None
            t0 = time.perf_counter()
            result = train_policy(
                cfg, specs, partition, row.train_spec, shield, out_dir / f"policy_{key}.json"
            )
            train_info[key] = _throughput("train", result.steps, time.perf_counter() - t0)
            policies[key] = result
            write_lines(out_dir / f"trainlog_{key}.csv", [
                "episode,value,terminal_event",
                *(f"{ep},{val!r},{event}" for ep, val, event in result.episode_log),
            ])

    rows = []
    eval_info = {}  # row id -> steps and throughput
    with _stage("evaluate"):
        for row in matrix_rows(cfg):
            trained = policies[row.policy_key]
            t0 = time.perf_counter()
            result = evaluate_policy(
                cfg, specs, partition, trained.qtable, row.train_spec, shields.get(row.shield)
            )
            steps = sum(r.steps for r in result.episodes)
            eval_info[row.row_id] = _throughput("eval", steps, time.perf_counter() - t0)
            rows.append(RowResult(row, trained.settled_avg_vf, result.metrics))
            write_lines(
                out_dir / f"episodes_{row.row_id}.jsonl",
                [json.dumps(vars(r)) for r in result.episodes],
            )
            write_lines(
                out_dir / f"trajectories_{row.row_id}.jsonl",
                [json.dumps({"episode": ep, **step})
                 for ep, episode in enumerate(result.trajectories) for step in episode],
            )

    write_lines(out_dir / "metrics.csv", _metrics_lines(rows))
    write_json(
        out_dir / "run_info.json",
        {
            "task": cfg.task,
            "seed": cfg.seed,
            "elapsed_s": time.time() - started,
            "policies": train_info,
            "rows": eval_info,
        },
    )
    return PipelineResult(out_dir=out_dir, policies=policies, rows=rows)


def _throughput(stage: str, steps: int, seconds: float) -> dict:
    """A stage's env steps, wall seconds and steps per second, under the
    benchmark's field names. Training's seconds include writing the policy
    file."""
    return {
        f"{stage}_steps": steps,
        f"{stage}_s": seconds,
        f"{stage}_steps_per_s": steps / seconds if seconds > 0 else 0.0,
    }


# --- reporting ----------------------------------------------------------------


def report(run_dirs, out_dir) -> dict:
    """Merge metrics across runs and extract per-trajectory time series
    (mode, wheel speed, access windows) for external plotting."""
    run_dirs = [Path(d) for d in run_dirs]
    if not run_dirs:
        raise MissingRunError("no run directories given")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged = []
    header = None
    for run in run_dirs:
        metrics = run / "metrics.csv"
        if not metrics.exists():
            raise MissingRunError(f"{run} has no metrics.csv")
        lines = metrics.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0]
        merged += [f"{run.name},{line}" for line in lines[1:]]
    merged_path = out_dir / "merged_metrics.csv"
    write_lines(merged_path, ["run," + header, *merged])

    series_files = []
    for run in run_dirs:
        for traj in sorted(run.glob("trajectories_*.jsonl")):
            rows = ["step,mode,wheel_speed,charge,sun,target_access,intervened"]
            episode = None
            with open(traj, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    if episode is None:
                        episode = rec["episode"]
                    if rec["episode"] != episode:
                        break
                    obs = rec["observation"]
                    rows.append(
                        f"{rec['step']},{rec['mode']},{obs[2]!r},{obs[3]!r},"
                        f"{int(obs[4])},{int(obs[5])},{int(rec['intervened'])}"
                    )
            name = f"timeseries_{run.name}_{traj.stem.removeprefix('trajectories_')}.csv"
            write_lines(out_dir / name, rows)
            series_files.append(name)
    return {"merged_metrics": str(merged_path), "timeseries": series_files}
