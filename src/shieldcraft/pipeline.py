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
from .dfa import Dfa, compile_cosafe, monitor_product
from .env import EnvParams, SpacecraftEnv, proposition_table
from .learner import Discretizer, LearnerConfig, SpacecraftSession, evaluate, train
from .ltl import negate, parse
from .mdp import product
from .rewards import RewardConfig
from .shields import ShieldConfig, ShieldRuntime, synthesize

LIVENESS_SIMPLE = "F p0"
LIVENESS_COMPLEX = "F (p3 & X F (p4 & X F (p3 & X F (p4 & X F p3))))"
SAFETY_SPEC = "G !(p1 | p2)"

TRAIN_SPECS = ("liveness_only", "liveness_and_safety")
SHIELD_KINDS = ("none", "one", "two", "q")

METRICS_COLUMNS = (
    "shield",
    "trained_with_shield",
    "train_spec",
    "train_avg_vf",
    "sat_pct",
    "violate_pct",
    "failure_pct",
    "interventions_sat",
    "interventions_unsat",
    "interventions_mean",
    "eval_mean_vf",
    "episodes",
)


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
    abstraction_workers: int = 1
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
        if self.task not in ("simple", "complex"):
            raise ValueError(f"unknown task {self.task!r}")
        for spec in self.train_specs:
            if spec not in TRAIN_SPECS:
                raise ValueError(f"unknown training spec selector {spec!r}")
        for kind in self.shield_kinds:
            if kind not in SHIELD_KINDS:
                raise ValueError(f"unknown shield kind {kind!r}")


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
            # infinite-horizon minimal reach is degenerate on this
            # abstraction (no absorbing safe class), so the q shield uses
            # the episode length
            shield_horizon=90,
            shield_kinds=SHIELD_KINDS,
            include_inloop_rows=True,
        )
    raise ValueError(f"unknown task {task!r}")


# --- config (de)serialization ------------------------------------------------


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def _build(cls, data: dict, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown config keys at {path}: {sorted(unknown)}")
    return cls(**data)


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    if "env" in data:
        env = dict(data["env"])
        for key, val in env.items():
            if isinstance(val, list):
                env[key] = tuple(tuple(v) if isinstance(v, list) else v for v in val)
        data["env"] = _build(EnvParams, env, "env")
    if "partition" in data:
        part = {k: tuple(v) for k, v in data["partition"].items()}
        data["partition"] = _build(PartitionSpec, part, "partition")
    if "reward" in data:
        data["reward"] = _build(RewardConfig, dict(data["reward"]), "reward")
    if "learner" in data:
        data["learner"] = _build(LearnerConfig, data["learner"], "learner")
    for key in ("train_specs", "shield_kinds"):
        if key in data:
            data[key] = tuple(data[key])
    return _build(ExperimentConfig, data, "<root>")


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# --- stages -------------------------------------------------------------------


@dataclass
class SpecBundle:
    table: object
    liveness: object
    safety: object
    dfa_liveness: Dfa
    dfa_violation: Dfa
    monitors: dict  # train-spec selector -> Dfa


def build_specs(cfg: ExperimentConfig) -> SpecBundle:
    table = proposition_table()
    liveness = parse(cfg.liveness_spec, table)
    safety = parse(cfg.safety_spec, table)
    dfa_liveness = compile_cosafe(liveness, table)
    dfa_violation = compile_cosafe(negate(safety), table)
    monitors = {
        "liveness_only": dfa_liveness,
        "liveness_and_safety": monitor_product(dfa_liveness, dfa_violation),
    }
    return SpecBundle(table, liveness, safety, dfa_liveness, dfa_violation, monitors)


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
    rows = []
    for kind in cfg.shield_kinds:
        if kind == "none":
            for spec in cfg.train_specs:
                rows.append(RowSpec("none", False, spec))
            continue
        for spec in cfg.train_specs:
            rows.append(RowSpec(kind, False, spec))
        if cfg.include_inloop_rows:
            for spec in cfg.train_specs:
                rows.append(RowSpec(kind, True, spec))
    return rows


@dataclass
class RowResult:
    spec: RowSpec
    train_avg_vf: float
    metrics: learner_mod.Metrics


@dataclass
class PipelineResult:
    config: ExperimentConfig
    out_dir: Path
    mdp: object
    shields: dict
    policies: dict  # policy key -> TrainResult
    rows: list


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(rows: list, path: Path):
    lines = [",".join(METRICS_COLUMNS)]
    for row in rows:
        m = row.metrics
        values = (
            row.spec.shield,
            "yes" if row.spec.trained_with_shield else "no",
            row.spec.train_spec,
            row.train_avg_vf,
            m.sat_pct,
            m.violate_pct,
            m.failure_pct,
            m.interventions_sat,
            m.interventions_unsat,
            m.interventions_mean,
            m.avg_vf,
            m.episodes,
        )
        lines.append(",".join(_fmt(v) for v in values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_pipeline(cfg: ExperimentConfig, out_dir) -> PipelineResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc

    (out_dir / "config.json").write_text(
        json.dumps(config_to_dict(cfg), indent=1) + "\n", encoding="utf-8"
    )

    specs = stage("compile", lambda: build_specs(cfg))
    for name, d in (
        ("dfa_liveness", specs.dfa_liveness),
        ("dfa_violation", specs.dfa_violation),
        ("dfa_monitor", specs.monitors["liveness_and_safety"]),
    ):
        (out_dir / f"{name}.json").write_text(
            json.dumps(d.to_json(), indent=1) + "\n", encoding="utf-8"
        )

    partition = make_partition(cfg.partition)
    abs_cfg = AbstractionConfig(
        samples_per_cell=cfg.samples_per_cell, seed=cfg.seed, workers=cfg.abstraction_workers
    )

    def do_abstract():
        sim = SpacecraftEnv(cfg.env)
        mdp = estimate_transitions(sim, partition, abs_cfg)
        mdp.save(out_dir / "mdp.json")
        report = abstraction_report(mdp, abs_cfg)
        (out_dir / "mdp_report.json").write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8"
        )
        return mdp

    mdp = stage("abstract", do_abstract)

    def do_shields():
        pm = product(mdp, specs.dfa_violation)
        shields = {}
        for kind in cfg.shield_kinds:
            if kind == "none":
                continue
            sh_cfg = ShieldConfig(
                threshold=cfg.shield_threshold, kind=kind, horizon=cfg.shield_horizon
            )
            shields[kind] = synthesize(pm, sh_cfg)
            shields[kind].save(out_dir / f"shield_{kind}.json")
        return shields

    shields = stage("shields", do_shields)

    discretizer = Discretizer(partition)

    def make_session():
        return SpacecraftSession(SpacecraftEnv(cfg.env), discretizer)

    def make_runtime(kind):
        return ShieldRuntime(shields[kind], specs.dfa_violation, partition)

    def do_train():
        policies = {}
        for row in matrix_rows(cfg):
            key = row.policy_key
            if key in policies:
                continue
            monitor = specs.monitors[row.train_spec]
            if row.trained_with_shield:
                lcfg = replace(
                    cfg.learner,
                    episodes=cfg.inloop_train_episodes,
                    optimistic_init=cfg.inloop_optimism,
                )
                runtime = make_runtime(row.shield)
            else:
                lcfg = cfg.learner
                runtime = None
            result = train(
                make_session(), monitor, lcfg, cfg.reward, seed=cfg.seed, shield_runtime=runtime
            )
            policies[key] = result
            lines = ["episode,value,terminal_event"]
            lines += [f"{ep},{val!r},{event}" for ep, val, event in result.episode_log]
            (out_dir / f"trainlog_{key}.csv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
            (out_dir / f"policy_{key}.json").write_text(
                json.dumps(learner_mod.qtable_to_json(result.qtable)) + "\n",
                encoding="utf-8",
            )
        return policies

    policies = stage("train", do_train)

    def do_evaluate():
        rows = []
        for row in matrix_rows(cfg):
            trained = policies[row.policy_key]
            runtime = make_runtime(row.shield) if row.shield != "none" else None
            result = evaluate(
                trained.qtable,
                make_session(),
                specs.monitors[row.train_spec],
                specs.dfa_liveness,
                specs.dfa_violation,
                cfg.reward,
                episodes=cfg.eval_episodes,
                episode_length=cfg.learner.episode_length,
                seed=cfg.seed,
                shield_runtime=runtime,
                record_trajectories=cfg.record_trajectories,
            )
            rows.append(RowResult(row, trained.settled_avg_vf, result.metrics))
            _write_episode_records(out_dir / f"episodes_{row.row_id}.jsonl", result.episodes)
            _write_trajectories(
                out_dir / f"trajectories_{row.row_id}.jsonl", result.trajectories
            )
        return rows

    rows = stage("evaluate", do_evaluate)
    write_metrics_csv(rows, out_dir / "metrics.csv")
    (out_dir / "run_info.json").write_text(
        json.dumps({"task": cfg.task, "seed": cfg.seed, "elapsed_s": time.time() - started})
        + "\n",
        encoding="utf-8",
    )
    return PipelineResult(
        config=cfg, out_dir=out_dir, mdp=mdp, shields=shields, policies=policies, rows=rows
    )


def _write_episode_records(path: Path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(dataclasses.asdict(r)) + "\n")


def _write_trajectories(path: Path, trajectories):
    with open(path, "w", encoding="utf-8") as fh:
        for ep_idx, rows in enumerate(trajectories):
            for row in rows:
                fh.write(json.dumps({"episode": ep_idx, **row}) + "\n")


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
    merged_path.write_text("run," + header + "\n" + "\n".join(merged) + "\n", encoding="utf-8")

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
                    obs = rec["observation"] or [float("nan")] * 6
                    rows.append(
                        f"{rec['step']},{rec['mode']},{obs[2]!r},{obs[3]!r},"
                        f"{int(obs[4])},{int(obs[5])},{int(rec['intervened'])}"
                    )
            name = f"timeseries_{run.name}_{traj.stem.removeprefix('trajectories_')}.csv"
            (out_dir / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
            series_files.append(name)
    return {"merged_metrics": str(merged_path), "timeseries": series_files}
