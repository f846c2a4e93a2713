"""Command-line front end.

Subcommands: compile, abstract, shield, train, evaluate, pipeline, report.
Formula files are UTF-8 text, one formula per file, with ``#`` comments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import ltl, pipeline
from .abstraction import PartitionSpec, make_partition
from .dfa import compile_cosafe, monitor_product
from .env import ATOM_NAMES, RATE_LIMIT, proposition_table
from .learner import qtable_from_json
from .ltl import Fragment, PropositionTable, classify, negate, parse
from .mdp import FiniteMdp
from .shields import Shield, ShieldConfig


class CliError(Exception):
    pass


def _read_formula(path: str, table: PropositionTable):
    text = Path(path).read_text(encoding="utf-8")
    return parse(text, table)


def _table_for(path: str, atoms: str | None) -> PropositionTable:
    if atoms:
        return PropositionTable(tuple(a.strip() for a in atoms.split(",")))
    text = Path(path).read_text(encoding="utf-8")
    found = ltl.atoms_in_text(text)
    # default to the environment's table when the formula fits in it
    if set(found) <= set(ATOM_NAMES):
        return proposition_table()
    return PropositionTable(tuple(found))


def cmd_compile(args) -> int:
    table = _table_for(args.spec, args.atoms)
    formula = _read_formula(args.spec, table)
    fragment = classify(formula)
    if fragment is Fragment.COSAFE:
        d = compile_cosafe(formula, table, max_states=args.max_states)
        print("fragment: co-safe")
    elif fragment is Fragment.SAFE:
        d = compile_cosafe(negate(formula), table, max_states=args.max_states)
        print("fragment: safe (compiled the violation monitor for its negation)")
    else:
        d = _compile_split_monitor(formula, table, args.max_states)
        if d is None:
            raise CliError(
                "formula is in neither fragment and does not split into "
                "a co-safe & safe conjunction"
            )
        print("fragment: neither (compiled the liveness-and-safety training monitor)")
    print(f"states: {d.n_states}")
    print(f"accepting: {sorted(d.accepting)}")
    print(f"sinks: {sorted(d.sinks)}")
    if args.out:
        pipeline.write_json(args.out, d.to_json())
    return 0


def _compile_split_monitor(formula, table, max_states):
    """Top-level conjunctions of a co-safe part and a safe part compile to
    the combined training monitor; anything else is rejected."""
    if not isinstance(formula, ltl.And):
        return None
    cosafe_parts, safe_parts = [], []
    for child in formula.children:
        if ltl.is_cosafe(child):
            cosafe_parts.append(child)
        elif ltl.is_safe(child):
            safe_parts.append(child)
        else:
            return None
    if not cosafe_parts or not safe_parts:
        return None
    liveness = compile_cosafe(ltl.conj(cosafe_parts), table, max_states=max_states)
    violation = compile_cosafe(
        negate(ltl.conj(safe_parts)), table, max_states=max_states
    )
    return monitor_product(liveness, violation)


def _partition_from_cells(cells: str) -> PartitionSpec:
    try:
        n_rate, n_wheel, n_charge = (int(x) for x in cells.split(","))
    except ValueError:
        raise CliError("--cells expects three comma-separated bin counts") from None
    return PartitionSpec(
        attitude_rate_edges=tuple(np.linspace(0.0, RATE_LIMIT, n_rate + 1)),
        wheel_edges=tuple(np.linspace(0.0, 1.0, n_wheel + 1)),
        charge_edges=tuple(np.linspace(0.0, 1.0, n_charge + 1)),
    )


def cmd_abstract(args) -> int:
    cfg = _experiment_config(args)
    cfg = replace(
        cfg,
        partition=_partition_from_cells(args.cells) if args.cells else cfg.partition,
        samples_per_cell=args.samples or cfg.samples_per_cell,
    )
    partition = make_partition(cfg.partition)
    report_path = Path(args.out).with_suffix(".report.json")
    mdp = pipeline.estimate_mdp(cfg, partition, args.out, report_path)
    print(f"abstraction: {mdp.n_states} states ({partition.n_cells} cells + exit), "
          f"{len(mdp.action_names)} actions, {cfg.samples_per_cell} samples/cell")
    print(f"wrote {args.out} and {report_path}")
    return 0


def cmd_shield(args) -> int:
    mdp = FiniteMdp.load(args.mdp)
    table = PropositionTable(mdp.atom_names)
    safety = _read_formula(args.spec, table)
    if classify(safety) is not Fragment.SAFE:
        raise CliError("shield synthesis expects a safe formula")
    violation = compile_cosafe(negate(safety), table)
    sh_cfg = ShieldConfig(threshold=args.p, kind=args.kind, horizon=args.horizon)
    shield = pipeline.synthesize_shields(mdp, violation, {args.out: sh_cfg})[args.kind]
    empty = sum(1 for a in shield.allowed if not a)
    print(f"shield: kind={args.kind} p={args.p} product-states={shield.n_states} "
          f"states-without-allowed-action={empty}")
    print(f"wrote {args.out}")
    return 0


def _experiment_config(args) -> pipeline.ExperimentConfig:
    if getattr(args, "config", None):
        cfg = pipeline.load_config(args.config)
    else:
        cfg = pipeline.default_config(getattr(args, "task", "simple") or "simple")
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_pipeline(args) -> int:
    cfg = _experiment_config(args)
    result = pipeline.run_pipeline(cfg, args.out)
    print(f"run directory: {result.out_dir}")
    for row in result.rows:
        m = row.metrics
        print(
            f"  shield={row.spec.shield:<5} inloop={'y' if row.spec.trained_with_shield else 'n'} "
            f"spec={row.spec.train_spec:<20} train_vf={row.train_avg_vf:7.3f} "
            f"sat={m.sat_pct:5.1f}% viol={m.violate_pct:5.1f}% fail={m.failure_pct:4.1f}% "
            f"interv={m.interventions_mean:6.2f}"
        )
    return 0


def _load_shield(args):
    return Shield.load(args.shield) if args.shield else None


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    if args.reward:
        cfg = replace(cfg, reward=replace(cfg.reward, style=args.reward))
    result = pipeline.train_policy(
        cfg, pipeline.build_specs(cfg), make_partition(cfg.partition), args.train_spec,
        _load_shield(args), args.out,
    )
    print(f"trained {cfg.learner.episodes} episodes, avg value {result.avg_vf:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _experiment_config(args)
    cfg = replace(cfg, eval_episodes=args.episodes or cfg.eval_episodes)
    qtable = qtable_from_json(json.loads(Path(args.policy).read_text(encoding="utf-8")))
    result = pipeline.evaluate_policy(
        cfg, pipeline.build_specs(cfg), make_partition(cfg.partition), qtable,
        args.train_spec, _load_shield(args),
    )
    m = result.metrics
    print(
        f"episodes={m.episodes} sat={m.sat_pct:.1f}% viol={m.violate_pct:.1f}% "
        f"fail={m.failure_pct:.1f}% interventions={m.interventions_mean:.2f} "
        f"mean_vf={m.avg_vf:.4f}"
    )
    return 0


def cmd_report(args) -> int:
    out = pipeline.report(args.runs, args.out)
    print(f"wrote {out['merged_metrics']} and {len(out['timeseries'])} time-series files")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shieldcraft")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a formula file to a DFA")
    p.add_argument("--spec", required=True, help="formula file")
    p.add_argument("--atoms", help="comma-separated atom order (default: inferred)")
    p.add_argument("--out", help="write DFA JSON here")
    p.add_argument("--max-states", type=int, default=10_000)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("abstract", help="estimate the safety MDP by simulation")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--task", choices=("simple", "complex"))
    p.add_argument("--cells", help="bin counts per dimension, e.g. 4,5,5")
    p.add_argument("--samples", type=_positive_int, help="samples per (cell, action)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_abstract)

    p = sub.add_parser("shield", help="synthesize a shield from an MDP and a safe formula")
    p.add_argument("--mdp", required=True)
    p.add_argument("--spec", required=True, help="safe formula file")
    p.add_argument("--kind", choices=("one", "two", "q"), required=True)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_shield)

    p = sub.add_parser("train", help="train a tabular policy")
    p.add_argument("--config")
    p.add_argument("--task", choices=("simple", "complex"))
    p.add_argument("--seed", type=int)
    p.add_argument("--train-spec", choices=("liveness_only", "liveness_and_safety"),
                   default="liveness_and_safety")
    p.add_argument("--shield", help="shield JSON to filter training actions")
    p.add_argument("--reward", choices=("shaped", "original"),
                   help="reward style (default: the config's); "
                        "'original' drops the monitor-progress bonus")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a stored policy")
    p.add_argument("--config")
    p.add_argument("--task", choices=("simple", "complex"))
    p.add_argument("--seed", type=int)
    p.add_argument("--train-spec", choices=("liveness_only", "liveness_and_safety"),
                   default="liveness_and_safety")
    p.add_argument("--policy", required=True)
    p.add_argument("--shield")
    p.add_argument("--episodes", type=_positive_int)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the full experiment pipeline")
    p.add_argument("--config")
    p.add_argument("--task", choices=("simple", "complex"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("report", help="merge runs and extract plot data")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ltl.LtlError, CliError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
