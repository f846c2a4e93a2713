"""Benchmark of the shieldcraft pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; the package need not be installed.
One invocation runs one workload (see workloads.py and README.md) in one
process, so ``peak_rss_mb`` belongs to that workload alone.

With ``--trace 0`` it measures the end-to-end metrics. It starts the
set-up (import, specs, partition) in fresh processes several times and
takes the median, then repeats the workload's pipeline for about
``--seconds`` seconds and reports medians over the repetitions. Only the
stage calls are wrapped, so no clock is read per episode step.

With ``--trace 1`` it reports the per-layer metrics. The first
repetition is traced with tracemalloc on around each synthesize call. It
then alternates plain and traced repetitions for the rest of the time.
The counts of every traced repetition must be equal (determinism), and
the ratio of traced to plain wall time is the tracing overhead.

Every repetition's outputs are checked (check.py). A repetition that
raises or fails a check counts as failed. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment record, a table of
the metrics and, when traced, the spans of one repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bootstrap

bootstrap.prepare()

import numpy  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from shieldcraft import _kernels  # noqa: E402

SETUP_REPEATS = 5
MIN_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_steps_per_s": "steps/s",
    "abstract_s": "s",
    "synthesis_s": "s",
    "peak_rss_mb": "MB",
}

# import shieldcraft, compile the specs and build the partition in a
# fresh interpreter; prints the seconds taken
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[3], sys.argv[4]]
import shieldcraft
from shieldcraft.abstraction import make_partition
from shieldcraft.pipeline import build_specs
import workloads
cfg = workloads.config(sys.argv[1], int(sys.argv[2]))
build_specs(cfg)
make_partition(cfg.partition)
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": bootstrap.commit(),
        "src_sha256": bootstrap.source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": bootstrap.nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "kernels_compiled": bool(_kernels.USING_COMPILED),
    }


def measure_setup(name: str, seed: int) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE, name, str(seed),
            str(bootstrap.SRC), str(bootstrap.HERE)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        if i:  # the first start fills the bytecode cache
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def one_rep(p: probe.Probe, cfg, name: str, seed: int):
    """Run and check one repetition; returns (wall seconds or None,
    problems)."""
    p.reset()
    with tempfile.TemporaryDirectory(dir=bootstrap.WORK / "runs") as tmp:
        try:
            wall, _result = p.run(cfg, tmp)
            problems = check.check_run(Path(tmp), name, seed, p.facts["eval_steps"])
        except Exception as exc:  # noqa: BLE001 - a failed repetition is a result
            traceback.print_exc()
            return None, [f"{type(exc).__name__}: {exc}"]
    return wall, problems


def rep_metrics(p: probe.Probe, wall: float) -> dict:
    f = p.facts
    synth_ns = f["product_ns"] + sum(f[f"synthesize_ns.{k}"] for k in probe.SHIELD_KINDS)
    return {
        "wall_s": wall,
        "train_steps_per_s": f["train_steps"] / (f["train_ns"] * 1e-9),
        "eval_steps_per_s": f["eval_steps"] / (f["eval_ns"] * 1e-9),
        "abstract_s": (f["estimate_ns"] + f["report_ns"]) * 1e-9,
        "synthesis_s": synth_ns * 1e-9,
    }


def _per_call(p, name, field=1):
    rec = p.layer(name)
    return rec[field] / rec[0] if rec[0] else 0.0


def layer_metrics(p: probe.Probe, wall: float) -> dict:
    """The per-layer metrics of one traced repetition, as (value, unit)."""
    f = p.facts
    m = {}
    stages = 0.0
    for stage in probe.STAGES:
        seconds = f[f"stage_ns.{stage}"] * 1e-9
        stages += seconds
        m[f"pipeline.{stage}_s"] = (seconds, "s")
    m["pipeline.self_s"] = (wall - stages, "s")

    def span_self(prefix):
        return sum(s["self_ns"] for s in p.spans if s["name"].startswith(prefix))

    train_steps, eval_steps = f["train_steps"], f["eval_steps"]
    m["learner.train_steps"] = (train_steps, "steps")
    m["learner.eval_steps"] = (eval_steps, "steps")
    m["learner.train_self_ns_per_step"] = (
        span_self("train:") / train_steps if train_steps else 0.0, "ns/step")
    m["learner.eval_self_ns_per_step"] = (
        span_self("evaluate:") / eval_steps if eval_steps else 0.0, "ns/step")
    m["learner.qtable_rows"] = (f["qtable_rows"], "count")
    m["learner.discretize_calls"] = (p.layer("learner.discretize")[0], "count")
    m["learner.discretize_ns"] = (_per_call(p, "learner.discretize"), "ns")

    m["env.step_calls"] = (p.layer("env.step")[0], "count")
    m["env.step_self_ns"] = (_per_call(p, "env.step", 2), "ns")
    m["env.noise_ns"] = (_per_call(p, "env.noise"), "ns")
    m["env.reset_calls"] = (p.layer("env.reset")[0], "count")
    m["env.sample_in_cell_s"] = (p.layer("env.sample_in_cell")[1] * 1e-9, "s")

    calls, ns, _self_ns, elems = p.layer("kernels.step_batch")
    m["kernels.step_one_calls"] = (p.layer("kernels.step_one")[0], "count")
    m["kernels.step_one_ns"] = (_per_call(p, "kernels.step_one"), "ns")
    m["kernels.step_batch_calls"] = (calls, "count")
    m["kernels.step_batch_ns_per_elem"] = (ns / elems if elems else 0.0, "ns/elem")
    m["kernels.compiled"] = (int(_kernels.USING_COMPILED), "flag")

    m["rewards.advance_calls"] = (p.layer("rewards.advance")[0], "count")
    m["rewards.advance_ns"] = (_per_call(p, "rewards.advance"), "ns")

    m["dfa.compile_s"] = (p.layer("dfa.compile")[1] * 1e-9, "s")
    m["dfa.monitor_states"] = (f["monitor_states"], "count")
    m["dfa.step_calls"] = (p.layer("dfa.step")[0], "count")
    m["dfa.step_ns"] = (_per_call(p, "dfa.step"), "ns")

    estimate_s = f["estimate_ns"] * 1e-9
    m["abstraction.estimate_s"] = (estimate_s, "s")
    m["abstraction.rows"] = (f["abstraction_rows"], "count")
    m["abstraction.samples_per_s"] = (
        f["abstraction_samples"] / estimate_s if estimate_s else 0.0, "samples/s")
    m["abstraction.locate_one_calls"] = (p.layer("abstraction.locate_one")[0], "count")
    m["abstraction.locate_one_ns"] = (_per_call(p, "abstraction.locate_one"), "ns")

    m["mdp.product_s"] = (f["product_ns"] * 1e-9, "s")
    m["mdp.product_states"] = (f["product_states"], "count")
    m["mdp.product_entries"] = (f["product_entries"], "count")

    for kind in probe.SHIELD_KINDS:
        m[f"shields.synthesize_s.{kind}"] = (f[f"synthesize_ns.{kind}"] * 1e-9, "s")
    m["shields.tensor_mb"] = (f["tensor_bytes"] / 1e6, "MB-computed")
    m["shields.empty_allowed_states"] = (f["empty_allowed_states"], "count")
    filter_calls, _ns, _self_ns, interventions = p.layer("shields.filter")
    fallbacks = p.layer("shields.decide")[3]
    m["shields.filter_calls"] = (filter_calls, "count")
    m["shields.filter_ns"] = (_per_call(p, "shields.filter"), "ns")
    m["shields.intervention_ratio"] = (
        interventions / filter_calls if filter_calls else 0.0, "ratio")
    m["shields.fallback_ratio"] = (fallbacks / filter_calls if filter_calls else 0.0, "ratio")
    return m


def run_plain(name: str, seed: int, seconds: float):
    cfg = workloads.config(name, seed)
    setup = measure_setup(name, seed)
    reps, attempted, failed = [], 0, 0
    start = time.perf_counter()
    with probe.Probe(hot=False) as p:
        while True:
            attempted += 1
            wall, problems = one_rep(p, cfg, name, seed)
            if problems:
                failed += 1
                print(f"repetition {attempted} failed: {problems}", file=sys.stderr)
            else:
                reps.append(rep_metrics(p, wall))
            elapsed = time.perf_counter() - start
            if attempted >= MIN_REPEATS and elapsed + elapsed / attempted / 2 >= seconds:
                break
    metrics = {}
    measured = reps[1:] or reps  # the first repetition warms caches
    if measured:
        metrics["setup_s"] = statistics.median(setup)
        for key in measured[0]:
            metrics[key] = statistics.median(r[key] for r in measured)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: (metrics[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
    notes = {"repetitions": reps, "setup_samples": setup}
    return attempted, failed, metrics, notes


def run_traced(name: str, seed: int, seconds: float):
    cfg = workloads.config(name, seed)
    attempted, failed = 0, 0
    plain_walls, traced, spans = [], [], None
    first_counts, peak_bytes = None, None
    start = time.perf_counter()
    # rep 0 traced with tracemalloc (its times are not used), then plain and
    # traced in turn, until the time is used and both kinds have run
    while True:
        kind = "plain" if attempted % 2 else "traced"
        attempted += 1
        with probe.Probe(hot=kind == "traced", peak_memory=attempted == 1) as p:
            wall, problems = one_rep(p, cfg, name, seed)
        if not problems and kind == "traced":
            counts = p.counts()
            if first_counts is None:
                first_counts = counts
                peak_bytes = p.facts["synthesize_peak_bytes"]
            elif counts != first_counts:
                diff = sorted(k for k in counts.keys() | first_counts.keys()
                              if counts.get(k) != first_counts.get(k))
                problems = [f"counts differ from the first traced repetition: {diff}"]
            else:
                traced.append((wall, layer_metrics(p, wall)))
                if spans is None:
                    spans = p.spans
        if problems:
            failed += 1
            print(f"repetition {attempted} ({kind}) failed: {problems}", file=sys.stderr)
        elif kind == "plain":
            plain_walls.append(wall)
        elapsed = time.perf_counter() - start
        if traced and plain_walls and elapsed + elapsed / attempted / 2 >= seconds:
            break
        if attempted >= 3 and not (traced and plain_walls):
            break  # a kind keeps failing; report what there is
    metrics = {}
    if traced and plain_walls:
        for key, (_value, unit) in traced[0][1].items():
            metrics[key] = (statistics.median(m[key][0] for _w, m in traced), unit)
        metrics["shields.peak_mb"] = (peak_bytes / 1e6, "MB")
        overhead = statistics.median(w for w, _m in traced) / statistics.median(plain_walls)
        metrics["trace.overhead"] = (overhead, "ratio")
        metrics["trace.wrapper_ns"] = (probe.wrapper_cost_ns(), "ns")
    notes = {"traced_repetitions": len(traced), "plain_repetitions": len(plain_walls),
             "counts": first_counts}
    return attempted, failed, metrics, notes, spans


def _spans_relative(spans):
    t0 = spans[0]["start_ns"]  # the root span opens first
    return [{**s, "start_ns": s["start_ns"] - t0, "end_ns": s["end_ns"] - t0} for s in spans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    (bootstrap.WORK / "runs").mkdir(parents=True, exist_ok=True)

    env = environment()
    print(json.dumps({"environment": env}))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    if args.trace:
        attempted, failed, metrics, notes, spans = run_traced(
            args.workload, args.seed, args.seconds)
        if spans:
            print(json.dumps({"spans": _spans_relative(spans)}))
    else:
        attempted, failed, metrics, notes = run_plain(args.workload, args.seed, args.seconds)
    print(json.dumps({"notes": notes}))
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:>16.6g} {unit}")
    print(f"  {'error_rate':36s} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
