"""Output checks for one benchmark repetition.

At seed 0 a run directory is compared with the reference captured for its
workload: exact sha256 match for ``metrics.csv``, ``policy_*.json``,
``episodes_*.jsonl``, the MDP transition rows and each shield's
allowed/fallback sets, and shield scores and values within 1e-12. At every
seed the invariants are checked as well: the MDP validates, the percentage
columns of ``metrics.csv`` lie in [0, 100], and the per-episode step counts
add up to the env steps counted inside ``evaluate``.

Regenerate the references, after an intended output change, with

    python3 perfbench/check.py --capture [WORKLOAD ...]
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
SCORE_TOL = 1e-12
DIGESTED = ("metrics.csv", "policy_*.json", "episodes_*.jsonl")
PERCENT_COLUMNS = ("sat_pct", "violate_pct", "failure_pct")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def summarize(run_dir: Path) -> dict:
    """What a run directory is compared on: digests of the exact-match
    outputs plus the raw shield scores and values."""
    run_dir = Path(run_dir)
    files = {}
    for pattern in DIGESTED:
        for path in sorted(run_dir.glob(pattern)):
            files[path.name] = _sha(path.read_bytes())
    mdp = json.loads((run_dir / "mdp.json").read_text(encoding="utf-8"))
    shields = {}
    for path in sorted(run_dir.glob("shield_*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        shields[data["kind"]] = {
            "sets": _sha(_canonical([data["allowed"], data["fallback"]])),
            "scores": [x for row in data["scores"] for x in row],
            "values": data["values"],
        }
    return {"files": files, "mdp_rows": _sha(_canonical(mdp["transitions"])), "shields": shields}


def _reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(_reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return len(got) == len(want) and all(abs(a - b) <= SCORE_TOL for a, b in zip(got, want))


def compare(summary: dict, reference: dict) -> list[str]:
    problems = []
    if summary["files"].keys() != reference["files"].keys():
        problems.append(
            f"output files differ: {sorted(summary['files'])} vs {sorted(reference['files'])}"
        )
    for name, digest in summary["files"].items():
        if name in reference["files"] and digest != reference["files"][name]:
            problems.append(f"{name} differs from the reference")
    if summary["mdp_rows"] != reference["mdp_rows"]:
        problems.append("MDP transition rows differ from the reference")
    if summary["shields"].keys() != reference["shields"].keys():
        problems.append("shield kinds differ from the reference")
    for kind, got in summary["shields"].items():
        want = reference["shields"].get(kind)
        if want is None:
            continue
        if got["sets"] != want["sets"]:
            problems.append(f"shield {kind}: allowed/fallback sets differ from the reference")
        if not _close(got["scores"], want["scores"]):
            problems.append(f"shield {kind}: scores differ from the reference by more than 1e-12")
        if not _close(got["values"], want["values"]):
            problems.append(f"shield {kind}: values differ from the reference by more than 1e-12")
    return problems


def invariants(run_dir: Path, eval_steps: int) -> list[str]:
    from shieldcraft.mdp import FiniteMdp

    run_dir = Path(run_dir)
    problems = []
    defects = FiniteMdp.load(run_dir / "mdp.json").validate()
    if defects:
        problems.append(f"MDP has {len(defects)} defects, first: {defects[0]}")
    lines = (run_dir / "metrics.csv").read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for col in PERCENT_COLUMNS:
            value = float(row[col])
            if not 0.0 <= value <= 100.0:
                problems.append(f"metrics.csv: {col}={value} outside [0, 100]")
    steps = 0
    for path in run_dir.glob("episodes_*.jsonl"):
        with open(path, encoding="utf-8") as fh:
            steps += sum(json.loads(line)["steps"] for line in fh)
    if steps != eval_steps:
        problems.append(f"episode records hold {steps} steps, evaluate took {eval_steps}")
    return problems


def check_run(run_dir: Path, workload: str, seed: int, eval_steps: int) -> list[str]:
    """Every problem found in one run directory; empty when it is correct."""
    problems = invariants(run_dir, eval_steps)
    if seed == REFERENCE_SEED:
        problems += compare(summarize(run_dir), load_reference(workload))
    return problems


def capture(workloads_to_capture):
    import tempfile

    import bootstrap
    import workloads
    from shieldcraft.pipeline import run_pipeline

    REFERENCE_DIR.mkdir(exist_ok=True)
    (bootstrap.WORK / "runs").mkdir(parents=True, exist_ok=True)
    for name in workloads_to_capture or workloads.NAMES:
        with tempfile.TemporaryDirectory(dir=bootstrap.WORK / "runs") as tmp:
            run_pipeline(workloads.config(name, REFERENCE_SEED), tmp)
            summary = summarize(Path(tmp))
        summary = {"workload": name, "seed": REFERENCE_SEED, **summary}
        # mtime=0 keeps the archive bytes a function of the content alone
        with open(_reference_path(name), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(json.dumps(summary, indent=0).encode())
        print(f"captured {_reference_path(name)}")


if __name__ == "__main__":
    import argparse

    import bootstrap

    bootstrap.prepare()
    parser = argparse.ArgumentParser(description="capture seed-0 output references")
    parser.add_argument("--capture", nargs="*", metavar="WORKLOAD", required=True)
    capture(parser.parse_args().capture)
