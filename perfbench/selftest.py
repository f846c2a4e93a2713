"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py

Runs one repetition of complex_fine, the workload with shields, at the
reference seed. It then checks three copies of the run directory: the clean copy must pass, and the copies with one flipped byte
of metrics.csv or one flipped allowed action of a shield must fail. Exits
with 0 only when all three turn out as expected.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import bootstrap

bootstrap.prepare()

import check  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "complex_fine"


def flip_metrics_byte(run_dir: Path) -> str:
    path = run_dir / "metrics.csv"
    data = bytearray(path.read_bytes())
    # a digit stays a digit, so the file still parses and only the
    # comparison with the reference can catch the change
    i = max(data.rfind(str(d).encode()) for d in range(10))
    old = data[i]
    data[i] = ord("0") + (old - ord("0") + 1) % 10
    path.write_bytes(bytes(data))
    return f"metrics.csv byte {i}: {chr(old)} -> {chr(data[i])}"


def flip_allowed_action(run_dir: Path) -> str:
    path = run_dir / "shield_one.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    state = next(s for s, allowed in enumerate(data["allowed"]) if allowed)
    action = data["allowed"][state].pop(0)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return f"shield_one state {state}: action {action} no longer allowed"


def main() -> int:
    cases = {"clean": None, "metrics byte": flip_metrics_byte,
             "allowed action": flip_allowed_action}
    (bootstrap.WORK / "runs").mkdir(parents=True, exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(dir=bootstrap.WORK / "runs") as tmp:
        clean = Path(tmp) / "clean"
        with probe.Probe(hot=False) as p:
            p.run(workloads.config(WORKLOAD, check.REFERENCE_SEED), clean)
        eval_steps = p.facts["eval_steps"]
        for name, corrupt in cases.items():
            run_dir = Path(tmp) / ("case_" + name.replace(" ", "_"))
            shutil.copytree(clean, run_dir)
            what = corrupt(run_dir) if corrupt else "unchanged"
            problems = check.check_run(run_dir, WORKLOAD, check.REFERENCE_SEED, eval_steps)
            caught = bool(problems)
            expected = corrupt is not None
            ok &= caught == expected
            verdict = "ok" if caught == expected else "WRONG"
            print(f"{verdict:5s} {name:14s} ({what}): {problems or 'passes'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
