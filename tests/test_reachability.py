"""src keeps only what a run reaches.

A subprocess installs a `sys.setprofile` hook before it imports
shieldcraft, then runs a reduced complex pipeline and every CLI
subcommand, and records the code objects that ran. Every top-level
function and class method under ``src/shieldcraft`` must have run, or be
named in `ALLOWED` with the reason it stays. An `ALLOWED` entry must name
a function, and that function must not have run.

To list every function the run does not reach, with its line count and
its reason (or "not allowed"), run

    python tests/test_reachability.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "shieldcraft"
SPECS = ROOT / "specs"

_PROBED = "perfbench's probe patches it by name (ROADMAP item 2)"
_RAISED = "exception constructor: runs only on the error it reports"

# "module.qualname" -> why it stays although no run calls it
ALLOWED = {
    "env.SpacecraftEnv.step": _PROBED,
    "env.truncated_normal": _PROBED,
    "abstraction.Partition.locate_one": _PROBED,
    "mdp.ProductMdp.initial_state": "the start state of a run in the product (ROADMAP item 3)",
    "mdp.ProductMdp.state_index": "the start state of a run in the product (ROADMAP item 3)",
    "learner.Discretizer.capacity": "the Q-table's row count (ROADMAP item 6)",
    "dfa.Dfa.from_json": "the reader of `compile --out`",
    "ltl.Formula.__eq__": "formula equality, part of the type's contract",
    "ltl.Formula.__repr__": "formula display, part of the type's contract",
    "ltl.LtlSyntaxError.__init__": _RAISED,
    "ltl.UnknownAtomError.__init__": _RAISED,
    "dfa.StateExplosionError.__init__": _RAISED,
    "env.DrawsExhaustedError.__init__": _RAISED,
    "abstraction.SimulatorFailureError.__init__": _RAISED,
    "mdp.CorruptMdpError.__init__": _RAISED,
    "shields.CorruptShieldError.__init__": _RAISED,
    "pipeline.PipelineStageError.__init__": _RAISED,
}

# episodes, rows and samples of the reduced runs
_REDUCED = {
    "samples_per_cell": 20,
    "inloop_train_episodes": 4,
    "eval_episodes": 3,
    "record_trajectories": 1,
}
_TRAIN_EPISODES = 6


def src_functions() -> dict:
    """Every top-level function and class method of the package, as
    ``{(file, first line, name): (module.qualname, line count)}``. The
    first line is the first decorator's, as in the code object's
    ``co_firstlineno``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        module = ".".join(rel.with_suffix("").parts).removesuffix("__init__").rstrip(".")
        prefix = module + "." if module else ""
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            defs = [(node, "")]
            if isinstance(node, ast.ClassDef):
                defs = [(sub, node.name + ".") for sub in node.body]
            for fn, owner in defs:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                found[(str(rel), first, fn.name)] = (
                    prefix + owner + fn.name, fn.end_lineno - first + 1,
                )
    return found


def _profiled_run(work: Path) -> list:
    """Run the reduced pipeline and every CLI subcommand under a profile
    hook installed before shieldcraft is imported; return the package's
    code objects that ran as ``[file, first line, name]``."""
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(hook)
    import shieldcraft.pipeline as pipeline
    from shieldcraft.cli import main

    preset = pipeline.default_config

    def reduced(task, seed=0):
        cfg = preset(task, seed)
        return replace(cfg, learner=replace(cfg.learner, episodes=_TRAIN_EPISODES), **_REDUCED)

    # the CLI reads its presets through the module
    pipeline.default_config = reduced
    u_spec = work / "until.ltl"
    u_spec.write_text("!a U b\n", encoding="utf-8")
    safe = str(SPECS / "power_wheel_safety.ltl")
    mdp = str(work / "mdp.json")
    runs = [
        ["pipeline", "--task", "complex", "--seed", "0", "--out", str(work / "run")],
        ["compile", "--spec", safe],
        ["compile", "--spec", str(SPECS / "imaging_once.ltl"), "--out", str(work / "dfa.json")],
        ["compile", "--spec", str(SPECS / "imaging_with_safety.ltl"), "--max-states", "100"],
        ["compile", "--spec", str(u_spec)],
        ["abstract", "--task", "complex", "--samples", "20", "--out", mdp],
        ["abstract", "--task", "complex", "--cells", "2,5,5", "--out", str(work / "coarse.json")],
        *(
            ["shield", "--mdp", mdp, "--spec", safe, "--kind", kind, "--horizon", "5",
             "--out", str(work / f"shield_{kind}.json")]
            for kind in ("one", "two", "q")
        ),
        ["train", "--task", "complex", "--shield", str(work / "shield_q.json"),
         "--out", str(work / "policy.json")],
        ["evaluate", "--config", str(work / "run" / "config.json"),
         "--policy", str(work / "policy.json"),
         "--shield", str(work / "shield_q.json"), "--episodes", "3"],
        ["report", "--runs", str(work / "run"), "--out", str(work / "report")],
    ]
    for argv in runs:
        if main(argv) != 0:
            raise SystemExit(f"shieldcraft {' '.join(argv)} failed")
    sys.setprofile(None)
    package = str(PACKAGE)
    return sorted(
        [os.path.relpath(code.co_filename, package), code.co_firstlineno, code.co_name]
        for code in ran
        if code.co_filename.startswith(package + os.sep)
    )


def reached() -> set:
    """The ``(file, first line, name)`` of every package function that the
    profiled run called, from a fresh interpreter on this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, __file__, "--profiled-run", tmp],
            env=env, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"the profiled run failed:\n{proc.stderr}")
        data = json.loads((Path(tmp) / "reached.json").read_text(encoding="utf-8"))
    return {tuple(entry) for entry in data}


def unreached(functions: dict, ran: set) -> dict:
    """``{module.qualname: line count}`` of the functions that did not run."""
    return dict(sorted(value for key, value in functions.items() if key not in ran))


# --- the gate -----------------------------------------------------------------


@pytest.fixture(scope="module")
def gate():
    """Every src function, and those the profiled run did not call."""
    functions = src_functions()
    return functions, unreached(functions, reached())


def test_every_function_runs_or_is_allowed(gate):
    _functions, missed = gate
    stray = sorted(name for name in missed if name not in ALLOWED)
    assert not stray, f"no run calls these src functions: {stray}"


def test_allowlist_names_functions(gate):
    functions, _missed = gate
    names = {name for name, _lines in functions.values()}
    unknown = sorted(set(ALLOWED) - names)
    assert not unknown, f"allowed but not src functions: {unknown}"


def test_allowed_functions_do_not_run(gate):
    functions, missed = gate
    names = {name for name, _lines in functions.values()}
    ran = sorted(name for name in ALLOWED if name in names and name not in missed)
    assert not ran, f"allowed although a run calls them: {ran}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--profiled-run"]:
        work = Path(sys.argv[2])
        data = _profiled_run(work)
        (work / "reached.json").write_text(json.dumps(data), encoding="utf-8")
        sys.exit(0)
    missed = unreached(src_functions(), reached())
    width = max(map(len, missed), default=0)
    for name, lines in missed.items():
        print(f"{name:<{width}}  {lines:4d} lines  {ALLOWED.get(name, 'not allowed')}")
    print(f"{len(missed)} functions, {sum(missed.values())} lines not reached")
