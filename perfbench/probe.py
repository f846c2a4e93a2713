"""Measurement from outside the program.

A ``Probe`` replaces public functions and methods that the pipeline calls
with timing wrappers, runs the pipeline, and puts the originals back. It
touches no code under ``src/``.

Two depths:

* ``Probe(hot=False)`` wraps only the stage calls ``run_pipeline`` makes
  (``build_specs``, ``estimate_transitions``, ``abstraction_report``,
  ``product``, ``synthesize``, ``train``, ``evaluate``): a few dozen calls
  per repetition. It also counts the env steps taken inside ``train`` and
  ``evaluate`` with a bare counter on the session, which reads no clock.
  The untraced run uses this depth.
* ``Probe(hot=True)`` adds counters around the per-step calls (env step,
  noise draw, kernels, discretizer, monitor advance, DFA step, shield
  filter, ``locate_one``). They number in the millions, so each keeps a
  call count and summed inclusive and self nanoseconds per stage, not one
  span per call.

Spans (name, start, end, parent, self time) are kept in memory for the
stage calls and for the root of each repetition. A wrapper's self time is
its duration minus the time spent in wrapped calls it made.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

import shieldcraft._kernels as kernels
import shieldcraft.env as env_mod
import shieldcraft.pipeline as pipeline
import shieldcraft.rewards as rewards_mod
from shieldcraft.abstraction import Partition
from shieldcraft.dfa import Dfa
from shieldcraft.env import SpacecraftEnv
from shieldcraft.learner import Discretizer
from shieldcraft.shields import Shield, ShieldRuntime

STAGES = ("compile", "abstract", "shields", "train", "evaluate")
SHIELD_KINDS = ("one", "two", "q")

_clock = time.perf_counter_ns


def _kind(runtime) -> str:
    return "none" if runtime is None else runtime.shield.kind


class Probe:
    def __init__(self, hot: bool, peak_memory: bool = False):
        self.hot = hot
        self.peak_memory = peak_memory
        self._undo = []
        # child ns of each active wrapped call; the base entry catches calls
        # made outside any span
        self._stack = [0]
        self._open = []  # indices of open spans
        self._records = {}  # counter name -> [calls, ns, self_ns, tally], whole rep
        self.reset()

    def reset(self):
        """Forget everything recorded; call between repetitions."""
        self.spans = []
        self.counters = defaultdict(dict)  # stage -> name -> [calls, ns, self_ns, tally]
        self.facts = defaultdict(int)  # exact counts and summed stage times
        for rec in self._records.values():
            rec[:] = [0, 0, 0, 0]

    # --- installation -------------------------------------------------------

    def __enter__(self):
        stage_calls = (
            ("build_specs", "compile", None, self._after_specs),
            ("estimate_transitions", "abstract", None, self._after_estimate),
            ("abstraction_report", "abstract", None, self._after_report),
            ("product", "shields", None, self._after_product),
            ("synthesize", "shields", self._before_synthesize, self._after_synthesize),
            ("train", "train", self._before_train, self._after_train),
            ("evaluate", "evaluate", self._before_evaluate, self._after_evaluate),
        )
        for name, stage, before, after in stage_calls:
            self._patch(pipeline, name, lambda fn, n=name, s=stage, b=before, a=after:
                        self._span(n, s, fn, b, a))
        if self.hot:
            hot_calls = (
                (SpacecraftEnv, "step", "env.step", None),
                (SpacecraftEnv, "reset", "env.reset", None),
                (SpacecraftEnv, "sample_in_cell", "env.sample_in_cell", None),
                (env_mod, "truncated_normal", "env.noise", None),
                (kernels, "step_one", "kernels.step_one", None),
                (kernels, "step_batch", "kernels.step_batch", lambda a, r: len(a[0])),
                (Discretizer, "__call__", "learner.discretize", None),
                (rewards_mod, "advance", "rewards.advance", None),
                (Dfa, "step", "dfa.step", None),
                (pipeline, "compile_cosafe", "dfa.compile", None),
                (pipeline, "monitor_product", "dfa.compile", None),
                (Partition, "locate_one", "abstraction.locate_one", None),
                (ShieldRuntime, "filter", "shields.filter", lambda a, r: r.intervened),
                # the runtime falls back when the product state allows nothing
                (Shield, "filter", "shields.decide", lambda a, r: not a[0].allowed[a[1]]),
            )
            for owner, attr, name, tally in hot_calls:
                self._patch(owner, attr, lambda fn, n=name, t=tally: self._counter(n, fn, t))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        if tracemalloc.is_tracing():  # a synthesize call raised
            tracemalloc.stop()
        return False

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # --- wrappers -----------------------------------------------------------

    def _counter(self, name, fn, tally):
        """Wrap a per-step call. The record is found once here, not per
        call; stage spans attribute its growth to their stage."""
        stack = self._stack
        rec = self._records.setdefault(name, [0, 0, 0, 0])

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                stack[-1] += dt
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child
            if tally is not None:
                rec[3] += tally(args, result)
            return result

        return wrapper

    def _span(self, name, stage, fn, before, after):
        def wrapper(*args, **kwargs):
            label = before(args, kwargs) if before else name
            start = {k: rec[:] for k, rec in self._records.items()}
            try:
                dt, result = self._timed(f"{stage}:{label}", fn, args, kwargs)
            finally:
                bucket = self.counters[stage]
                for k, rec in self._records.items():
                    grown = [a - b for a, b in zip(rec, start[k])]
                    if grown[0]:
                        total = bucket.setdefault(k, [0, 0, 0, 0])
                        total[:] = [a + b for a, b in zip(total, grown)]
            self.facts[f"stage_ns.{stage}"] += dt
            after(args, kwargs, result, dt)
            return result

        return wrapper

    def _timed(self, name, fn, args=(), kwargs=None):
        self._stack.append(0)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        t0 = _clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = _clock()
            self._open.pop()
            child = self._stack.pop()
            self._stack[-1] += t1 - t0
            self.spans[index] = {
                "name": name, "start_ns": t0, "end_ns": t1,
                "parent": parent, "self_ns": (t1 - t0) - child,
            }
        return t1 - t0, result

    def run(self, cfg, out_dir):
        """One repetition: ``run_pipeline`` under a root span; returns its
        wall time in seconds and the pipeline result."""
        dt, result = self._timed("rep", pipeline.run_pipeline, (cfg, out_dir))
        return dt * 1e-9, result

    # --- stage hooks --------------------------------------------------------

    def _count_steps(self, session, key):
        step = session.step
        facts = self.facts

        def counted(action, rng):
            facts[key] += 1
            return step(action, rng)

        session.step = counted

    def _before_train(self, args, kwargs):
        self._count_steps(args[0], "train_steps")
        return f"train[{_kind(kwargs.get('shield_runtime'))}]"

    def _after_train(self, args, kwargs, result, dt):
        self.facts["train_ns"] += dt
        self.facts["qtable_rows"] += len(result.qtable)

    def _before_evaluate(self, args, kwargs):
        self._count_steps(args[1], "eval_steps")
        return f"evaluate[{_kind(kwargs.get('shield_runtime'))}]"

    def _after_evaluate(self, args, kwargs, result, dt):
        self.facts["eval_ns"] += dt

    def _after_specs(self, args, kwargs, result, dt):
        self.facts["monitor_states"] = result.monitors["liveness_and_safety"].n_states

    def _after_estimate(self, args, kwargs, result, dt):
        sim, partition, abs_cfg = args
        rows = partition.n_cells * len(sim.action_names)
        self.facts["estimate_ns"] += dt
        self.facts["abstraction_rows"] += rows
        self.facts["abstraction_samples"] += rows * abs_cfg.samples_per_cell

    def _after_report(self, args, kwargs, result, dt):
        self.facts["report_ns"] += dt

    def _after_product(self, args, kwargs, result, dt):
        self.facts["product_ns"] += dt
        self.facts["product_states"] = result.n_states
        self.facts["product_entries"] = sum(len(row) for row in result.rows.values())
        # the dense (A, S, S) float64 tensor every synthesize call builds
        self.facts["tensor_bytes"] = result.n_actions * result.n_states ** 2 * 8

    def _before_synthesize(self, args, kwargs):
        if self.peak_memory:
            tracemalloc.start()
        return f"synthesize[{args[1].kind}]"

    def _after_synthesize(self, args, kwargs, result, dt):
        if self.peak_memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.facts["synthesize_peak_bytes"] = max(self.facts["synthesize_peak_bytes"], peak)
        self.facts[f"synthesize_ns.{args[1].kind}"] += dt
        self.facts["empty_allowed_states"] += sum(1 for allowed in result.allowed if not allowed)

    # --- results ------------------------------------------------------------

    def counts(self) -> dict:
        """Every exact count of the repetition, by name; two runs at one
        seed must give equal dicts."""
        out = {k: v for k, v in self.facts.items()
               if not k.endswith(("_ns", "_bytes")) and "_ns." not in k}
        tables = dict(self.counters, total=self._records)
        for stage, table in tables.items():
            for name, (calls, _ns, _self_ns, tally) in table.items():
                out[f"{stage}.{name}.calls"] = calls
                out[f"{stage}.{name}.tally"] = tally
        return dict(sorted(out.items()))

    def layer(self, name):
        """(calls, inclusive ns, self ns, tally) of one counter over the
        whole repetition."""
        return self._records.get(name, [0, 0, 0, 0])


def wrapper_cost_ns(calls: int = 200_000) -> float:
    """Added cost of one counter wrapper around an empty call, in ns."""

    def noop():
        return None

    def loop(fn):
        t0 = _clock()
        for _ in range(calls):
            fn()
        return _clock() - t0

    wrapped = Probe(hot=False)._counter("noop", noop, None)
    bare = min(loop(noop) for _ in range(3))
    traced = min(loop(wrapped) for _ in range(3))
    return max(0.0, (traced - bare) / calls)
