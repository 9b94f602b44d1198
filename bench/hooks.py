"""Per-layer trace: wraps kakeya's public functions where they are called.

The hook table names public functions by their defining module: those where
one layer calls into another, and those whose arguments give a work count.
Installing the trace replaces each in every ``kakeya`` module namespace that
binds it (``evaluator.point_line_distance``, ``certifier.line_box_distance``,
...), so calls between modules are seen without editing the package.  A span
records hook, start, end, parent span and job id; spans stay in memory and
are written out once, at the end of the run.

Work counts are nominal, computed at the wrapper from call arguments and
results (grid size times members, boxes per call), so they keep their meaning
when a kernel stops testing every cell.  Traced jobs run with one thread: the
span stack is not per thread.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import arith

ALL = frozenset({"quadrature", "certify", "search"})
QUADRATURE = frozenset({"quadrature"})
CERTIFY = frozenset({"certify"})
SEARCH = frozenset({"search"})


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_bytes_out(c, args, kwargs, result):
    c["serialization.bytes_out"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_members(c, args, kwargs, result):
    c["generators.members"] += sum(_arg(args, kwargs, 0, "spec").counts)


def _count_points(c, args, kwargs, result):
    c["geometry.point_distance.points"] += arith.rows(_arg(args, kwargs, 0, "points"))


def _count_pairs(c, args, kwargs, result):
    c["geometry.box_distance.pairs"] += arith.rows(_arg(args, kwargs, 1, "lo"))


def _count_caps(c, args, kwargs, result):
    c["geometry.cap_cover.caps"] += len(result)


def _count_eval(c, args, kwargs, result):
    families = _arg(args, kwargs, 0, "families")
    cube = _arg(args, kwargs, 1, "cube")
    m = _arg(args, kwargs, 2, "grid").cells_per_side
    fine, coarse = arith.eval_cells(m, cube.n)
    c["evaluator.cells"] += fine + coarse
    c["evaluator.coarse_cells"] += coarse
    c["evaluator.member_cell_tests"] += (fine + coarse) * arith.member_count(families)


def _count_hits(c, args, kwargs, result):
    # with unit weights the weighted indicator sum is the number of hits
    family = _arg(args, kwargs, 0, "family")
    if all(m.weight == 1.0 for m in family.members):
        c["evaluator.hits"] += float(np.sum(result))


def _count_lw(c, args, kwargs, result):
    box = _arg(args, kwargs, 1, "box")
    m = _arg(args, kwargs, 2, "grid").cells_per_side
    c["loomis_whitney.cells"] += arith.lw_cells(m, box.n, result.degenerate)


def _count_certify(c, args, kwargs, result):
    members = arith.member_count(_arg(args, kwargs, 0, "families"))
    for detail in result.step_details:
        if detail is None:
            c["certifier.details_skipped"] += 1
        else:
            c["certifier.subcubes"] += detail.subcube_count
            c["certifier.subcube_tests"] += detail.subcube_count * members


def _record_slack(c, args, kwargs, result):
    bound = _arg(args, kwargs, 0, "certificate").final_bound
    value = _arg(args, kwargs, 1, "value").value
    if value > 0.0 and bound > 0.0:
        c.slack.append(math.log10(bound / value))


def _count_problems(c, args, kwargs, result):
    c["reduction.problems"] += len(result)


def _count_search(c, args, kwargs, result):
    accepted, steps = arith.search_accepts(result.trace)
    c["experiments.steps"] += len(result.trace)
    c["experiments.accepted"] += accepted
    c["experiments.moves"] += steps


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str  # defining module under ``kakeya``
    name: str
    workloads: frozenset  # the workloads on which it must be called
    count: Callable | None = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


HOOKS = (
    Hook("cli", "cli", "main", ALL),
    Hook("serialization", "serialization", "load_json", ALL),
    Hook("serialization", "serialization", "dump_json", ALL, _count_bytes_out),
    Hook("serialization", "serialization", "config_from_json", QUADRATURE | CERTIFY),
    Hook("serialization", "serialization", "cube_from_json", ALL),
    Hook("generators", "generators", "generate", SEARCH, _count_members),
    Hook("geometry.point_distance", "geometry", "point_line_distance", ALL, _count_points),
    Hook("geometry.box_distance", "geometry", "line_box_distance", CERTIFY, _count_pairs),
    Hook("geometry.cap_cover", "geometry", "cap_cover", CERTIFY, _count_caps),
    Hook("evaluator", "evaluator", "evaluate_overlap", ALL, _count_eval),
    Hook("evaluator", "evaluator", "family_values", ALL, _count_hits),
    Hook("loomis_whitney", "loomis_whitney", "verify_lw", QUADRATURE, _count_lw),
    Hook("certifier", "certifier", "certify_multiscale", CERTIFY, _count_certify),
    Hook("certifier", "certifier", "check_certificate_soundness", CERTIFY, _record_slack),
    Hook("reduction", "reduction", "reduce_general_to_small_angle", CERTIFY, _count_problems),
    Hook("experiments", "experiments", "extremal_search", SEARCH, _count_search),
)

LAYERS = (
    "cli",
    "serialization",
    "generators",
    "geometry.point_distance",
    "geometry.box_distance",
    "geometry.cap_cover",
    "evaluator",
    "loomis_whitney",
    "certifier",
    "reduction",
    "experiments",
)


class Counts(defaultdict):
    """Work counters keyed by metric name, plus certificate slacks."""

    def __init__(self):
        super().__init__(float)
        self.slack = []


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.job = -1
        self.counts = Counts()
        self.calls = [0] * len(hooks)
        self.absent = []  # hooks whose function no longer exists
        self._stack = []
        self._hook = array("i")
        self._parent = array("q")
        self._job = array("i")
        self._start = array("d")
        self._end = array("d")

    def _wrap(self, index: int, fn, count):
        stack = self._stack
        hook_ids, parents, job_ids = self._hook, self._parent, self._job
        starts, ends = self._start, self._end
        calls, counts = self.calls, self.counts

        def traced(*args, **kwargs):
            span = len(starts)
            hook_ids.append(index)
            parents.append(stack[-1] if stack else -1)
            job_ids.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            calls[index] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every hooked function; restore them after."""
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kakeya" or name.startswith("kakeya."))]
        replaced = []
        try:
            for index, hook in enumerate(self.hooks):
                home = sys.modules.get(f"kakeya.{hook.module}")
                fn = getattr(home, hook.name, None) if home is not None else None
                if not callable(fn):
                    self.absent.append(index)
                    continue
                traced = self._wrap(index, fn, hook.count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)
                            replaced.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(replaced):
                setattr(module, attr, fn)

    # -----------------------------------------------------------------------

    def spans(self) -> dict:
        return {
            "hook": np.frombuffer(self._hook, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "job": np.frombuffer(self._job, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=float).copy(),
            "end": np.frombuffer(self._end, dtype=float).copy(),
        }

    def missing_hooks(self, workload: str) -> list[str]:
        """Hooks that no longer exist, or that this workload never called."""
        missing = [self.hooks[i].qualname + " (absent)" for i in self.absent]
        missing += [
            h.qualname + " (never called)"
            for i, h in enumerate(self.hooks)
            if i not in self.absent and workload in h.workloads and self.calls[i] == 0
        ]
        return missing

    def metrics(self, workload: str, *, jobs: int, failed: int, job_wall_s: float,
                overhead_frac: float, threads2_speedup: float) -> dict:
        """Per-layer metrics of the traced jobs; times and counts are per job."""
        spans = self.spans()
        duration = spans["end"] - spans["start"]
        own = arith.self_times(spans["parent"], duration)
        layer_of = np.array([LAYERS.index(h.layer) for h in self.hooks], dtype=np.int64)
        span_layer = layer_of[spans["hook"]]
        layer_self = np.bincount(span_layer, weights=own, minlength=len(LAYERS))
        hook_total = np.bincount(spans["hook"], weights=duration, minlength=len(self.hooks))

        def self_s(layer):
            return float(layer_self[LAYERS.index(layer)])

        def total_s(qualname):
            return float(sum(hook_total[i] for i, h in enumerate(self.hooks)
                             if h.qualname == qualname))

        def calls(qualname):
            return sum(self.calls[i] for i, h in enumerate(self.hooks) if h.qualname == qualname)

        def rate(work, seconds):
            return work / seconds if seconds > 0.0 else 0.0

        c = self.counts
        per_job = 1.0 / max(jobs, 1)
        eval_calls = calls("evaluator.evaluate_overlap")
        tests = c["evaluator.member_cell_tests"]
        cells = c["evaluator.cells"]
        moves = c["experiments.moves"]
        s, n, x, frac = "s/job", "count/job", "x", "frac"
        out = {
            "cli.self_s": (self_s("cli") * per_job, s),
            "cli.jobs": (jobs, "count"),
            "cli.failed": (failed, "count"),
            "serialization.self_s": (self_s("serialization") * per_job, s),
            "serialization.bytes_out": (c["serialization.bytes_out"] * per_job, "B/job"),
            "generators.self_s": (self_s("generators") * per_job, s),
            "generators.members": (c["generators.members"] * per_job, n),
            "geometry.point_distance.calls": (calls("geometry.point_line_distance") * per_job, n),
            "geometry.point_distance.points": (c["geometry.point_distance.points"] * per_job, n),
            "geometry.point_distance.self_s": (self_s("geometry.point_distance") * per_job, s),
            "geometry.point_distance.points_per_s": (
                rate(c["geometry.point_distance.points"], self_s("geometry.point_distance")),
                "1/s"),
            "geometry.box_distance.calls": (calls("geometry.line_box_distance") * per_job, n),
            "geometry.box_distance.pairs": (c["geometry.box_distance.pairs"] * per_job, n),
            "geometry.box_distance.self_s": (self_s("geometry.box_distance") * per_job, s),
            "geometry.box_distance.pairs_per_s": (
                rate(c["geometry.box_distance.pairs"], self_s("geometry.box_distance")), "1/s"),
            "geometry.cap_cover.self_s": (self_s("geometry.cap_cover") * per_job, s),
            "geometry.cap_cover.caps": (c["geometry.cap_cover.caps"] * per_job, n),
            "evaluator.self_s": (self_s("evaluator") * per_job, s),
            "evaluator.calls": (eval_calls * per_job, n),
            "evaluator.cells": (cells * per_job, n),
            "evaluator.member_cell_tests": (tests * per_job, n),
            "evaluator.tests_per_s": (rate(tests, total_s("evaluator.evaluate_overlap")), "1/s"),
            "evaluator.s_per_call": (
                total_s("evaluator.evaluate_overlap") / eval_calls if eval_calls else 0.0, "s"),
            "evaluator.test_frac": (
                c["geometry.point_distance.points"] / tests if tests else 0.0, frac),
            "evaluator.hit_frac": (c["evaluator.hits"] / tests if tests else 0.0, frac),
            "evaluator.coarse_frac": (c["evaluator.coarse_cells"] / cells if cells else 0.0, frac),
            "evaluator.threads2_speedup": (threads2_speedup, x),
            "loomis_whitney.self_s": (self_s("loomis_whitney") * per_job, s),
            "loomis_whitney.cells": (c["loomis_whitney.cells"] * per_job, n),
            "loomis_whitney.cells_per_s": (
                rate(c["loomis_whitney.cells"], total_s("loomis_whitney.verify_lw")), "1/s"),
            "certifier.self_s": (self_s("certifier") * per_job, s),
            "certifier.subcubes": (c["certifier.subcubes"] * per_job, n),
            "certifier.subcube_tests": (c["certifier.subcube_tests"] * per_job, n),
            "certifier.tests_per_s": (
                rate(c["certifier.subcube_tests"], total_s("certifier.certify_multiscale")),
                "1/s"),
            "certifier.details_skipped": (c["certifier.details_skipped"] * per_job, n),
            "certifier.slack_log10": (arith.median(c.slack) if c.slack else 0.0, "log10"),
            "reduction.self_s": (self_s("reduction") * per_job, s),
            "reduction.problems": (c["reduction.problems"] * per_job, n),
            "reduction.problems_per_s": (
                rate(c["reduction.problems"],
                     total_s("reduction.reduce_general_to_small_angle")), "1/s"),
            "experiments.self_s": (self_s("experiments") * per_job, s),
            "experiments.steps": (c["experiments.steps"] * per_job, n),
            "experiments.accept_frac": (c["experiments.accepted"] / moves if moves else 0.0, frac),
            "trace.overhead_frac": (overhead_frac, frac),
            "trace.coverage": (float(layer_self.sum()) / job_wall_s if job_wall_s else 0.0, frac),
            "trace.missing_hooks": (len(self.missing_hooks(workload)), "count"),
        }
        return {k: (float(v), unit) for k, (v, unit) in out.items()}

    def write(self, path, meta: dict) -> None:
        """Write the spans and the run's metadata once, at the end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = np.array([h.qualname for h in self.hooks])
        np.savez(path, names=names, meta=np.array(json.dumps(meta)), **self.spans())
