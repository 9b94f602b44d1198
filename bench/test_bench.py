"""Tests of the benchmark's own arithmetic, hooks and output checks.

Run with: python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import arith  # noqa: E402
import hooks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_self_times_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child g [2, 3]
    parents = [-1, 0, 1, 0]
    durations = [10.0, 3.0, 1.0, 4.0]
    assert arith.self_times(parents, durations).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_durations():
    rng = np.random.default_rng(3)
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, 50)]
    durations = rng.uniform(0.0, 1.0, 50)
    assert math.isclose(arith.self_times(parents, durations).sum(), durations[0])


@pytest.mark.parametrize(
    "count, value, pct",
    [(20, 10, 50.0), (100, 90, 90.0), (11, 1, 100.0 / 11), (10, 10, 100.0), (1, 1, 100.0)],
)
def test_tail_leaves_ten_samples_beyond(count, value, pct):
    samples = list(range(count, 0, -1))  # order must not matter
    got, got_pct = arith.tail(samples)
    assert got == value and math.isclose(got_pct, pct)
    if count > arith.TAIL_BEYOND:
        assert sum(s > got for s in samples) == arith.TAIL_BEYOND


def test_eval_cells_count_the_half_grid():
    fine, coarse = arith.eval_cells(56, 3)
    assert (fine, coarse) == (56**3, 28**3)
    assert (fine + coarse) * 36 == 7_112_448  # the quadrature eval job
    assert arith.eval_cells(7, 2) == (49, 0)  # odd grids have no error level


def test_lw_cells():
    assert arith.lw_cells(128, 3, degenerate=False) == 128**3 + 64**3
    assert arith.lw_cells(128, 3, degenerate=True) == 128**3
    assert arith.lw_cells(1, 2, degenerate=False) == 2


def test_rows_of_points_and_boxes():
    assert arith.rows(np.zeros((40_000, 2))) == 40_000
    assert arith.rows(np.zeros(3)) == 1
    counts = hooks.Counts()
    hooks._count_pairs(counts, (None, np.zeros((400, 2)), np.ones((400, 2))), {}, None)
    hooks._count_points(counts, (), {"points": np.zeros((4096, 2)), "line": None}, None)
    assert counts["geometry.box_distance.pairs"] == 400
    assert counts["geometry.point_distance.points"] == 4096


def test_nominal_certifier_and_evaluator_counts():
    families = [SimpleNamespace(members=(1,) * 16), SimpleNamespace(members=(1,) * 16)]
    details = (SimpleNamespace(subcube_count=10_000), SimpleNamespace(subcube_count=400), None)
    counts = hooks.Counts()
    hooks._count_certify(counts, (families, None, 0.2), {}, SimpleNamespace(step_details=details))
    assert counts["certifier.subcubes"] == 10_400
    assert counts["certifier.subcube_tests"] == 10_400 * 32
    assert counts["certifier.details_skipped"] == 1
    grid = SimpleNamespace(cells_per_side=128)
    hooks._count_eval(counts, (families, SimpleNamespace(n=2)), {"grid": grid}, None)
    assert counts["evaluator.cells"] == 128**2 + 64**2
    assert counts["evaluator.coarse_cells"] == 64**2
    assert counts["evaluator.member_cell_tests"] == (128**2 + 64**2) * 32


def test_search_accepts():
    point = SimpleNamespace
    trace = [point(restart=0, accepted_ratio=1.0), point(restart=0, accepted_ratio=1.0),
             point(restart=0, accepted_ratio=2.0), point(restart=1, accepted_ratio=0.5),
             point(restart=1, accepted_ratio=0.7)]
    assert arith.search_accepts(trace) == (2, 3)


def test_tracer_wraps_every_binding_and_reports_missing_hooks():
    home = types.ModuleType("kakeya.benchfake")
    other = types.ModuleType("kakeya.benchother")

    def inner():
        return 1

    def outer():
        return home.inner() + other.inner_alias()

    home.inner, home.outer, other.inner_alias = inner, outer, inner
    table = (
        hooks.Hook("cli", "benchfake", "outer", frozenset({"search"})),
        hooks.Hook("evaluator", "benchfake", "inner", frozenset({"search"})),
        hooks.Hook("evaluator", "benchfake", "gone", frozenset({"search"})),
        hooks.Hook("certifier", "benchfake", "outer", frozenset({"certify"})),
    )
    sys.modules[home.__name__], sys.modules[other.__name__] = home, other
    try:
        tracer = hooks.Tracer(table[:3])
        with tracer.installed():
            assert home.outer() == 2
        assert home.inner is inner and other.inner_alias is inner
        assert tracer.calls == [1, 2, 0]
        spans = tracer.spans()
        assert spans["parent"].tolist() == [-1, 0, 0]
        assert tracer.missing_hooks("search") == ["benchfake.gone (absent)"]
        idle = hooks.Tracer(table[3:])
        with idle.installed():
            pass
        assert idle.missing_hooks("certify") == ["benchfake.outer (never called)"]
        assert idle.missing_hooks("search") == []
    finally:
        del sys.modules[home.__name__], sys.modules[other.__name__]


def test_per_layer_metrics_match_benchmark_json():
    metrics = hooks.Tracer().metrics("search", jobs=1, failed=0, job_wall_s=1.0,
                                     overhead_frac=0.0, threads2_speedup=0.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared


def test_end_to_end_metrics_match_benchmark_json(capsys):
    runner = SimpleNamespace(slots=jobs.WORKLOADS["quadrature"])
    samples = {"job1": [1.0] * 12, "job2": [0.5] * 12}
    metrics = run.end_to_end(runner, samples, setup_s=0.2)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(jobs.WORKLOADS)


def test_checks_accept_good_and_reject_bad_outputs():
    config = {"n": 3, "cube": {"side": 2.0},
              "families": [{"members": [{"weight": 1.0}] * 4}] * 3}
    upper = jobs.eval_upper_bound(config)
    assert upper == 8.0 * 2.0**3
    assert jobs.check_eval({"value": upper}, upper) is None
    assert jobs.check_eval({"value": float("nan")}, upper)
    assert jobs.check_eval({"value": -1.0}, upper)
    assert jobs.check_verify_lw({"max_excess": -0.5}, None) is None
    assert jobs.check_verify_lw({"max_excess": 1e-9}, None)
    assert jobs.check_certify({"final_bound": 5.0}, 4.0) is None
    assert jobs.check_certify({"final_bound": 5.0}, 6.0)
    assert jobs.check_reduce({"problems": [{"distortion_factor": 1.0}]}, None) is None
    assert jobs.check_reduce({"problems": []}, None)
    assert jobs.check_reduce({"problems": [{"distortion_factor": 0.9}]}, None)
    trace = [{"best_ratio": 1.0}, {"best_ratio": 2.0}]
    assert jobs.check_search({"best_ratio": 2.0, "trace": trace}, None) is None
    assert jobs.check_search({"best_ratio": 1.0, "trace": trace[::-1]}, None)


def test_derived_seeds_are_stable_and_distinct():
    a = jobs.derive_seed("search", 7, "job1", 0)
    assert a == jobs.derive_seed("search", 7, "job1", 0)
    assert a != jobs.derive_seed("search", 7, "job2", 0)
    assert 0 <= a < 2**63
