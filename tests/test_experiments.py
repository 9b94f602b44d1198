import numpy as np
import pytest

from kakeya.certifier import check_certificate_soundness
from kakeya.errors import ValidationError
from kakeya.evaluator import GridSpec, evaluate_overlap
from kakeya.experiments import extremal_search, sweep_scale
from kakeya.generators import AxisParallel, GenSpec, SmallAngle, generate
from kakeya.geometry import Cube
from kakeya.loomis_whitney import unit_ball_volume

from conftest import count_midpoint_sums, family, line_through


def template(regime=None, counts=(3, 3), seed=5):
    return GenSpec(
        2,
        counts,
        regime or SmallAngle(0.08),
        Cube.centered([0.0, 0.0], 4.0),
        seed=seed,
    )


class TestSweep:
    def test_axis_parallel_flat_slope(self):
        result = sweep_scale(
            template(AxisParallel()), [2.0, 4.0, 8.0, 16.0], 0.1, tol=5e-3, max_doublings=6
        )
        # ratios bounded by omega_1^{2} = 4 uniformly; slope near zero
        bound = unit_ball_volume(1) ** 2.0
        for row in result.rows:
            assert row.ratio <= bound + 0.05
        assert result.slope is not None and abs(result.slope) < 0.25

    def test_rows_sound(self):
        result = sweep_scale(template(), [2.0, 4.0, 8.0], 0.1, tol=1e-2)
        for row in result.rows:
            assert check_certificate_soundness(row.certificate, row.value)

    def test_deterministic(self):
        a = sweep_scale(template(), [2.0, 4.0], 0.1)
        b = sweep_scale(template(), [2.0, 4.0], 0.1)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.value.value == rb.value.value
            assert ra.ratio == rb.ratio
        assert a.slope == b.slope

    def test_monotone_in_s_for_fixed_tubes(self, rng):
        # growing the domain with the tubes held fixed never shrinks the value
        anchors = rng.uniform(-1.5, 1.5, (3, 2))
        fams = [
            family(j, 2, [line_through(a, np.eye(2)[j]) for a in anchors]) for j in range(2)
        ]
        g = GridSpec(160)
        values = [
            evaluate_overlap(fams, Cube.centered([0.0, 0.0], s), g).value
            for s in (4.0, 8.0, 16.0)
        ]
        assert values[0] <= values[1] + 1e-9 and values[1] <= values[2] + 1e-9

    def test_rejects_bad_scales(self):
        with pytest.raises(ValidationError):
            sweep_scale(template(), [4.0, 2.0], 0.1)
        with pytest.raises(ValidationError):
            sweep_scale(template(), [0.5], 0.1)


class TestSearch:
    def test_one_grid_per_step(self, monkeypatch):
        # the objective reads only the fine grid's value
        sums = count_midpoint_sums(monkeypatch)
        cube = Cube.centered([0.0, 0.0], 6.0)
        result = extremal_search(2, (3, 3), cube, budget=8, seed=3, grid=GridSpec(64))
        assert len(result.trace) == 8
        assert sums == [64] * 8

    def test_budget_one_returns_initial(self):
        cube = Cube.centered([0.0, 0.0], 6.0)
        result = extremal_search(2, (3, 3), cube, budget=1, seed=3, grid=GridSpec(64))
        assert len(result.trace) == 1
        assert result.best_ratio == result.trace[0].best_ratio

    def test_trace_best_nondecreasing_and_greedy(self):
        cube = Cube.centered([0.0, 0.0], 6.0)
        result = extremal_search(2, (3, 3), cube, budget=40, seed=4, grid=GridSpec(64))
        best = -np.inf
        for point in result.trace:
            assert point.best_ratio >= best
            best = point.best_ratio
        # greedy acceptance: within a restart, accepted ratios never decrease
        by_restart = {}
        for point in result.trace:
            prev = by_restart.get(point.restart)
            if prev is not None:
                assert point.accepted_ratio >= prev - 1e-15
            by_restart[point.restart] = point.accepted_ratio

    def test_deterministic(self):
        cube = Cube.centered([0.0, 0.0], 6.0)
        a = extremal_search(2, (3, 3), cube, budget=20, seed=9, grid=GridSpec(64))
        b = extremal_search(2, (3, 3), cube, budget=20, seed=9, grid=GridSpec(64))
        assert a.best_ratio == b.best_ratio
        assert [t.best_ratio for t in a.trace] == [t.best_ratio for t in b.trace]

    def test_concentrated_config_beats_random(self):
        # all tubes through one point at spread angles: higher overlap ratio
        # than a random spread-out configuration with the same counts
        n, count = 2, 4
        cube = Cube.centered([0.0, 0.0], 8.0)
        limit = 1.0 / (10 * n)
        concentrated = []
        for j in range(n):
            lines = []
            for i in range(count):
                ang = limit * (2 * i / (count - 1) - 1)
                d = np.eye(2)[j] + ang * np.eye(2)[1 - j]
                lines.append(line_through([0.0, 0.0], d))
            concentrated.append(family(j, 2, lines))
        random_fams = generate(GenSpec(n, (count, count), SmallAngle(limit), cube, seed=12))
        g = GridSpec(256)
        norm = float(count * count)
        conc_ratio = evaluate_overlap(concentrated, cube, g).value / norm
        rand_ratio = evaluate_overlap(random_fams, cube, g).value / norm
        assert conc_ratio >= rand_ratio

    def test_annealing_mode_runs(self):
        cube = Cube.centered([0.0, 0.0], 6.0)
        result = extremal_search(
            2, (2, 2), cube, budget=15, seed=2, grid=GridSpec(32), annealing=True
        )
        best = -np.inf
        for point in result.trace:
            assert point.best_ratio >= best
            best = point.best_ratio
