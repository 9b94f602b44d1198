import math

import numpy as np
import pytest

from kakeya.errors import ValidationError
from kakeya.evaluator import GridSpec, evaluate_overlap
from kakeya.generators import random_lw_instance
from kakeya.geometry import Cube
from kakeya.loomis_whitney import (
    BallSum,
    Box,
    ProjectionFunction,
    ball_sum_to_grid,
    lw_right,
    project,
    unit_ball_volume,
    verify_lw,
)

from conftest import axis_tube_family
from lemmas import ball_sum_l1, lookup


def lw_left(fs, box, grid):
    """The left side as ``verify_lw`` computes it."""
    return verify_lw(fs, box, grid).left


def unit_indicator(n):
    """Indicator of the unit cube in R^(n-1) as a one-cell grid function."""
    return ProjectionFunction(Box(np.zeros(n - 1), np.ones(n - 1)), np.ones((1,) * (n - 1)))


class TestProject:
    def test_middle_axis(self):
        assert np.allclose(project([1.0, 2.0, 3.0], 1), [1.0, 3.0])

    def test_first_axis(self):
        assert np.allclose(project([4.0, 7.0], 0), [7.0])

    def test_rejects_dimension_one(self):
        with pytest.raises(ValidationError):
            project([5.0], 0)

    def test_array_input(self):
        pts = np.arange(12.0).reshape(4, 3)
        assert project(pts, 2).shape == (4, 2)


class TestLwLeft:
    def test_unit_cube_indicators(self):
        for n in (2, 3):
            fs = [unit_indicator(n)] * n
            box = Box(np.zeros(n), np.ones(n))
            val = lw_left(fs, box, GridSpec(16))
            assert abs(val - 1.0) < 0.01

    def test_zero_function(self):
        n = 2
        zero = ProjectionFunction(Box(np.zeros(1), np.ones(1)), np.zeros((4,)))
        fs = [unit_indicator(n), zero]
        assert lw_left(fs, Box(np.zeros(2), np.ones(2)), GridSpec(8)) == 0.0

    def test_interval_indicators(self):
        # f_1 = f_2 = indicator of [0, 2]: integral over [0,2]^2 is 4
        f = ProjectionFunction(Box(np.zeros(1), 2.0 * np.ones(1)), np.ones((2,)))
        box = Box(np.zeros(2), 2.0 * np.ones(2))
        assert abs(lw_left([f, f], box, GridSpec(16)) - 4.0) < 0.04

    def test_rejects_escaping_projection(self):
        fs = [unit_indicator(2)] * 2
        box = Box(np.zeros(2), 3.0 * np.ones(2))
        with pytest.raises(ValidationError):
            lw_left(fs, box, GridSpec(8))


class TestLookup:
    f = ProjectionFunction(Box(np.array([0.0, 1.0]), np.array([2.0, 4.0])), np.arange(8.0).reshape(2, 4))

    def test_nearest_cell_values(self):
        assert list(lookup(self.f, [[0.5, 1.5], [1.5, 3.5], [2.0, 5.0]])) == [0.0, 6.0, 7.0]
        assert self.f.lookup_grid([np.array([0.5, 1.5]), np.array([1.5, 4.9])]).tolist() == [
            [0.0, 3.0],
            [4.0, 7.0],
        ]

    @pytest.mark.parametrize("point", [[-0.01, 2.0], [2.01, 2.0], [1.0, 0.99], [1.0, 5.01]])
    def test_raises_outside_the_box(self, point):
        with pytest.raises(ValidationError, match="outside the function's box"):
            lookup(self.f, [point])
        with pytest.raises(ValidationError, match="outside the function's box"):
            self.f.lookup_grid([np.array([point[0]]), np.array([point[1]])])

    def test_rejects_points_of_another_dimension(self):
        with pytest.raises(ValidationError):
            lookup(self.f, [[0.5, 1.5, 0.0]])

    def test_tolerates_rounding_at_the_faces(self):
        # 1e-9 of the longest side
        assert list(lookup(self.f, [[-3e-9, 5.0 + 3e-9]])) == [3.0]


class TestLwRight:
    def test_unit_indicators(self):
        assert lw_right([unit_indicator(3)] * 3) == 1.0

    def test_scaling_homogeneity(self):
        n = 3
        f = unit_indicator(n)
        lam = 5.0
        scaled = ProjectionFunction(f.box, lam * f.values)
        base = lw_right([f, f, f])
        assert abs(lw_right([scaled, f, f]) - lam ** 0.5 * base) < 1e-12

    def test_zero(self):
        zero = ProjectionFunction(Box(np.zeros(1), np.ones(1)), np.zeros((3,)))
        assert lw_right([unit_indicator(2), zero]) == 0.0


class TestVerifyLw:
    def test_equality_case(self):
        for n in (2, 3):
            fs = [unit_indicator(n)] * n
            box = Box(np.zeros(n), np.ones(n))
            check = verify_lw(fs, box, GridSpec(16))
            assert abs(check.ratio - 1.0) < 0.01
            assert not check.degenerate

    def test_random_suite(self):
        for n in (2, 3, 4):
            for seed in range(40):
                fs, box, grid = random_lw_instance(n, 1000 * n + seed)
                check = verify_lw(fs, box, grid)
                if check.degenerate:
                    continue
                assert check.ratio <= 1.0 + check.error_estimate
                # on the unit cube's faces, n = 2 is the equality case
                assert n > 2 or abs(check.ratio - 1.0) <= check.error_estimate

    def test_fields_are_python_floats(self):
        check = verify_lw(*random_lw_instance(3, 7))
        assert not check.degenerate
        assert {type(v) for v in (check.left, check.right, check.ratio,
                                  check.error_estimate)} == {float}

    def test_disjoint_supports_strict(self):
        # disjointly supported halves with overlapping projections: strict gap
        left = np.zeros((2, 2))
        left[0, :] = 1.0
        right = np.zeros((2, 2))
        right[1, :] = 1.0
        box3 = Box(np.zeros(2), np.ones(2))
        f1 = ProjectionFunction(box3, left)
        f2 = ProjectionFunction(box3, right)
        f3 = ProjectionFunction(box3, np.ones((2, 2)))
        check = verify_lw([f1, f2, f3], Box(np.zeros(3), np.ones(3)), GridSpec(16))
        assert check.ratio < 1.0 - 0.2

    def test_degenerate_zero_over_zero(self):
        zero = ProjectionFunction(Box(np.zeros(1), np.ones(1)), np.zeros((2,)))
        check = verify_lw([zero, zero], Box(np.zeros(2), np.ones(2)), GridSpec(8))
        assert check.degenerate and check.ratio == 0.0

    def test_permutation_invariance(self):
        # permuting coordinate axes consistently leaves both sides unchanged
        rng = np.random.default_rng(5)
        vals = [rng.uniform(0, 1, (3, 3)) for _ in range(3)]
        box2 = Box(np.zeros(2), np.ones(2))
        fs = [ProjectionFunction(box2, v) for v in vals]
        box = Box(np.zeros(3), np.ones(3))
        base = verify_lw(fs, box, GridSpec(12))
        # swap axes 0 and 1: f_0 and f_1 swap, and their grids transpose the
        # remaining coordinates accordingly; f_2's two coordinates swap
        perm_fs = [
            ProjectionFunction(box2, vals[1]),
            ProjectionFunction(box2, vals[0]),
            ProjectionFunction(box2, vals[2].T),
        ]
        perm = verify_lw(perm_fs, box, GridSpec(12))
        assert abs(base.left - perm.left) < 1e-12
        assert abs(base.right - perm.right) < 1e-12


class TestBallSum:
    def test_unit_ball_volumes(self):
        assert abs(unit_ball_volume(1) - 2.0) < 1e-12
        assert abs(unit_ball_volume(2) - math.pi) < 1e-12
        assert abs(unit_ball_volume(3) - 4.0 * math.pi / 3.0) < 1e-12

    def test_unit_weight_balls(self):
        b = BallSum(np.zeros((7, 2)), np.ones(7), 1.0)
        assert abs(ball_sum_l1(b, 2) - 7.0 * math.pi) < 1e-12

    def test_empty(self):
        b = BallSum(np.zeros((1, 2)), np.zeros(1), 1.0)
        assert ball_sum_l1(b, 2) == 0.0

    def test_rasterized_l1_approaches_exact(self):
        b = BallSum(np.array([[0.0, 0.0], [1.0, 0.5]]), np.array([1.0, 2.0]), 1.0)
        grid = ball_sum_to_grid(b, Box(np.full(2, -3.0), np.full(2, 7.0)), 400)
        assert abs(grid.l1_norm() - ball_sum_l1(b, 2)) / ball_sum_l1(b, 2) < 0.01


class TestAxisParallelChain:
    def test_overlap_bounded_by_ball_l1_product(self, rng):
        # axis-parallel unit tubes: overlap integral <= prod (omega N_j)^(1/(n-1))
        for n in (2, 3):
            anchors = [rng.uniform(-3, 3, (4, n)) for _ in range(n)]
            fams = [axis_tube_family(j, n, anchors[j]) for j in range(n)]
            cube = Cube.centered(np.zeros(n), 10.0)
            v = evaluate_overlap(fams, cube, GridSpec(64))
            bound = np.prod([(unit_ball_volume(n - 1) * 4) ** (1.0 / (n - 1)) for _ in range(n)])
            assert v.value <= bound * (1.0 + 1e-9) + (v.error_estimate or 0.0)
