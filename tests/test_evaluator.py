import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeya.errors import CellBudgetExceeded, ValidationError
from kakeya.evaluator import (
    CELL_BUDGET,
    CountFields,
    GridSpec,
    cell_centers,
    evaluate_overlap,
    evaluate_refined,
    exact_overlap_2d,
    midpoint_rule,
    power_product,
)
from kakeya.geometry import (
    Cube,
    Direction,
    Line,
    LipschitzCurve,
    distance_rounding,
    lattice,
    line_box_distance,
)

from conftest import axis_tube_family, count_midpoint_sums, family, line_through
from lemmas import overlap_integrand

TRICYLINDER = 8.0 * (2.0 - math.sqrt(2.0))


def perpendicular(radius=1.0):
    f1 = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])], radius)
    f2 = family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])], radius)
    return [f1, f2]


class TestIntegrand:
    def test_single_tubes(self):
        fams = perpendicular()
        assert overlap_integrand(fams, [[0.0, 0.0]])[0] == 1.0

    def test_sqrt_exponent_n3(self):
        # 4 tubes through the origin in family 0 -> 4^(1/2) * 1 * 1 = 2
        f0 = family(0, 3, [line_through([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) for _ in range(4)])
        f1 = family(1, 3, [line_through([0.0, 0.0, 0.0], [0.0, 1.0, 0.0])])
        f2 = family(2, 3, [line_through([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])])
        assert overlap_integrand([f0, f1, f2], [[0.0, 0.0, 0.0]])[0] == 2.0

    def test_zero_factor(self):
        fams = perpendicular()
        assert overlap_integrand(fams, [[0.0, 5.0]])[0] == 0.0

    def test_requires_complete_axes(self):
        f1 = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])])
        with pytest.raises(ValidationError):
            overlap_integrand([f1, f1], [[0.0, 0.0]])

    def test_power_product_matches_np_power_on_count_fields(self):
        # at n = 3, p = 1/2 takes numpy's square root path, and at n = 4,
        # p = 1/3, np.power; count fields hold the integers, and each power,
        # in place on scratch or new from a read-only field, keeps the bits
        # of np.power (the bytes of every float, as float.hex would show
        # them); a factor of ones leaves the power alone (1 x = x)
        counts = np.arange(2**20 + 1, dtype=float)
        stored = counts.copy()
        stored.flags.writeable = False
        for p in (0.5, 1.0 / 3.0):
            want = np.power(counts, p).tobytes()
            scratch = counts.copy()
            in_place = power_product([scratch, np.ones(counts.size)], p, scratch)
            assert in_place is scratch and in_place.tobytes() == want
            new = power_product([stored, np.ones(counts.size)], p, np.empty(counts.size))
            assert new.tobytes() == want
            assert stored.tobytes() == counts.tobytes()


class TestEvaluateOverlap:
    def test_perpendicular_strips(self, cube2):
        v = evaluate_overlap(perpendicular(), cube2, GridSpec(200))
        assert abs(v.value - 4.0) / 4.0 < 0.02

    def test_tricylinder(self):
        cube = Cube.centered([0.0, 0.0, 0.0], 10.0)
        fams = [
            family(j, 3, [Line(np.zeros(3), Direction.axis(3, j))])
            for j in range(3)
        ]
        v = evaluate_overlap(fams, cube, GridSpec(128))
        assert abs(v.value - TRICYLINDER) / TRICYLINDER < 0.05

    def test_empty_families_exact_zero(self, cube2):
        fams = [family(0, 2, []), family(1, 2, [])]
        v = evaluate_overlap(fams, cube2, GridSpec(64))
        assert v.value == 0.0

    def test_error_estimate_availability(self, cube2):
        fams = perpendicular()
        assert evaluate_overlap(fams, cube2, GridSpec(64)).error_estimate is not None
        assert evaluate_overlap(fams, cube2, GridSpec(65)).error_estimate is None

    def test_cell_budget(self, cube2, monkeypatch):
        # 10,001^2 cells exceed CELL_BUDGET: both entry points raise before
        # any cell is evaluated
        assert 10_001**2 > CELL_BUDGET
        sums = count_midpoint_sums(monkeypatch)
        with pytest.raises(CellBudgetExceeded):
            evaluate_overlap(perpendicular(), cube2, GridSpec(10_001))
        with pytest.raises(CellBudgetExceeded):
            evaluate_refined(perpendicular(), cube2, 1e-3, 4, start_cells=10_001)
        assert sums == []

    def test_grids_evaluated(self, cube2, monkeypatch):
        # the half grid behind the error estimate exists only at even m
        sums = count_midpoint_sums(monkeypatch)
        evaluate_overlap(perpendicular(), cube2, GridSpec(64))
        assert sums == [64, 32]
        sums.clear()
        evaluate_overlap(perpendicular(), cube2, GridSpec(65))
        assert sums == [65]

    def test_monotone_in_radius(self, cube2, rng):
        anchors = rng.uniform(-4, 4, (3, 2))
        small = [axis_tube_family(j, 2, anchors, radius=0.8) for j in range(2)]
        g = GridSpec(100)
        big = midpoint_rule(small, cube2, [1.1, 1.1])(g.cells_per_side)
        assert evaluate_overlap(small, cube2, g).value <= big

    def test_superadditive_in_members(self, cube2, rng):
        anchors = rng.uniform(-4, 4, (3, 2))
        base = [axis_tube_family(j, 2, anchors) for j in range(2)]
        grown = [
            family(
                0, 2, [m.geometry for m in base[0].members] + [line_through([0.3, 0.1], [1.0, 0.0])]
            ),
            base[1],
        ]
        g = GridSpec(100)
        assert evaluate_overlap(base, cube2, g).value <= evaluate_overlap(grown, cube2, g).value

    def test_weight_scaling_power_of_two_exact(self, cube2, rng):
        # scaling one family's weights by 4 scales the value by 4^(1/(n-1))
        # bit-exactly: multiplication by a power of two commutes with every
        # float operation used (sums, sqrt, products)
        for n, lam, factor in ((2, 4.0, 4.0), (3, 4.0, 2.0)):
            cube = Cube.centered(np.zeros(n), 8.0)
            anchors = rng.uniform(-3, 3, (3, n))
            weights = list(rng.uniform(0.5, 2.0, 3))
            fams = [axis_tube_family(j, n, anchors, weights=weights) for j in range(n)]
            scaled = [
                axis_tube_family(0, n, anchors, weights=[lam * w for w in weights])
            ] + fams[1:]
            g = GridSpec(32)
            v = evaluate_overlap(fams, cube, g).value
            vs = evaluate_overlap(scaled, cube, g).value
            assert vs == factor * v

    def test_weight_scaling_general(self, cube2, rng):
        lam = 1.7
        anchors = rng.uniform(-3, 3, (3, 2))
        fams = [axis_tube_family(j, 2, anchors) for j in range(2)]
        scaled = [axis_tube_family(0, 2, anchors, weights=[lam] * 3), fams[1]]
        g = GridSpec(64)
        v = evaluate_overlap(fams, cube2, g).value
        vs = evaluate_overlap(scaled, cube2, g).value
        assert abs(vs - lam * v) <= 1e-12 * max(vs, 1.0)

    def test_translation_invariance(self, rng):
        shift = np.array([1.25, -2.5])
        anchors = rng.uniform(-3, 3, (2, 2))
        fams = [axis_tube_family(j, 2, anchors) for j in range(2)]
        moved = [axis_tube_family(j, 2, anchors + shift) for j in range(2)]
        cube = Cube.centered([0.0, 0.0], 9.0)
        cube_moved = Cube(cube.min_corner + shift, cube.side)
        g = GridSpec(90)
        a = evaluate_overlap(fams, cube, g).value
        b = evaluate_overlap(moved, cube_moved, g).value
        assert abs(a - b) <= 1e-12 * max(a, 1.0)


class TestEvaluateRefined:
    def test_converges_to_exact_slab(self):
        # strip boundaries on cell edges at every doubling level: the
        # midpoint rule is exact and refinement settles immediately
        cube = Cube.centered([0.0, 0.0], 8.0)
        v = evaluate_refined(perpendicular(), cube, 1e-3, 8)
        assert v.converged
        assert abs(v.value - 4.0) / 4.0 < 1e-3

    def test_value_within_trivial_bounds(self, cube2, rng):
        anchors = rng.uniform(-4, 4, (4, 2))
        fams = [axis_tube_family(j, 2, anchors) for j in range(2)]
        v = evaluate_refined(fams, cube2, 1e-2, 5)
        bound = cube2.side**2 * np.prod([f.total_weight for f in fams])
        assert 0.0 <= v.value <= bound

    def test_matches_exact_oracle_50_configs(self, rng):
        # module invariant: <1% vs the clipping oracle under refinement,
        # 50 random configurations
        cube = Cube.centered([0.0, 0.0], 8.0)
        checked = 0
        for _ in range(50):
            fams = [
                family(
                    j,
                    2,
                    [
                        line_through(
                            rng.uniform(-3, 3, 2),
                            np.eye(2)[j] + 0.08 * rng.normal(size=2),
                        )
                        for _ in range(3)
                    ],
                )
                for j in range(2)
            ]
            v = evaluate_refined(fams, cube, 2e-3, 6, start_cells=64)
            exact = exact_overlap_2d(fams, cube)
            if exact > 0.1:
                checked += 1
                assert abs(v.value - exact) / exact < 0.01
        assert checked >= 40

    def test_nonconvergence_flag(self, cube2):
        v = evaluate_refined(perpendicular(), cube2, 1e-12, 1)
        assert not v.converged


class TestExactOverlap2d:
    def test_perpendicular(self, cube2):
        assert abs(exact_overlap_2d(perpendicular(), cube2) - 4.0) < 1e-12

    def test_oblique_strips(self):
        # strips of width 2 crossing at angle pi/6: area 2*2/sin(pi/6) = 8
        theta = math.pi / 6
        f1 = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])])
        f2 = family(1, 2, [line_through([0.0, 0.0], [math.cos(theta), math.sin(theta)])])
        cube = Cube.centered([0.0, 0.0], 100.0)
        assert abs(exact_overlap_2d([f1, f2], cube) - 8.0) < 1e-9

    def test_parallel_disjoint(self, cube2):
        f1 = family(0, 2, [line_through([0.0, -3.0], [1.0, 0.0])])
        f2 = family(1, 2, [])
        assert exact_overlap_2d([f1, f2], cube2) == 0.0
        g1 = axis_tube_family(0, 2, [[0.0, -3.0]])
        g2 = axis_tube_family(1, 2, [[30.0, 0.0]])
        assert exact_overlap_2d([g1, g2], cube2) == 0.0

    def test_weights_bilinear(self, cube2):
        fams = perpendicular()
        weighted = [
            family(0, 2, [fams[0].members[0].geometry], weights=[2.5]),
            family(1, 2, [fams[1].members[0].geometry], weights=[3.0]),
        ]
        assert abs(exact_overlap_2d(weighted, cube2) - 2.5 * 3.0 * 4.0) < 1e-12

    def test_rejects_n3_and_curves(self):
        cube3 = Cube.centered([0.0, 0.0, 0.0], 4.0)
        fams3 = [
            family(j, 3, [Line(np.zeros(3), Direction.axis(3, j))])
            for j in range(3)
        ]
        with pytest.raises(ValidationError):
            exact_overlap_2d(fams3, cube3)
        curve = LipschitzCurve(0, [-10.0, 10.0], [[0.0], [0.0]], 0.0)
        fams = [
            family(0, 2, [curve]),
            family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])]),
        ]
        with pytest.raises(ValidationError):
            exact_overlap_2d(fams, Cube.centered([0.0, 0.0], 4.0))


class TestCurveEvaluation:
    def test_affine_curve_matches_tube_exactly(self, rng):
        # a 2-breakpoint curve spanning far beyond the cube is the same set
        # as its straight tube, so fixed-grid evaluation is bit-identical
        slope = 0.04
        span = 200.0
        curve = LipschitzCurve(
            0, [-span, span], [[-span * slope + 0.5], [span * slope + 0.5]], slope
        )
        straight = line_through([0.0, 0.5], [1.0, slope])
        partner = family(1, 2, [line_through([0.2, 0.0], [0.0, 1.0])])
        cube = Cube.centered([0.0, 0.0], 10.0)
        g = GridSpec(128)
        vc = evaluate_overlap([family(0, 2, [curve]), partner], cube, g)
        vt = evaluate_overlap([family(0, 2, [straight]), partner], cube, g)
        assert vc.value == vt.value

    def test_rejects_short_span(self):
        curve = LipschitzCurve(0, [-1.0, 1.0], [[0.0], [0.0]], 0.0)
        fams = [
            family(0, 2, [curve]),
            family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])]),
        ]
        with pytest.raises(ValidationError):
            evaluate_overlap(fams, Cube.centered([0.0, 0.0], 10.0), GridSpec(16))


def inside_counts(line, r, cube, m):
    """(the evaluator's count of ``line`` at each cell center, the centers), in C order."""
    fams = [family(0, cube.n, [line], r)] + [family(j, cube.n, [], r) for j in range(1, cube.n)]
    field = CountFields.build(fams, cube, m).fields[0]
    return field.ravel(), lattice(cell_centers(cube.min_corner, (cube.side / m,) * cube.n, m))


@st.composite
def far_lines(draw):
    """(line, r, cube, m): a line through the cube anchored up to 3e6 back along a near-unit direction."""
    n = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    cube = Cube(rng.uniform(-10.0, 10.0, n), draw(st.floats(4.0, 16.0)))
    d = rng.normal(size=n)
    d[draw(st.integers(0, n - 1))] += draw(st.sampled_from([0.0, 20.0]))
    d *= (1.0 + draw(st.floats(-5e-13, 5e-13))) / np.linalg.norm(d)
    through = cube.min_corner + cube.side * rng.uniform(0.0, 1.0, n)
    far = 10.0 ** draw(st.floats(2.0, 6.5))
    return Line(through - far * d, Direction(d)), draw(st.floats(0.5, 2.0)), cube, 64 if n == 2 else 24


class TestFarAnchors:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(far_lines())
    def test_cell_centers_are_inside_as_the_box_distance_says(self, case):
        # away from r by more than the rounding of both distances (err2 / r
        # for the squared point distance near r, e for the box distance),
        # the evaluator's test agrees with line_box_distance on zero-size boxes
        line, r, cube, m = case
        err2, e = distance_rounding([line], cube, r)
        assert err2 <= r * r
        counts, centers = inside_counts(line, r, cube, m)
        box = line_box_distance(line, centers, centers)
        clear = np.abs(box - r) > err2 / r + e
        assert np.array_equal(counts[clear] == 1.0, box[clear] <= r)

    def test_a_line_anchored_far_back_counts_the_cells_of_its_tube(self):
        # |d|^2 - 1 = 5.3e-13 with the anchor 1.4e6 back along the line: a
        # difference of squares |rel|^2 - t^2 puts 2,955 cell centers within 1
        line = Line(
            np.array([-1424543.5073765921, 33522.283530345856]),
            Direction(np.array([0.9997232574854863, -0.023524634814161727])),
        )
        cube = Cube(np.array([-8.0, -8.0]), 16.0)
        counts, centers = inside_counts(line, 1.0, cube, 128)
        box = line_box_distance(line, centers, centers)
        assert counts.sum() == 2048
        assert np.array_equal(counts == 1.0, box <= 1.0)
        assert distance_rounding([line], cube, 1.0)[0] < 1e-2


class TestAverageIntegral:
    def test_pointwise_count_bound(self, cube2, rng):
        anchors = rng.uniform(-4, 4, (4, 2))
        fams = [axis_tube_family(j, 2, anchors) for j in range(2)]
        v = evaluate_overlap(fams, cube2, GridSpec(100))
        counts = np.prod([f.total_weight for f in fams]) ** (1.0 / 1.0)
        assert v.value / cube2.side**2 <= counts + 1e-12
