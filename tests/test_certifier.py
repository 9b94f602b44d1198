import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kakeya import certifier
from kakeya.certifier import (
    Constants,
    _step_detail,
    _subcube_counts,
    certify_multiscale,
    check_certificate_soundness,
    cover_for_arbitrary_s,
    delta_for_epsilon,
    scale_count,
    step_numeric_bound,
    verify_step_inequality,
)
from kakeya.errors import ValidationError
from kakeya.evaluator import GridSpec, evaluate_overlap, exact_overlap_2d
from kakeya.generators import GenSpec, Lipschitz, SmallAngle, Weighted, generate
from kakeya.geometry import (
    Cube,
    Direction,
    Line,
    LipschitzCurve,
    line_box_distance,
    subdivision_counts,
)
from kakeya.serialization import config_from_json, load_json

from conftest import axis_tube_family, count_midpoint_sums, family, line_through, shifted
from lemmas import (
    dense_subcube_counts,
    expand_integer_weights,
    identically_one_check,
    member_box_distances,
    point_distances,
    step_bound,
)


def count_intersections(family, cube, w):
    """The exact count of members whose radius-w neighborhood meets the cube."""
    d = member_box_distances(family, cube.min_corner[None, :], cube.max_corner[None, :])
    return int(np.sum(d[:, 0] <= w))


def with_weights(families, weights):
    """The families with member i of each family given weight ``weights[i]``."""
    return [
        family(f.axis, f.dim, [m.geometry for m in f.members], f.base_radius, weights)
        for f in families
    ]


def count_box_distance_rows(monkeypatch) -> list:
    """Record the number of boxes of every ``certifier.line_box_distance`` call."""
    rows = []
    kernel = certifier.line_box_distance

    def counted(line, lo, hi):
        rows.append(np.atleast_2d(lo).shape[0])
        return kernel(line, lo, hi)

    monkeypatch.setattr(certifier, "line_box_distance", counted)
    return rows


def assert_counts_match_dense(families, cube, delta, w):
    """The sparse subcube counts and their step detail equal the dense ones, bit for bit."""
    side, counts, weights = _subcube_counts(families, cube, delta, w)
    want_side, want_counts, want_weights = dense_subcube_counts(families, cube, delta, w)
    assert side.hex() == want_side.hex()
    assert np.array_equal(counts, want_counts)
    assert [x.hex() for x in weights.ravel()] == [x.hex() for x in want_weights.ravel()]
    c_lw = Constants.for_dimension(cube.n).c_lw
    detail = _step_detail(families, cube, delta, w, c_lw)
    assert detail.count_histograms == tuple(
        {int(v): int(c) for v, c in zip(*np.unique(row, return_counts=True))}
        for row in want_counts
    )
    want_bound = step_numeric_bound(cube.n, c_lw, w, want_weights)
    assert detail.numeric_bound.hex() == want_bound.hex()
    return detail


@st.composite
def subcube_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    delta = draw(st.floats(0.05, 0.9))
    w = draw(st.floats(0.3, 3.0))
    # up to 40 subcubes per side at n = 2 and 14 at n = 3
    upper = w / (delta * 10.0 * n)
    side = upper * draw(st.floats(1.0, 40.0 if n == 2 else 14.0))
    cube = Cube(np.array([draw(st.floats(-10.0, 10.0)) for _ in range(n)]), side)
    # members are generated around part of the cube, so polyline spans may
    # end inside it
    gen_cube = Cube(
        cube.min_corner + side * draw(st.floats(0.0, 0.5)), side * draw(st.floats(0.2, 1.0))
    )
    lip = delta * draw(st.floats(0.01, 1.0))
    seed = draw(st.integers(0, 2**32))
    straight = generate(
        GenSpec(n, tuple(draw(st.integers(0, 3)) for _ in range(n)), SmallAngle(lip),
                gen_cube, seed, w)
    )
    curves = generate(
        GenSpec(n, tuple(draw(st.integers(0, 2)) for _ in range(n)),
                Lipschitz(lip, draw(st.integers(2, 5))), gen_cube, seed + 1, w)
    )
    # a spread of 0 keeps every member near the generating cube; larger ones
    # move some partly or wholly outside the cube
    spread = draw(st.sampled_from([0.0, 0.5, 1.5]))
    rng = np.random.default_rng(seed)
    families = []
    for s, c in zip(straight, curves):
        geometries = [m.geometry for m in s.members + c.members]
        weights = None
        if draw(st.booleans()):
            weights = rng.uniform(0.0, 5.0, len(geometries)).tolist()
        f = family(s.axis, n, geometries, w, weights)
        families.append(shifted(f, spread * side * rng.uniform(-1.0, 1.0, (f.size, n))))
    return families, cube, delta, w


@st.composite
def batched_cases(draw):
    """``subcube_cases`` with a batch row budget and, in each family, one more
    line with zero direction components, the members in a drawn order."""
    families, cube, delta, w = draw(subcube_cases())
    n = cube.n
    mixed = []
    for f in families:
        direction = np.eye(n)[f.axis]
        # along the axis, or tilted towards one other axis only
        direction[(f.axis + 1) % n] = draw(st.sampled_from([0.0, 0.5])) * delta
        anchor = cube.min_corner + cube.side * np.array([draw(st.floats(0.0, 1.0))
                                                         for _ in range(n)])
        geometries = [m.geometry for m in f.members] + [line_through(anchor, direction)]
        weights = [m.weight for m in f.members] + [draw(st.floats(0.1, 4.0))]
        order = draw(st.permutations(range(len(geometries))))
        mixed.append(family(f.axis, n, [geometries[i] for i in order], w,
                            [weights[i] for i in order]))
    return (mixed, cube, delta, w), draw(st.sampled_from([1, 40, 300, 2000, certifier._ROWS]))


def ulps(x: float, steps: int) -> float:
    """``x`` moved ``steps`` floats up (down for negative ``steps``)."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


# |d|^2 - 1 = 5.3e-13 and -5.3e-13: from an anchor 1.4e6 back along d, the
# computed squared point distance falls short by about 1, or exceeds it
FAR_DIRECTIONS = (
    [0.9997232574854863, -0.023524634814161727],
    [0.9997232574849564, -0.023524634814149258],
)


def far_anchor_case(direction, far=1.4e6):
    """A line through the cube anchored ``far`` back along ``direction``, beside an axis line."""
    d = np.array(direction)
    line = Line(np.array([0.1, 0.2]) - far * d, Direction(d))
    fams = [family(0, 2, [line], 0.5), axis_tube_family(1, 2, [np.zeros(2)], 0.5)]
    return fams, Cube(np.full(2, -2.0), 4.0), 0.5, 0.5


@st.composite
def margin_cases(draw):
    """Members on the margins of the subcube classes of ``_subcube_counts``.

    Axis-parallel lines and constant polylines put a row of subcube centers,
    or a row of subcube faces, at distance w across one axis, then move by
    -1, 0 or 1 ulp; the subcube corners and centers are computed as
    ``_subcube_counts`` computes them.  Family 0 can also hold a line
    through the cube anchored 1.4e6 back along one of ``FAR_DIRECTIONS``.
    """
    n = draw(st.sampled_from([2, 3]))
    delta = draw(st.floats(0.05, 0.9))
    w = draw(st.floats(0.3, 3.0))
    upper = w / (delta * 10.0 * n)
    side = upper * draw(st.floats(1.0, 24.0 if n == 2 else 8.0))
    cube = Cube(np.array([draw(st.floats(-10.0, 10.0)) for _ in range(n)]), side)
    k, sub_side = subdivision_counts(cube, delta, w)

    def lo(c, i):
        return cube.min_corner[c] + sub_side * i

    families = []
    for j in range(n):
        geometries = []
        for _ in range(draw(st.integers(1, 3))):
            # on the center row of subcubes across every axis but c
            point = np.array([lo(c, draw(st.integers(0, k - 1))) + 0.5 * sub_side
                              for c in range(n)])
            c = draw(st.sampled_from([a for a in range(n) if a != j]))
            i = draw(st.integers(0, k - 1))
            point[c] = draw(st.sampled_from([
                lo(c, i) + 0.5 * sub_side - w,  # centers at w
                lo(c, i) + 0.5 * sub_side + w,
                lo(c, i) - w,  # faces at w
                lo(c, i) + sub_side + w,
            ]))
            point[c] = ulps(point[c], draw(st.sampled_from([-1, 0, 1])))
            if draw(st.booleans()):
                geometries.append(Line(point, Direction.axis(n, j)))
            else:
                # the span can end inside the cube
                start = cube.min_corner[j] + side * draw(st.sampled_from([-0.5, 0.3]))
                stop = cube.min_corner[j] + side * draw(st.sampled_from([0.6, 1.5]))
                values = np.delete(point, j)
                geometries.append(LipschitzCurve(j, np.array([start, stop]),
                                                 np.stack([values, values]), 0.0))
        if j == 0 and draw(st.booleans()):
            d = np.zeros(n)
            d[:2] = draw(st.sampled_from(FAR_DIRECTIONS))
            through = cube.min_corner + side * np.array(
                [draw(st.floats(0.0, 1.0)) for _ in range(n)])
            geometries.append(Line(through - 1.4e6 * d, Direction(d)))
        families.append(family(j, n, geometries, w))
    return families, cube, delta, w


class TestConstants:
    def test_n2_values(self):
        c = Constants.for_dimension(2)
        # omega_1 = 2: c_lw = 2^2 * 2^2 = 16, c_step = 16 * 40^2 = 25600
        assert abs(c.c_lw - 16.0) < 1e-10
        assert abs(c.c_step - 25600.0) < 1e-7

    def test_n3_values(self):
        c = Constants.for_dimension(3)
        expected_lw = math.pi ** 1.5 * 8.0
        assert abs(c.c_lw - expected_lw) < 1e-10
        assert abs(c.c_step - expected_lw * 60.0**3) < 1e-4

    def test_ordering(self):
        for n in (2, 3, 4):
            c = Constants.for_dimension(n)
            assert 0.0 < c.c_lw <= c.c_step


class TestCountIntersections:
    def test_through_center(self):
        f = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])])
        assert count_intersections(f, Cube.centered([0.0, 0.0], 2.0), 1.0) == 1

    def test_all_far(self):
        f = family(0, 2, [line_through([0.0, 50.0], [1.0, 0.0])])
        assert count_intersections(f, Cube.centered([0.0, 0.0], 2.0), 1.0) == 0

    def test_matches_sampling_oracle(self, rng):
        checked = 0
        for _ in range(50):
            n = int(rng.integers(2, 4))
            lines = [
                Line(rng.uniform(-4, 4, n), Direction.normalized(rng.normal(size=n)))
                for _ in range(5)
            ]
            f = family(0, n, lines)
            cube = Cube(rng.uniform(-3, 1, n), float(rng.uniform(1, 3)))
            margin = 0.08
            dists = [
                line_box_distance(line, cube.min_corner[None, :], cube.max_corner[None, :])[0]
                for line in lines
            ]
            if any(abs(d - 1.0) < margin for d in dists):
                continue
            checked += 1
            k = 41
            axes = [np.linspace(cube.min_corner[j], cube.max_corner[j], k) for j in range(n)]
            pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
            oracle = sum(1 for line in lines if point_distances(pts, line).min() <= 1.0)
            assert count_intersections(f, cube, 1.0) == oracle
        assert checked >= 25


class TestIdenticallyOne:
    def test_randomized_admissible_instances(self, rng):
        # tubes meeting admissible subcubes: coarse neighborhood covers them
        failures = 0
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            delta = float(rng.uniform(0.02, 0.5))
            w = float(rng.uniform(0.5, 2.0))
            side = float(rng.uniform(0.2, 1.0)) * w / (delta * 10 * n)
            cube = Cube(rng.uniform(-3, 3, n), side)
            # a tube that intersects the cube at radius w
            target = cube.min_corner + cube.side * rng.uniform(0, 1, n)
            anchor = target + rng.normal(size=n) * 0.1
            anchor += (w * 0.9) * rng.uniform(-1, 1) * np.eye(n)[0]
            t = Line(anchor, Direction.normalized(rng.normal(size=n)))
            d = line_box_distance(t, cube.min_corner[None, :], cube.max_corner[None, :])[0]
            if d > w:
                continue
            if not identically_one_check(t, w, cube, delta):
                failures += 1
        assert failures == 0

    def test_huge_cube_can_fail(self):
        line = line_through([0.0, 0.0], [1.0, 0.0])
        assert not identically_one_check(line, 1.0, Cube.centered([0.0, 0.0], 1000.0), 0.1)


class TestStepBound:
    def test_single_tube_bound_exceeds_exact(self, cube2, perpendicular_families):
        sb = step_bound(perpendicular_families, cube2, 0.1)
        exact = exact_overlap_2d(perpendicular_families, cube2)
        assert abs(exact - 4.0) < 1e-12
        assert sb.numeric_bound >= exact
        assert sb.subcube_count == 400

    def test_empty_families(self, cube2):
        fams = [family(0, 2, []), family(1, 2, [])]
        sb = step_bound(fams, cube2, 0.1)
        assert sb.numeric_bound == 0.0

    def test_counts_monotone_under_cube_refinement(self, rng):
        # N_j(Q') <= N_j(Q) for Q' inside Q: check on nested subdivisions
        spec = GenSpec(2, (5, 5), SmallAngle(0.1), Cube.centered([0.0, 0.0], 10.0), seed=3)
        fams = generate(spec)
        f = fams[0]
        cube = Cube(np.array([-2.0, -2.0]), 4.0)
        coarse = count_intersections(f, cube, 1.0)
        from kakeya.geometry import subcube_grid

        for lo in subcube_grid(cube, 4):
            sub = Cube(lo, 1.0)
            assert count_intersections(f, sub, 1.0) <= coarse

    def test_single_step_soundness_randomized(self):
        # refined quadrature at scale W stays below the explicit subcube bound
        from kakeya.evaluator import evaluate_refined

        cube = Cube.centered([0.0, 0.0], 10.0)
        for seed in range(6):
            fams = generate(GenSpec(2, (6, 6), SmallAngle(0.1), cube, seed=50 + seed))
            sb = step_bound(fams, cube, 0.1)
            v = evaluate_refined(fams, cube, 5e-3, 5, start_cells=64)
            assert v.value <= sb.numeric_bound + (v.error_estimate or 0.0)

    @pytest.mark.parametrize(
        "regime, seed, weights",
        [
            (SmallAngle(0.2), 5, [1000.0] * 6),
            (SmallAngle(0.2), 6, [0.25, 3.0, 0.0, 1.5, 7.0, 0.5]),
            (Weighted(0.5, 4.0, 0.2), 7, None),
            (Weighted(10.0, 100.0, 0.2), 8, None),
        ],
    )
    def test_weighted_bound_exceeds_exact(self, regime, seed, weights):
        # N_j(Q) is the total weight of the members near Q, so the rung-0
        # and one-step bounds dominate the exact weighted integral
        cube = Cube.centered([0.0, 0.0], 16.0)
        fams = generate(GenSpec(2, (6, 6), regime, cube, seed=seed))
        if weights is not None:
            fams = with_weights(fams, weights)
        exact = exact_overlap_2d(fams, cube)
        assert exact > 0.0
        assert exact <= certify_multiscale(fams, cube, 0.2).step_details[0].numeric_bound
        assert exact <= step_bound(fams, cube, 0.2).numeric_bound

    def test_histograms_count_members(self):
        # the histograms count members near each subcube, whatever their weight
        cube = Cube.centered([0.0, 0.0], 16.0)
        fams = generate(GenSpec(2, (6, 6), SmallAngle(0.2), cube, seed=5))
        unit = step_bound(fams, cube, 0.2)
        heavy = step_bound(with_weights(fams, [1000.0] * 6), cube, 0.2)
        assert heavy.count_histograms == unit.count_histograms
        assert heavy.numeric_bound == 1000.0**2 * unit.numeric_bound

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(subcube_cases())
    def test_sparse_counts_match_dense(self, case):
        assert_counts_match_dense(*case)

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(margin_cases())
    @example(far_anchor_case(FAR_DIRECTIONS[0]))
    @example(far_anchor_case(FAR_DIRECTIONS[1]))
    # anchored 2e15 back, where the center distances are off by up to 0.26,
    # more than half a subcube's diagonal (0.035)
    @example(far_anchor_case(Direction.normalized([1.0, 0.25]).components, 2e15))
    def test_sparse_counts_match_dense_on_the_class_margins(self, case):
        assert_counts_match_dense(*case)

    def test_sparse_counts_match_dense_past_a_curve_span(self):
        # the curve's span [2, 7] ends inside the cube [0, 10] on its axis
        curve = LipschitzCurve(0, np.array([2.0, 5.0, 7.0]), np.array([[3.0], [4.0], [3.5]]), 0.5)
        fams = [family(0, 2, [curve]), family(1, 2, [line_through([4.0, 0.0], [0.3, 1.0])])]
        detail = assert_counts_match_dense(fams, Cube(np.zeros(2), 10.0), 0.5, 1.0)
        assert detail.count_histograms[0][1] > 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_sparse_counts_match_dense_with_every_subcube_hit(self, n):
        # both tubes pass through a cube much smaller than w: no zero bucket
        cube = Cube(np.zeros(n), 0.2)
        fams = [axis_tube_family(j, n, [np.full(n, 0.1)]) for j in range(n)]
        detail = assert_counts_match_dense(fams, cube, 0.9, 1.0)
        assert detail.count_histograms == ({1: detail.subcube_count},) * n

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batched_cases())
    def test_batched_counts_match_dense(self, batched):
        # small row budgets cut each family into several batches, which must
        # keep the member-order weight sums across them
        case, rows = batched
        with mock.patch.object(certifier, "_ROWS", rows):
            assert_counts_match_dense(*case)

    def test_member_batches(self):
        # runs of lines within the row budget; a polyline, or a line over
        # the budget, alone
        sizes = np.array([30, 30, 30, 100, 10, 10])
        is_line = np.array([True, True, False, True, True, True])
        with mock.patch.object(certifier, "_ROWS", 64):
            batches = list(certifier._member_batches(sizes, is_line))
        assert batches == [(0, 2), (2, 3), (3, 4), (4, 6)]

    def test_one_box_test_per_family_and_rung(self, monkeypatch):
        # small_angle_n2 at delta 0.2: each family's directions share one zero
        # pattern, so each of its two rungs makes one exact test of the same
        # 1,902 band cells that a test per member gets
        golden = Path(__file__).resolve().parent / "golden" / "small_angle_n2.config.json"
        config = config_from_json(load_json(golden))
        rows = count_box_distance_rows(monkeypatch)
        certify_multiscale(config.families, config.cube, 0.2)
        assert len(rows) <= 4
        assert sum(rows) == 1902

    def test_sparse_counts_test_few_pairs(self, monkeypatch):
        # n=3, S=16, delta 0.1, 8 tubes per axis: 110,592 subcubes and 24
        # members; the layer bands keep the exact tests under 10% of the pairs
        cube = Cube.centered(np.zeros(3), 16.0)
        fams = generate(GenSpec(3, (8, 8, 8), SmallAngle(0.1), cube, seed=11))
        rows = count_box_distance_rows(monkeypatch)
        detail = step_bound(fams, cube, 0.1)
        assert detail.subcube_count == 48**3
        assert 0 < sum(rows) < 0.1 * detail.subcube_count * 24

    def test_center_distances_decide_most_band_cells(self, monkeypatch):
        # small_angle_n2 at delta 0.2: of the 16,277 band cells of both rungs,
        # 1,902 (11.7%) are on neither side of the tube's margins
        golden = Path(__file__).resolve().parent / "golden" / "small_angle_n2.config.json"
        config = config_from_json(load_json(golden))
        rows = count_box_distance_rows(monkeypatch)
        cells = []
        band_cells = certifier._band_cells

        def counted(first, stop):
            idx = band_cells(first, stop)
            cells.append(idx.shape[0])
            return idx

        monkeypatch.setattr(certifier, "_band_cells", counted)
        certify_multiscale(config.families, config.cube, 0.2)
        assert 0 < sum(rows) <= 0.25 * sum(cells)

    def test_rejects_angle_violation(self, cube2):
        steep = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.4])])
        flat = family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])])
        with pytest.raises(ValidationError):
            step_bound([steep, flat], cube2, 0.1)

    def test_rejects_small_cube(self, perpendicular_families):
        with pytest.raises(ValidationError):
            step_bound(perpendicular_families, Cube.centered([0.0, 0.0], 5.0), 0.1)


class TestVerifyStep:
    def test_axis_parallel_well_below_one(self, cube2, perpendicular_families):
        check = verify_step_inequality(perpendicular_families, cube2, 0.1, GridSpec(128))
        assert not check.degenerate
        assert check.ratio < 0.1

    def test_random_small_angle_configs(self):
        for seed in range(5):
            cube = Cube.centered([0.0, 0.0], 10.0)
            fams = generate(GenSpec(2, (4, 4), SmallAngle(0.1), cube, seed=seed))
            check = verify_step_inequality(fams, cube, 0.1, GridSpec(128))
            assert check.ratio <= 1.0 + 1e-2

    def test_empty_degenerate(self, cube2):
        fams = [family(0, 2, []), family(1, 2, [])]
        check = verify_step_inequality(fams, cube2, 0.1, GridSpec(64))
        assert check.degenerate and check.ratio == 0.0

    def test_one_grid_per_scale(self, cube2, perpendicular_families, monkeypatch):
        # each scale reads only the fine grid's value
        sums = count_midpoint_sums(monkeypatch)
        verify_step_inequality(perpendicular_families, cube2, 0.1, GridSpec(64))
        assert sums == [64, 64]

    def test_rejects_large_delta(self, cube2, perpendicular_families):
        with pytest.raises(ValidationError):
            verify_step_inequality(perpendicular_families, cube2, 0.95, GridSpec(32))


class TestCertify:
    def test_single_step_formula(self, perpendicular_families):
        cube = Cube.centered([0.0, 0.0], 10.0)
        cert = certify_multiscale(perpendicular_families, cube, 0.1)
        assert cert.m_steps == 1
        assert cert.covering_multiplicity == 1
        c = Constants.for_dimension(2)
        assert abs(cert.final_bound - c.c_step * 1.0) < 1e-9
        assert cert.ladder == (1.0, 10.0)

    def test_zero_steps_at_unit_scale(self, perpendicular_families):
        cube = Cube.centered([0.0, 0.0], 1.0)
        cert = certify_multiscale(perpendicular_families, cube, 0.1)
        assert cert.m_steps == 0
        assert cert.final_bound == 1.0  # prod N_j^(1/(n-1)) = 1

    def test_degenerate_family_zero_bound(self):
        fams = [family(0, 2, []), axis_tube_family(1, 2, [[0.0, 0.0]])]
        cert = certify_multiscale(fams, Cube.centered([0.0, 0.0], 4.0), 0.2)
        assert cert.final_bound == 0.0

    def test_sound_vs_exact_oracle(self):
        for seed in range(8):
            cube = Cube.centered([0.0, 0.0], 10.0)
            fams = generate(GenSpec(2, (5, 5), SmallAngle(0.1), cube, seed=100 + seed))
            cert = certify_multiscale(fams, cube, 0.1)
            exact = exact_overlap_2d(fams, cube)
            assert exact <= cert.final_bound

    def test_chain_identity(self, perpendicular_families):
        cube = Cube.centered([0.0, 0.0], 95.0)
        cert = certify_multiscale(perpendicular_families, cube, 0.1)
        assert cert.m_steps == 2
        expected = (
            cert.covering_multiplicity
            * math.exp(cert.m_steps * math.log(cert.c_step))
            * np.prod([c ** (1.0) for c in cert.counts])
        )
        assert abs(cert.final_bound - expected) <= 1e-12 * expected

    def test_weighted_equals_expanded(self, rng):
        anchors = rng.uniform(-4, 4, (3, 2))
        weighted = [
            axis_tube_family(0, 2, anchors, weights=[2.0, 1.0, 3.0]),
            axis_tube_family(1, 2, anchors, weights=[1.0, 4.0, 1.0]),
        ]
        expanded = [expand_integer_weights(f) for f in weighted]
        cube = Cube.centered([0.0, 0.0], 10.0)
        cw = certify_multiscale(weighted, cube, 0.1)
        ce = certify_multiscale(expanded, cube, 0.1)
        assert cw.final_bound == ce.final_bound
        assert cw.counts == ce.counts

    def test_requires_unit_radius(self):
        fams = [
            family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])], radius=2.0),
            family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])], radius=2.0),
        ]
        with pytest.raises(ValidationError):
            certify_multiscale(fams, Cube.centered([0.0, 0.0], 4.0), 0.1)

    def test_step_details_recorded(self, perpendicular_families):
        cube = Cube.centered([0.0, 0.0], 10.0)
        cert = certify_multiscale(perpendicular_families, cube, 0.1)
        detail = cert.step_details[0]
        assert detail is not None
        assert detail.subcube_count == 400
        assert sum(detail.count_histograms[0].values()) == 400

    def test_json_roundtrippable(self, perpendicular_families):
        import json
        from dataclasses import asdict

        cube = Cube.centered([0.0, 0.0], 10.0)
        cert = certify_multiscale(perpendicular_families, cube, 0.1)
        blob = json.dumps(asdict(cert))
        assert json.loads(blob)["final_bound"] == cert.final_bound


class TestScaleArithmetic:
    def test_scale_count_exact_power(self):
        assert scale_count(10.0, 0.1) == 1
        assert scale_count(100.0, 0.1) == 2
        assert scale_count(1.0, 0.1) == 0
        assert scale_count(10.5, 0.1) == 2

    def test_epsilon_exponent_identity(self):
        c = Constants.for_dimension(2)
        for eps in (0.5, 1.0, 2.0):
            delta = delta_for_epsilon(eps, c)
            for m in range(1, 6):
                s = delta ** (-m)
                lhs = c.c_step**m
                rhs = s ** (math.log(c.c_step) / math.log(1.0 / delta))
                assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_delta_formula(self):
        c = Constants.for_dimension(2)
        delta = delta_for_epsilon(1.0, c)
        assert abs(delta - math.exp(-math.log(c.c_step))) < 1e-300
        exponent = math.log(c.c_step) / math.log(1.0 / delta)
        assert abs(exponent - 1.0) <= 1e-12

    def test_epsilon_doubling_halves_log(self):
        c = Constants.for_dimension(3)
        d1 = delta_for_epsilon(1.0, c)
        d2 = delta_for_epsilon(2.0, c)
        assert abs(math.log(1.0 / d2) - 0.5 * math.log(1.0 / d1)) < 1e-9

    def test_underflow_guard(self):
        c = Constants.for_dimension(2)
        with pytest.raises(ValidationError):
            delta_for_epsilon(1e-2, c)


class TestCover:
    def test_exact_power(self):
        cube = Cube.centered([0.0, 0.0], 10.0)
        los, side = cover_for_arbitrary_s(cube, 0.1, 1)
        assert los.shape[0] == 1
        assert side == 10.0

    def test_fractional_scale(self):
        cube = Cube(np.zeros(2), 15.0)
        los, _ = cover_for_arbitrary_s(cube, 0.1, 1)
        assert los.shape[0] == 4

    def test_union_covers(self, rng):
        cube = Cube(rng.uniform(-2, 2, 2), 7.3)
        los, side = cover_for_arbitrary_s(cube, 0.3, 3)

        def covered(points):
            rel = points[:, None, :] - los[None, :, :]
            return np.all((rel >= -1e-9) & (rel <= side + 1e-9), axis=2).any(axis=1)

        pts = cube.min_corner + cube.side * rng.uniform(0, 1, (500, 2))
        assert covered(pts).all()
        assert covered(cube.corners()).all()


class TestSoundnessHelper:
    def test_check(self, perpendicular_families):
        cube = Cube.centered([0.0, 0.0], 10.0)
        cert = certify_multiscale(perpendicular_families, cube, 0.1)
        value = evaluate_overlap(perpendicular_families, cube, GridSpec(64))
        assert check_certificate_soundness(cert, value)
