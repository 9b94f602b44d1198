import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kakeya.errors import CellBudgetExceeded
from kakeya.geometry import (
    Cap,
    Cube,
    Direction,
    Line,
    LinearMap,
    LipschitzCurve,
    angle_from_axis,
    cap_cover,
    distance_rounding,
    frame_inverses,
    grid_ranges,
    lattice,
    line_box_distance,
    member_reach,
    polyline_box_distance,
    squared_distances,
    subcube_grid,
    subdivision_counts,
    tangent_basis,
)

from conftest import cap_nets, family, line_through
from lemmas import (
    cube_line_max_distance,
    exact_squared_distance,
    family_values,
    fatten_axis_parallel,
    frame_map,
    line_angle,
    point_distances,
    scalar_cap_net,
    wedge_volume,
)


def tube_indicator(line, radius, p):
    """The overlap quadrature's indicator of the ``radius`` tube around ``line`` at one point."""
    return family_values(family(0, len(p), [line], radius), [p])[0]


def curve_indicator(curve, radius, p):
    """The overlap quadrature's indicator of one polyline at one point."""
    return family_values(family(curve.axis, curve.n, [curve], radius), [p])[0]


def tube_intersects_cube(line, radius, cube):
    """The certifier's exact tube-cube predicate."""
    d = line_box_distance(line, cube.min_corner[None, :], cube.max_corner[None, :])
    return d[0] <= radius


class TestDirection:
    def test_unit_validation(self):
        Direction([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            Direction([1.0, 1e-5, 0.0])

    def test_normalized(self):
        d = Direction.normalized([3.0, 4.0])
        assert np.allclose(d.components, [0.6, 0.8])

    def test_immutability(self):
        d = Direction.axis(3, 0)
        with pytest.raises(ValueError):
            d.components[0] = 2.0


class TestTubeIndicator:
    def test_point_on_axis(self):
        line = line_through([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert tube_indicator(line, 1.0, [0.0, 0.0, 0.0]) == 1

    def test_closed_boundary(self):
        line = line_through([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert tube_indicator(line, 1.0, [0.0, 1.0, 0.0]) == 1

    def test_just_outside(self):
        line = line_through([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert tube_indicator(line, 1.0, [0.0, 1.0 + 1e-9, 0.0]) == 0

    def test_monotone_in_radius(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            line = Line(rng.uniform(-2, 2, n), Direction.normalized(rng.normal(size=n)))
            p = rng.uniform(-3, 3, n)
            assert tube_indicator(line, 0.7, p) <= tube_indicator(line, 1.3, p)


class TestCurveIndicator:
    def test_flat_curve_on_graph(self):
        curve = LipschitzCurve(0, [-10.0, 10.0], [[0.0], [0.0]], 0.0)
        assert curve_indicator(curve, 1.0, [0.0, 0.0]) == 1
        assert curve_indicator(curve, 1.0, [0.0, 1.0]) == 1
        assert curve_indicator(curve, 1.0, [0.0, 1.0 + 1e-9]) == 0

    def test_affine_matches_tube_on_span(self, rng):
        # the straight-line special case: same verdicts within the span
        slope = 0.05
        curve = LipschitzCurve(0, [-50.0, 50.0], [[-50.0 * slope], [50.0 * slope]], slope)
        direction = Direction.normalized([1.0, slope])
        line = Line(np.zeros(2), direction)
        for _ in range(300):
            p = rng.uniform(-10, 10, 2)
            line_dist = point_distances(p[None, :], line)[0]
            if abs(line_dist - 1.0) < 1e-6:
                continue
            assert curve_indicator(curve, 1.0, p) == tube_indicator(line, 1.0, p)

    def test_zigzag_matches_per_segment_oracle(self, rng):
        delta = 0.1
        bps = np.linspace(-5.0, 5.0, 9)
        slopes = rng.uniform(-delta, delta, (8, 2)) / math.sqrt(2)
        vals = np.vstack([np.zeros(2), np.cumsum(slopes * np.diff(bps)[:, None], axis=0)])
        curve = LipschitzCurve(0, bps, vals, delta)
        pts = rng.uniform(-6, 6, (200, 3))
        dists = point_distances(pts, curve)
        # oracle: dense sampling along each segment
        verts = curve.vertices()
        best = np.full(len(pts), np.inf)
        for i in range(len(verts) - 1):
            ts = np.linspace(0.0, 1.0, 2001)
            seg_pts = verts[i][None, :] * (1 - ts[:, None]) + verts[i + 1][None, :] * ts[:, None]
            d = np.sqrt(((pts[:, None, :] - seg_pts[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
            best = np.minimum(best, d)
        assert np.max(np.abs(dists - best)) < 1e-5

    def test_lip_validation(self):
        with pytest.raises(ValueError):
            LipschitzCurve(0, [0.0, 1.0], [[0.0], [1.0]], 0.5)


@st.composite
def reach_cases(draw):
    """(members, axis, r, cube, layers): lines and polylines around a cube cut into layers.

    Lines with no motion along the axis lie inside a layer, outside the
    cube's slab, or exactly on a layer's face; others point anywhere.
    Polylines have vertices on both sides of the slab.
    """
    n = draw(st.sampled_from([2, 3]))
    axis = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    cube = Cube(rng.uniform(-5.0, 5.0, n), draw(st.floats(1.0, 8.0)))
    r = draw(st.floats(0.1, 2.0))
    layers = draw(st.integers(1, 12))
    lo, side = cube.min_corner[axis], cube.side
    members = []
    for kind in draw(st.lists(st.sampled_from(["inside", "outside", "face", "general", "polyline"]),
                              min_size=1, max_size=4)):
        anchor = cube.min_corner + rng.uniform(-0.5, 1.5, n) * side
        if kind == "polyline":
            bps = np.sort(rng.uniform(lo - side, lo + 2.0 * side, int(rng.integers(2, 7))))
            values = anchor[np.arange(n) != axis] + rng.normal(0.0, side, (bps.size, n - 1))
            slopes = np.linalg.norm(np.diff(values, axis=0), axis=1) / np.diff(bps)
            members.append(LipschitzCurve(axis, bps, values, 1.01 * float(slopes.max())))
            continue
        direction = rng.normal(size=n)
        if kind != "general":
            direction[axis] = 0.0
            anchor[axis] = {
                "inside": lo + rng.uniform(0.0, side),
                "outside": lo + side + r * rng.uniform(1.0, 3.0) * rng.choice([-1.0, 1.0]),
                "face": lo + side / layers * int(rng.integers(0, layers + 1)),
            }[kind]
            if kind == "outside" and anchor[axis] < lo + side:
                anchor[axis] -= side
        members.append(Line(anchor, Direction.normalized(direction)))
    return members, axis, r, cube, layers


class TestMemberReach:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(reach_cases())
    def test_cells_outside_the_bands_test_outside_the_member(self, case):
        members, axis, r, cube, layers = case
        n, lo = cube.n, cube.min_corner
        reach = member_reach(members, axis, r, cube, layers)
        assert reach.shape == (len(members), layers, 2, n)
        edges = lo[axis] + cube.side / layers * np.arange(layers + 1)
        # the lattice of cell centers of an m^n midpoint grid
        m = 29 if n == 2 else 13
        h = cube.side / m
        centers = lo + (np.arange(m) + 0.5)[:, None] * h
        points = lattice(centers.T)
        index = lattice([np.arange(m)] * n)
        # the k^n subcubes of a tiling whose rows along the axis are the layers
        k, s = layers, cube.side / layers
        sub_lo = subcube_grid(cube, k)
        sub_index = lattice([np.arange(k)] * n)
        for member, boxes in zip(members, reach):
            d_points = point_distances(points, member)
            if isinstance(member, Line):
                d_subs = line_box_distance(member, sub_lo, sub_lo + s)
            else:
                d_subs = polyline_box_distance(member, sub_lo, sub_lo + s)
            for i, box in enumerate(boxes):
                band = grid_ranges(box, lo, h, m)
                in_band = np.all((index >= band[:, 0]) & (index < band[:, 1]), axis=1)
                x = points[:, axis]
                in_slab = (x >= edges[i]) & (x <= edges[i + 1])
                assert np.all(d_points[in_slab & ~in_band] > r)
                band = grid_ranges(box + [[-0.5 * s], [0.5 * s]], lo, s, k)
                in_band = np.all((sub_index >= band[:, 0]) & (sub_index < band[:, 1]), axis=1)
                in_layer = sub_index[:, axis] == i
                assert np.all(d_subs[in_layer & ~in_band] > r)

    def test_a_line_outside_the_slab_reaches_nothing(self):
        cube = Cube(np.zeros(3), 4.0)
        line = Line(np.array([5.5, 1.0, 1.0]), Direction.normalized([0.0, 1.0, 1.0]))
        reach = member_reach([line], 0, 1.0, cube)
        band = grid_ranges(reach[0, 0], cube.min_corner, 0.5, 8)
        assert np.any(band[:, 0] >= band[:, 1])

    def test_the_rounding_bound_covers_a_far_anchor(self):
        # the anchor 4e15 back along the line, where a coordinate's ulp is
        # 0.5: the computed squared distances are off by about 0.1, so boxes
        # widened by r alone miss 32 cells that the distance kernel puts
        # within r
        direction = Direction.normalized([1.0, 0.1])
        line = Line(-4e15 * direction.components, direction)
        cube = Cube(np.array([-1.0, -1.0]), 2.0)
        m, r = 128, 0.125
        h = cube.side / m
        points = lattice([cube.min_corner[k] + (np.arange(m) + 0.5) * h for k in range(2)])
        index = lattice([np.arange(m)] * 2)
        band = grid_ranges(member_reach([line], 0, r, cube)[0, 0], cube.min_corner, h, m)
        in_band = np.all((index >= band[:, 0]) & (index < band[:, 1]), axis=1)
        near = point_distances(points, line) <= r
        assert near.sum() > 0 and not np.any(near & ~in_band)

    def test_a_line_on_a_widened_face_spans_its_whole_length(self):
        # the first member fixes the rounding bound and, having no x_0 motion
        # and x_0 = 0 on the cube's face, its box starts at that face widened
        # by the bound; the second member lies exactly there, so 0/0 arises
        cube = Cube(np.zeros(2), 4.0)
        far = Line(np.array([0.0, 100.0]), Direction.axis(2, 1))
        face = member_reach([far], 0, 1.0, cube, 3)[0, 0, 0, 0]
        line = Line(np.array([face, 1.0]), Direction.axis(2, 1))
        reach = member_reach([far, line], 0, 1.0, cube, 3)
        assert not np.any(np.isnan(reach))
        assert reach[1, 0, 0, 0] < face < reach[1, 0, 1, 0]
        band = grid_ranges(reach[1, 0], cube.min_corner, 0.5, 8)
        assert band[1].tolist() == [0, 8]


@st.composite
def kernel_cases(draw):
    """(member, cube, points): a line or polyline near a cube or far from it, and cube points.

    A line has a unit direction scaled by up to 5e-13, near an axis or
    anywhere, and is anchored up to 1e12 back along it; a polyline over an
    axis has breakpoints and values spread by up to 1e12.  The points are
    random points of the cube and its corners.
    """
    n = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    cube = Cube(rng.uniform(-10.0, 10.0, n), draw(st.floats(0.5, 20.0)))
    far = 10.0 ** draw(st.sampled_from([0, 3, 6, 9, 12]))
    axis = draw(st.integers(0, n - 1))
    through = cube.min_corner + cube.side * rng.uniform(-0.5, 1.5, n)
    if draw(st.booleans()):
        d = rng.normal(size=n)
        d[axis] += draw(st.sampled_from([0.0, 20.0]))
        d *= (1.0 + draw(st.floats(-5e-13, 5e-13))) / np.linalg.norm(d)
        member = Line(through - far * d, Direction(d))
    else:
        k = int(rng.integers(2, 7))
        bps = through[axis] + far * np.sort(rng.uniform(-1.0, 1.0, k)) + np.arange(k)
        values = np.delete(through, axis) + far * rng.normal(0.0, 0.1, (k, n - 1))
        slopes = np.linalg.norm(np.diff(values, axis=0), axis=1) / np.diff(bps)
        member = LipschitzCurve(axis, bps, values, 1.01 * float(slopes.max()))
    points = np.concatenate([cube.min_corner + cube.side * rng.uniform(0.0, 1.0, (20, n)),
                             cube.corners()])
    return member, cube, points


class TestSquaredDistances:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(kernel_cases())
    def test_within_the_rounding_bound_of_the_exact_square(self, case):
        member, cube, points = case
        err2 = distance_rounding([member], cube, 1.0)[0]
        got = squared_distances(points.T, member)
        for point, value in zip(points, got.tolist()):
            assert abs(Fraction(value) - exact_squared_distance(point, member)) <= Fraction(err2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_an_open_mesh_gives_the_bits_of_its_lattice(self, n, rng):
        axes = [rng.uniform(-5.0, 5.0, size) for size in (7, 5, 3)[:n]]
        mesh = [x.reshape((1,) * k + (-1,) + (1,) * (n - 1 - k)) for k, x in enumerate(axes)]
        members = [
            Line(rng.uniform(-9.0, 9.0, n), Direction.normalized(rng.normal(size=n))),
            LipschitzCurve(0, [-9.0, 0.5, 9.0], rng.uniform(-2.0, 2.0, (3, n - 1)), 1.0),
        ]
        for member in members:
            on_mesh = squared_distances(mesh, member)
            assert on_mesh.shape == tuple(x.size for x in axes)
            on_lattice = squared_distances(lattice(axes).T, member)
            assert on_mesh.ravel().tobytes() == on_lattice.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_lines_give_the_bits_of_one_line_each(self, n, rng):
        # each point's own line, in the point and the box kernel; the last two
        # lines run along axis 0, and go to the box kernel together with
        # their shared zero pattern
        dirs = rng.normal(size=(6, n))
        dirs[4:, 1:] = 0.0
        lines = [Line(rng.uniform(-9.0, 9.0, n), Direction.normalized(d)) for d in dirs]
        owner = np.repeat(np.arange(6), 50)
        anchors = np.array([line.anchor for line in lines])[owner]
        directions = np.array([line.direction.components for line in lines])[owner]
        points = rng.uniform(-5.0, 5.0, (owner.size, n))
        hi = points + rng.uniform(0.0, 2.0, points.shape)
        stacked = squared_distances(points.T, (anchors, directions))
        for rows in (slice(0, 200), slice(200, 300)):
            boxes = line_box_distance((anchors[rows], directions[rows]), points[rows], hi[rows])
            for i, box in zip(range(owner.size)[rows], boxes.tolist()):
                line = lines[owner[i]]
                assert stacked[i].hex() == squared_distances(points[i:i + 1].T, line)[0].hex()
                assert box.hex() == line_box_distance(line, points[i], hi[i])[0].hex()


class TestAngleFromAxis:
    def test_axis_itself(self):
        assert angle_from_axis(Direction.axis(3, 1), 1) == 0.0

    def test_planar_angle(self):
        theta = 0.01
        d = Direction([math.cos(theta), math.sin(theta)])
        assert abs(angle_from_axis(d, 0) - theta) < 1e-12

    def test_orientation_normalized(self):
        d = Direction(-np.eye(4)[2])
        assert angle_from_axis(d, 2) == 0.0


class TestTubeCubeIntersection:
    def test_axis_through_center(self):
        line = line_through([0.0, 0.0], [1.0, 0.0])
        assert tube_intersects_cube(line, 1.0, Cube.centered([0.0, 0.0], 2.0))

    def test_far_away(self):
        line = line_through([0.0, 0.0], [1.0, 0.0])
        cube = Cube(np.array([0.0, 1.0 + 1.0 + 0.5]), 1.0)
        assert not tube_intersects_cube(line, 1.0, cube)

    def test_matches_sampling_oracle(self, rng):
        # dense-grid oracle with a margin guard against resolution limits
        hits = 0
        for _ in range(100):
            n = int(rng.integers(2, 4))
            line = Line(rng.uniform(-3, 3, n), Direction.normalized(rng.normal(size=n)))
            radius = float(rng.uniform(0.3, 1.5))
            cube = Cube(rng.uniform(-3, 0, n), float(rng.uniform(1.0, 3.0)))
            exact = line_box_distance(line, cube.min_corner[None, :], cube.max_corner[None, :])[0]
            margin = 0.08
            if abs(exact - radius) < margin:
                continue
            hits += 1
            k = 61
            axes = [np.linspace(cube.min_corner[j], cube.max_corner[j], k) for j in range(n)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=1)
            sampled = point_distances(pts, line).min()
            assert (sampled <= radius) == tube_intersects_cube(line, radius, cube)
        assert hits >= 60


@pytest.mark.parametrize(
    "axes",
    [
        [np.linspace(-1.0, 2.0, 5)],
        [np.arange(4.0) + 0.5, np.array([0.25, -3.0])],
        [np.arange(3), np.arange(2, 6), np.arange(1, 3)],
        [np.linspace(0.0, 1.0, 7), np.zeros(0), np.ones(2)],
        [[0.5, 1.5], [2.0], [3.0, 4.0, 5.0], [-1.0, 1.0]],
    ],
)
def test_lattice_is_the_c_order_meshgrid(axes):
    mesh = np.meshgrid(*[np.asarray(a) for a in axes], indexing="ij")
    want = np.stack([m.ravel() for m in mesh], axis=1)
    got = lattice(axes)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestSubdivideCube:
    def test_documented_example(self):
        # n=2, delta=0.1, W=1: admissible side range [0.25, 0.5]
        cube = Cube(np.zeros(2), 10.0)
        k, side = subdivision_counts(cube, 0.1, 1.0)
        assert k == 20 and side == 0.5
        assert subcube_grid(cube, k).shape[0] == 400

    def test_single_subcube_at_upper_bound(self):
        n = 2
        side = 1.0 / (0.1 * 10 * n)
        cube = Cube(np.zeros(n), side)
        k, sub_side = subdivision_counts(cube, 0.1, 1.0)
        assert subcube_grid(cube, k).shape[0] == 1 and sub_side == side

    def test_exact_tiling(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            delta = float(rng.uniform(0.03, 0.3))
            w = float(rng.uniform(0.5, 2.0))
            side = float(rng.uniform(1.0, 4.0)) / delta * w
            cube = Cube(rng.uniform(-5, 5, n), side)
            k, sub_side = subdivision_counts(cube, delta, w)
            los = subcube_grid(cube, k)
            vol = los.shape[0] * sub_side**n
            assert abs(vol - side**n) / side**n < 1e-9
            lower = w / (delta * 20 * n)
            upper = w / (delta * 10 * n)
            assert lower * (1 - 1e-9) <= sub_side <= upper * (1 + 1e-9)
            corners = np.round((los - cube.min_corner) / sub_side).astype(int)
            flat = np.ravel_multi_index(tuple(corners.T), (k,) * n)
            assert np.bincount(flat).max() == 1  # every lattice corner occurs once

    def test_rejects_too_small(self):
        cube = Cube(np.zeros(2), 0.1)
        with pytest.raises(ValueError):
            subdivision_counts(cube, 0.1, 1.0)


class TestFattenAxisParallel:
    def test_axis_parallel_input(self):
        line = line_through([0.0, 3.0], [1.0, 0.0])
        cube = Cube.centered([0.0, 3.0], 0.4)
        fat, fat_radius = fatten_axis_parallel(line, 1.0, 0, cube, 0.1)
        assert fat_radius == 2.0
        assert np.allclose(fat.direction.components, [1.0, 0.0])
        assert abs(fat.anchor[1] - 3.0) < 1e-12

    def test_containment_on_cube(self, rng):
        # pointwise domination at sampled cube points, tilted at angle delta
        n, delta = 3, 0.1
        for _ in range(10):
            direction = Direction.normalized(
                [1.0] + list(math.tan(delta) * rng.uniform(-0.7, 0.7, n - 1))
            )
            t = Line(rng.uniform(-1, 1, n), direction)
            side = 1.0 / (delta * 10 * n)
            cube = Cube(rng.uniform(-1, 1, n), side)
            fat, fat_radius = fatten_axis_parallel(t, 1.0, 0, cube, delta)
            pts = cube.min_corner + cube.side * rng.uniform(0, 1, (10**4, n))
            inside_orig = point_distances(pts, t) <= 1.0
            inside_fat = point_distances(pts, fat) <= fat_radius
            assert not np.any(inside_orig & ~inside_fat)

    def test_rejects_violated_preconditions(self):
        line = line_through([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            fatten_axis_parallel(line, 1.0, 0, Cube(np.zeros(2), 100.0), 0.1)
        steep = line_through([0.0, 0.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            fatten_axis_parallel(steep, 1.0, 0, Cube(np.zeros(2), 0.4), 0.1)


class TestCapCover:
    def test_rho_equal_radius(self):
        cap = Cap(Direction.axis(3, 0), 0.2)
        cover = cap_cover(cap, 0.2)
        assert len(cover) == 1 and np.array_equal(cover[0], cap.center.components)

    def test_coverage(self, rng):
        cap = Cap(Direction.axis(3, 2), 0.1)
        rho = 0.02
        cover = cap_cover(cap, rho)
        basis = tangent_basis(cap.center)
        centers = [Direction(c) for c in cover]
        for _ in range(10**4):
            v = rng.normal(size=2)
            v *= rng.uniform(0, 1) ** 0.5 * cap.ang_radius / np.linalg.norm(v)
            r = np.linalg.norm(v)
            u = Direction.normalized(
                math.cos(r) * cap.center.components + math.sin(r) * (v / r) @ basis
            )
            assert min(line_angle(u, c) for c in centers) <= rho * (1 + 1e-9)

    def test_count_bound(self):
        cap = Cap(Direction.axis(3, 0), 0.1)
        for ratio in (2, 4, 8):
            cover = cap_cover(cap, cap.ang_radius / ratio)
            # the documented bound (sqrt(n-1) + 2)^(n-1) * ratio^(n-1) at n = 3
            assert len(cover) <= (math.sqrt(2) + 2.0) ** 2 * ratio**2

    def test_center_cap_first(self):
        cover = cap_cover(Cap(Direction.axis(2, 0), 0.1), 0.01)
        assert np.allclose(cover[0], [1.0, 0.0])

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cap_nets())
    def test_rows_equal_scalar_net(self, case):
        cap, rho = case
        cover = cap_cover(cap, rho)
        assert cover.dtype == np.float64 and not cover.flags.writeable
        oracle = np.array([c.components for c in scalar_cap_net(cap, rho)])
        assert np.array_equal(cover, oracle)

    def test_net_over_the_cell_budget_raises_before_allocating(self):
        # n = 4, R/rho = 200: (2 * 174 + 1)^3 = 42.5M tangent cells
        cap = Cap(Direction.axis(4, 0), 0.2)
        tracemalloc.start()
        try:
            with pytest.raises(CellBudgetExceeded):
                cap_cover(cap, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFrameMap:
    def test_identity_frame(self):
        mats, lengths, dets = frame_inverses(np.eye(2)[None])
        assert np.allclose(mats[0], np.eye(2))
        assert lengths.tolist() == [[1.0, 1.0]]
        assert dets.tolist() == [1.0]

    def test_distortion_bounds_near_axes(self, rng):
        # frames within (10n)^-1 of the axes distort lengths by at most 2
        for n in (2, 3):
            limit = 1.0 / (10 * n)
            frames = np.empty((500, n, n))
            for p in range(500):
                for j in range(n):
                    pert = rng.normal(size=n)
                    pert -= pert[j] * np.eye(n)[j]
                    pert *= rng.uniform(0, limit) / max(np.linalg.norm(pert), 1e-12)
                    frames[p, :, j] = Direction.normalized(np.eye(n)[j] + pert).components
            _, lengths, dets = frame_inverses(frames)
            for (lo, hi), det in zip(lengths, dets):
                assert 0.5 <= lo <= hi <= 2.0
                assert det <= 2.0**n

    def test_maps_frame_to_axes(self, rng):
        frame = [Direction.normalized(np.eye(3)[j] + 0.02 * rng.normal(size=3)) for j in range(3)]
        mats, _, _ = frame_inverses(np.stack([d.components for d in frame], axis=1)[None])
        for j in range(3):
            assert np.allclose(mats[0] @ frame[j].components, np.eye(3)[j], atol=1e-12)

    def test_rejects_singular(self):
        d = Direction.axis(2, 0)
        with pytest.raises(ValueError):
            frame_map([d, d])
        with pytest.raises(np.linalg.LinAlgError):
            frame_inverses(np.array([[[1.0, 1.0], [0.0, 0.0]]]))

    def test_checks_each_map_as_linear_map_does(self):
        # the inverse of diag(1e200, 1e200) has |det| 1e-400, which underflows to 0
        flat = np.diag([1e200, 1e200])
        with pytest.raises(ValueError, match="linear map must be invertible"):
            frame_inverses(np.stack([np.eye(2), flat, np.eye(2)]))
        inv = np.linalg.inv(flat)
        with pytest.raises(ValueError, match="linear map must be invertible"):
            LinearMap(inv, (1e-200, 1e-200), abs(float(np.linalg.det(inv))))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batched_maps_have_the_bits_of_one_frame_calls(self, n, rng):
        frames = [
            [Direction.normalized(np.eye(n)[j] + rng.uniform(0.0, 0.5) * rng.normal(size=n))
             for j in range(n)]
            for _ in range(200)
        ]
        stacked = np.array([np.stack([d.components for d in f], axis=1) for f in frames])
        mats, lengths, dets = frame_inverses(stacked)
        for mat, length, det, frame in zip(mats, lengths.tolist(), dets.tolist(), frames):
            one = frame_map(frame)
            assert mat.tobytes() == one.matrix.tobytes()
            assert tuple(length) == one.length_distortion
            assert det == one.volume_distortion


class TestWedgeVolume:
    def test_standard_basis(self):
        assert wedge_volume([Direction.axis(3, j) for j in range(3)]) == 1.0

    def test_degenerate(self):
        d = Direction.axis(2, 0)
        assert wedge_volume([d, d]) == 0.0

    def test_planar_example(self):
        v1 = Direction([1.0, 0.0])
        v2 = Direction.normalized([1.0, 1.0])
        assert abs(wedge_volume([v1, v2]) - math.sqrt(2) / 2) < 1e-12

    def test_permutation_and_sign_invariance(self, rng):
        dirs = [Direction.normalized(rng.normal(size=3)) for _ in range(3)]
        base = wedge_volume(dirs)
        perm = [dirs[2], dirs[0], dirs[1]]
        assert abs(wedge_volume(perm) - base) < 1e-12
        flipped = [Direction(-dirs[0].components), dirs[1], dirs[2]]
        assert abs(wedge_volume(flipped) - base) < 1e-12


class TestMaxDistance:
    def test_corner_max(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            line = Line(rng.uniform(-2, 2, n), Direction.normalized(rng.normal(size=n)))
            cube = Cube(rng.uniform(-2, 2, n), float(rng.uniform(0.5, 2)))
            exact = cube_line_max_distance(cube, line)
            pts = cube.min_corner + cube.side * rng.uniform(0, 1, (2000, n))
            assert point_distances(pts, line).max() <= exact + 1e-12
