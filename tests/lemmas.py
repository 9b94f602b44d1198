"""Test oracles: the two lemmas behind ``c_step``, and the dense subcube count.

``certifier.Constants`` prices one scale step as ``c_lw * (20 n)^n``.  The
``c_lw`` factor rests on fattening: on a small enough subcube a tube at angle
at most delta is dominated by an axis-parallel tube of doubled radius.  The
``(20 n)^n`` factor rests on the coarse neighborhood of every tube that meets
a subcube being identically 1 on it.  The tests check both lemmas on random
instances; the certifier only uses the constants they justify.

``dense_subcube_counts`` is the certifier's member-per-subcube count done the
plain way, with the exact distance test on every (member, subcube) pair.

``weighted_multiplicity_check`` compares integer weights against unit-weight
copies of each member on one grid.

``scalar_cap_net`` and ``first_cap`` are the reduction's cap net and cap
choice one cap at a time: each kept tangent-grid cell goes through the scalar
exponential map into a ``Direction``, and each cap is tested in turn by the
angle between unoriented directions.

``frame_map``, ``wedge_volume`` and ``reduce_per_tuple`` are the reduction
one cap tuple at a time: a ``Direction`` per cap center, one determinant,
inverse and singular-value call per frame, and every member mapped into new
``Direction``/``Line``/``Tube`` objects as the tuple is reached.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

from kakeya.errors import PropertyViolation, ValidationError
from kakeya.evaluator import FamilyMember, TubeFamily, check_families, midpoint_rule
from kakeya.geometry import (
    Cap,
    Cube,
    Direction,
    LinearMap,
    Line,
    Tube,
    angle_from_axis,
    line_box_distance,
    point_line_distance,
    polyline_box_distance,
    subcube_grid,
    subdivision_counts,
    tangent_basis,
)
from kakeya.reduction import split_by_caps


def cube_line_max_distance(cube: Cube, line: Line) -> float:
    """Max distance from the cube to a line (attained at a vertex)."""
    return float(np.max(point_line_distance(cube.corners(), line)))


def identically_one_check(tube: Tube, cube: Cube, delta: float, w: float) -> bool:
    """Exact check that the radius delta^-1 w neighborhood covers the cube.

    Max distance from the cube to the axis line is attained at a vertex
    (convexity), so the check is a finite corner computation.  Under the step
    preconditions (cube side <= delta^-1 w / 10n, tube meets the cube at
    radius w, delta <= 0.9) this always holds.
    """
    return cube_line_max_distance(cube, tube.line) <= w / delta


def fatten_axis_parallel(tube: Tube, axis: int, cube: Cube, delta: float) -> Tube:
    """Axis-parallel tube of doubled radius dominating ``tube`` on the cube.

    The surrogate axis passes through the point where the tube's axis line
    meets the hyperplane x_axis = cube-center component; requires the tube to
    make an angle <= delta with the axis and the cube to be small enough
    (side <= radius/(10 n delta)).
    """
    n = tube.n
    theta = angle_from_axis(tube.line.direction, axis)
    if theta > delta + 1e-9:
        raise ValueError(f"tube angle {theta:.3e} exceeds delta {delta:.3e}")
    if cube.side > tube.radius / (delta * 10.0 * n) * (1.0 + 1e-9):
        raise ValueError("cube too large for axis-parallel fattening")
    d = tube.line.direction.components
    if d[axis] < 0.0:
        d = -d
    center = cube.min_corner[axis] + 0.5 * cube.side
    t = (center - tube.line.anchor[axis]) / d[axis]
    crossing = tube.line.anchor + t * d
    return Tube(Line(crossing, Direction.axis(n, axis)), 2.0 * tube.radius)


def member_box_distances(family, lo, hi) -> np.ndarray:
    """Distances, shape (members, B), from each member's axis line / polyline to B boxes."""
    out = np.empty((len(family.members), np.atleast_2d(lo).shape[0]))
    for i, m in enumerate(family.members):
        if isinstance(m.geometry, Tube):
            out[i] = line_box_distance(m.geometry.line, lo, hi)
        else:
            out[i] = polyline_box_distance(m.geometry, lo, hi)
    return out


def dense_subcube_counts(families, cube: Cube, delta: float, w: float):
    """(side, counts, weights) of ``certifier._subcube_counts``, testing every pair.

    The weights are summed over the members in member order with ``np.sum``.
    """
    k, sub_side = subdivision_counts(cube, delta, w)
    los = subcube_grid(cube, k)
    his = los + sub_side
    counts = np.zeros((len(families), los.shape[0]), dtype=np.int64)
    weights = np.zeros(counts.shape)
    for j, f in enumerate(sorted(families, key=lambda fam: fam.axis)):
        if f.members:
            near = member_box_distances(f, los, his) <= w
            counts[j] = np.sum(near, axis=0)
            member_weights = np.array([[m.weight] for m in f.members])
            weights[j] = np.sum(np.where(near, member_weights, 0.0), axis=0)
    return sub_side, counts, weights


def weighted_multiplicity_check(families, cube: Cube, grid) -> bool:
    """Integer-weight evaluation equals the multiplicity-expanded evaluation.

    Both runs use the same grid; equality is required bit-for-bit (integer
    weights sum exactly in floating point).
    """
    check_families(families)
    expanded = [f.expand_integer_weights() for f in families]
    m = grid.cells_per_side
    return midpoint_rule(families, cube)(m, 1) == midpoint_rule(expanded, cube)(m, 1)


def line_angle(u: Direction, v: Direction) -> float:
    """Angle between unoriented directions, in [0, pi/2]."""
    return math.acos(min(1.0, abs(float(np.dot(u.components, v.components)))))


def _cap_point(center: Direction, basis: np.ndarray, v: np.ndarray) -> Direction:
    """Exponential-map image of a tangent vector v (length = angle)."""
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return center
    r = min(r, math.pi)
    unit = (v / np.linalg.norm(v)) @ basis
    return Direction.normalized(math.cos(r) * center.components + math.sin(r) * unit)


def scalar_cap_net(cap: Cap, rho: float) -> list[Direction]:
    """The centers of ``geometry.cap_cover``'s net, one cell at a time."""
    if rho >= cap.ang_radius * (1.0 - 1e-12):
        return [cap.center]
    m = cap.center.n - 1
    big_r = cap.ang_radius
    h = 2.0 * rho / math.sqrt(m)
    basis = tangent_basis(cap.center)
    imax = int(math.floor(big_r / h + 0.5)) + 1
    cells = []
    for idx in itertools.product(range(-imax, imax + 1), repeat=m):
        center = h * np.array(idx, dtype=float)
        nearest = np.maximum(np.abs(center) - 0.5 * h, 0.0)
        if float(nearest @ nearest) <= big_r * big_r * (1.0 + 1e-12):
            cells.append((float(center @ center), idx, center))
    cells.sort(key=lambda item: (item[0], item[1]))
    return [_cap_point(cap.center, basis, c) for _, _, c in cells]


def first_cap(centers: list[Direction], radius: float, direction: Direction, tol: float):
    """Index of the first radius-``radius`` cap holding ``direction``, or None."""
    for i, center in enumerate(centers):
        if line_angle(direction, center) <= radius + tol:
            return i
    return None


def frame_map(centers: list[Direction]) -> LinearMap:
    """Linear map sending each frame vector v_j to the axis vector e_j.

    The map is the inverse of the matrix with columns v_j; distortion fields
    come from its singular values and determinant.  Singular frames
    (|det| < 1e-12) are rejected.
    """
    n = len(centers)
    if any(c.n != n for c in centers):
        raise ValueError("frame vectors must match the frame size")
    v = np.stack([c.components for c in centers], axis=1)
    det = float(np.linalg.det(v))
    if abs(det) < 1e-12:
        raise ValueError(f"frame is singular: |det| = {abs(det):.3e}")
    mat = np.linalg.inv(v)
    svals = np.linalg.svd(mat, compute_uv=False)
    return LinearMap(mat, (float(svals[-1]), float(svals[0])), abs(float(np.linalg.det(mat))))


def wedge_volume(directions: list[Direction]) -> float:
    """|v_1 ^ ... ^ v_n| = absolute determinant of the column matrix."""
    v = np.stack([d.components for d in directions], axis=1)
    return abs(float(np.linalg.det(v)))


def transform_problem(families, cube: Cube, lmap: LinearMap, delta: float):
    """(families, cube, distortion_factor) of one cap tuple mapped by ``lmap``, at unit radius."""
    sigma_max = lmap.length_distortion[1]
    w = families[0].base_radius
    scale = 1.0 / (sigma_max * w)
    out_families = []
    for f in families:
        members = []
        for m in f.members:
            tube = m.geometry
            d = tube.line.direction.components
            d = d if d[f.axis] >= 0.0 else -d
            anchor = scale * lmap.apply(tube.line.anchor)
            new_dir = Direction.normalized(lmap.matrix @ d)
            ang = angle_from_axis(new_dir, f.axis)
            if ang > delta * (1.0 + 1e-9):
                raise PropertyViolation(
                    f"transformed angle {ang:.3e} exceeds delta {delta:.3e}"
                )
            members.append(FamilyMember(Tube(Line(anchor, new_dir), 1.0), m.weight))
        out_families.append(TubeFamily(f.axis, f.dim, tuple(members), 1.0))
    mapped = scale * lmap.apply(cube.corners())
    lo = mapped.min(axis=0)
    hi = mapped.max(axis=0)
    side = float(np.max(hi - lo)) * (1.0 + 1e-12)
    side = max(side, 1.0)
    out_cube = Cube.centered(0.5 * (lo + hi), side)
    distortion = sigma_max**cube.n * w**cube.n / lmap.volume_distortion
    return tuple(out_families), out_cube, distortion


def reduce_per_tuple(families, cube: Cube, nets, delta: float, nu=None) -> list:
    """``reduction._reduce_with_caps`` walking the cap tuples one at a time.

    Each tuple is checked as it is reached: center wedge >= nu/2 (unless
    ``nu`` is None), then a nonsingular frame, then every mapped angle.
    """
    split = [split_by_caps(f, *nets[f.axis]) for f in sorted(families, key=lambda f: f.axis)]
    problems = []
    for combo in itertools.product(*split):
        centers = [Direction(nets[j][0][i]) for j, i in enumerate(combo)]
        wedge = wedge_volume(centers)
        if nu is not None and wedge < nu / 2.0:
            raise ValidationError(
                f"cap tuple {combo} has center wedge {wedge:.3e} < nu/2; "
                "the transversality precondition is violated"
            )
        if wedge < 1e-12:
            raise ValidationError(f"cap tuple {combo} has a singular frame: |det| = {wedge:.3e}")
        lmap = frame_map(centers)
        tuple_families = [split[j][i] for j, i in enumerate(combo)]
        out_families, out_cube, distortion = transform_problem(tuple_families, cube, lmap, delta)
        problems.append(SimpleNamespace(
            map=lmap, families=out_families, cube=out_cube, distortion_factor=distortion,
            delta=delta, cap_indices=combo,
        ))
    return problems
