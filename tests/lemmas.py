"""Test oracles: the two lemmas behind ``c_step``, and the dense subcube count.

``certifier.Constants`` prices one scale step as ``c_lw * (20 n)^n``.  The
``c_lw`` factor rests on fattening: on a small enough subcube a tube at angle
at most delta is dominated by an axis-parallel tube of doubled radius.  The
``(20 n)^n`` factor rests on the coarse neighborhood of every tube that meets
a subcube being identically 1 on it.  The tests check both lemmas on random
instances; the certifier only uses the constants they justify.

``dense_subcube_counts`` is the certifier's member-per-subcube count done the
plain way, with the exact distance test on every (member, subcube) pair.

``pairwise_exact_overlap_2d`` is the exact n=2 overlap one pair of members
at a time: each pair's tube polygons are clipped against each other from
scratch (``convex_intersection_area``), with the clipping and orientation
test of every pair recomputed.

``weighted_multiplicity_check`` compares integer weights against unit-weight
copies of each member (``expand_integer_weights``) on one grid.

``family_values`` and ``overlap_integrand`` are the overlap integrand one
point at a time, every member tested at every point by the package's one
point-distance kernel, ``geometry.squared_distances``, on the points'
columns; ``point_distances`` is that kernel's distance, and
``exact_squared_distance`` is the squared distance it rounds, in exact
rational arithmetic.  ``lookup`` is a
projection function's nearest-cell value at given points, the pointwise
reference of its lattice lookup (``lookup_grid``); ``step_bound`` is one
certificate rung on a given cube; ``ball_sum_l1`` is the exact L1 norm of a
ball sum.  ``enumerate_grid_axis_parallel`` and ``genspec_to_json`` build
test inputs: regular axis-parallel families, and a generator spec's JSON.

``scalar_cap_net`` and ``first_cap`` are the reduction's cap net and cap
choice one cap at a time: each kept tangent-grid cell goes through the scalar
exponential map into a ``Direction``, and each cap is tested in turn by the
angle between unoriented directions.

``member_reach_reference`` is ``geometry.member_reach`` in its first form:
every line's two slab ends stacked, the 0/0 and zero-motion fix-ups applied
to every call, and the ``r`` widening applied last to the whole array.

``frame_map``, ``wedge_volume`` and ``reduce_per_tuple`` are the reduction
one cap tuple at a time: a ``Direction`` per cap center, one determinant,
inverse and singular-value call per frame, and every member mapped into new
``Direction``/``Line`` objects as the tuple is reached.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from kakeya.certifier import Constants, _check_step, _step_detail
from kakeya.errors import PropertyViolation, ValidationError
from kakeya.evaluator import (
    FamilyMember,
    TubeFamily,
    check_families,
    midpoint_rule,
)
from kakeya.generators import AxisParallel, GeneralAngle, GenSpec, Lipschitz, SmallAngle, Weighted
from kakeya.geometry import (
    Cap,
    Cube,
    Direction,
    LinearMap,
    Line,
    _squared_rounding,
    angle_from_axis,
    lattice,
    line_box_distance,
    polyline_box_distance,
    squared_distances,
    subcube_grid,
    subdivision_counts,
    tangent_basis,
)
from kakeya.loomis_whitney import BallSum, ProjectionFunction, unit_ball_volume
from kakeya.reduction import split_by_caps
from kakeya.serialization import SCHEMA_VERSION, cube_to_json


def point_distances(points, member) -> np.ndarray:
    """Distance from each point (N, n) to a line or polyline: the kernel on the points' columns."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.sqrt(squared_distances(pts.T, member))


def exact_squared_distance(point, member) -> Fraction:
    """The exact squared distance from a float point to a line or polyline, as a ``Fraction``.

    Each segment o + t v (t in R for a line, in [0, 1] for a polyline
    segment, whose v is the exact difference of its float vertices) is met at
    t = rel.v / v.v, clipped for a segment, with rel = x - o.
    """
    x = [Fraction(c) for c in np.asarray(point, dtype=float).tolist()]
    if isinstance(member, Line):
        segments = [(member.anchor.tolist(), member.direction.components.tolist(), False)]
    else:
        verts = member.vertices().tolist()
        segments = [(p0, [b - a for a, b in zip(map(Fraction, p0), map(Fraction, p1))], True)
                    for p0, p1 in zip(verts, verts[1:])]
    best = None
    for origin, v, clip in segments:
        rel = [xk - Fraction(ok) for xk, ok in zip(x, origin)]
        v = [Fraction(vk) for vk in v]
        t = sum(r * vk for r, vk in zip(rel, v)) / sum(vk * vk for vk in v)
        if clip:
            t = min(max(t, Fraction(0)), Fraction(1))
        d2 = sum((r - t * vk) ** 2 for r, vk in zip(rel, v))
        best = d2 if best is None else min(best, d2)
    return best


def cube_line_max_distance(cube: Cube, line: Line) -> float:
    """Max distance from the cube to a line (attained at a vertex)."""
    return float(np.max(point_distances(cube.corners(), line)))


def identically_one_check(line: Line, radius: float, cube: Cube, delta: float) -> bool:
    """Exact check that the radius delta^-1 ``radius`` neighborhood of ``line`` covers the cube.

    Max distance from the cube to the line is attained at a vertex
    (convexity), so the check is a finite corner computation.  Under the step
    preconditions (cube side <= delta^-1 radius / 10n, the line within
    ``radius`` of the cube, delta <= 0.9) this always holds.
    """
    return cube_line_max_distance(cube, line) <= radius / delta


def fatten_axis_parallel(
    line: Line, radius: float, axis: int, cube: Cube, delta: float
) -> tuple[Line, float]:
    """(line, radius) of an axis-parallel tube of doubled radius dominating the tube on the cube.

    The tube is the ``radius`` neighborhood of ``line``.  The surrogate line
    passes through the point where ``line`` meets the hyperplane x_axis =
    cube-center component; requires the line to make an angle <= delta with
    the axis and the cube to be small enough (side <= radius/(10 n delta)).
    """
    n = line.n
    theta = angle_from_axis(line.direction, axis)
    if theta > delta + 1e-9:
        raise ValueError(f"tube angle {theta:.3e} exceeds delta {delta:.3e}")
    if cube.side > radius / (delta * 10.0 * n) * (1.0 + 1e-9):
        raise ValueError("cube too large for axis-parallel fattening")
    d = line.direction.components
    if d[axis] < 0.0:
        d = -d
    center = cube.min_corner[axis] + 0.5 * cube.side
    t = (center - line.anchor[axis]) / d[axis]
    crossing = line.anchor + t * d
    return Line(crossing, Direction.axis(n, axis)), 2.0 * radius


def member_box_distances(family, lo, hi) -> np.ndarray:
    """Distances, shape (members, B), from each member's line / polyline to B boxes."""
    out = np.empty((len(family.members), np.atleast_2d(lo).shape[0]))
    for i, m in enumerate(family.members):
        if isinstance(m.geometry, Line):
            out[i] = line_box_distance(m.geometry, lo, hi)
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
    for j, f in enumerate(check_families(families)):
        if f.members:
            near = member_box_distances(f, los, his) <= w
            counts[j] = np.sum(near, axis=0)
            member_weights = np.array([[m.weight] for m in f.members])
            weights[j] = np.sum(np.where(near, member_weights, 0.0), axis=0)
    return sub_side, counts, weights


def member_reach_reference(members, axis: int, r: float, cube: Cube, layers: int = 1):
    """``geometry.member_reach``'s boxes, by its first formula."""
    n = cube.n
    is_line = np.array([isinstance(g, Line) for g in members], dtype=bool)
    lines = [g for g in members if isinstance(g, Line)]
    curves = [g.vertices() for g in members if not isinstance(g, Line)]
    anchors = np.array([line.anchor for line in lines]).reshape(-1, n)
    dirs = np.array([line.direction.components for line in lines]).reshape(-1, n)
    err2 = _squared_rounding(np.concatenate([anchors, *curves]), cube)
    rr = r + err2 / (math.sqrt(r * r + err2) + r)
    edges = np.arange(layers)[:, None] + [0.0, 1.0]
    slabs = cube.min_corner[axis] + cube.side / layers * edges + [-rr, rr]
    out = np.empty((is_line.size, layers, 2, n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (slabs - anchors[:, axis, None, None]) / dirs[:, axis, None, None]
        t[np.isnan(t).any(axis=-1)] = -np.inf, np.inf
        moved = anchors[:, None, None] + t[..., None] * dirs[:, None, None]
        ends = np.where(dirs[:, None, None] == 0.0, anchors[:, None, None], moved)
    out[is_line] = np.stack([ends.min(axis=2), ends.max(axis=2)], axis=2)
    for a, verts in zip(np.flatnonzero(~is_line), curves):
        bps = verts[:, axis]
        pts = np.stack([np.interp(slabs, bps, verts[:, c]) for c in range(n)], axis=-1)
        inside = ((bps > slabs[:, :1]) & (bps < slabs[:, 1:]))[..., None]
        out[a, :, 0] = np.minimum(pts.min(axis=1), np.where(inside, verts, np.inf).min(axis=1))
        out[a, :, 1] = np.maximum(pts.max(axis=1), np.where(inside, verts, -np.inf).max(axis=1))
    out[:, :, 0] -= rr
    out[:, :, 1] += rr
    return out


def family_values(family: TubeFamily, points, radius: float | None = None) -> np.ndarray:
    """sum_a w_a * indicator(member at ``radius``) at each point (N, n)."""
    r = family.base_radius if radius is None else radius
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(pts.shape[0])
    for m in family.members:
        out += m.weight * (point_distances(pts, m.geometry) <= r)
    return out


def overlap_integrand(families, points, radii: list[float] | None = None) -> np.ndarray:
    """prod_j (sum_a w 1_tube)^(1/(n-1)) at each point; empty sums give 0."""
    fams = check_families(families)
    p = 1.0 / (len(fams) - 1)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.ones(pts.shape[0])
    for j, family in enumerate(fams):
        vals = family_values(family, pts, None if radii is None else radii[j])
        if p != 1.0:
            vals = np.power(vals, p)
        out *= vals
    return out


def lookup(f: ProjectionFunction, points) -> np.ndarray:
    """Nearest-cell values of ``f`` at points (N, dim); raises outside its box."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != f.dim:
        raise ValidationError("points must have one coordinate per function axis")
    return f.values[tuple(f._cell_index(k, pts[:, k]) for k in range(f.dim))]


def step_bound(families, cube: Cube, delta: float):
    """The ``StepDetail`` of one scale step on ``cube``, after the step's preconditions.

    Requires cube side >= delta^-1 W, a shared base radius, and member
    angles (tubes) / Lipschitz constants (curves) at most delta.
    """
    n, w = _check_step(families, cube, delta)
    return _step_detail(families, cube, delta, w, Constants.for_dimension(n).c_lw)


def ball_sum_l1(b: BallSum, ambient_dim: int) -> float:
    """Exact L1 norm omega_d * r^d * sum_a w_a of a ball sum in R^d."""
    if ambient_dim != b.centers.shape[1]:
        raise ValidationError("ambient dimension mismatch")
    return unit_ball_volume(ambient_dim) * b.radius**ambient_dim * float(np.sum(b.weights))


def _clip_halfplane(poly, normal, offset):
    """Keep the part of a polygon with normal . x <= offset."""
    if len(poly) == 0:
        return []
    out = []
    prev = poly[-1]
    prev_in = normal[0] * prev[0] + normal[1] * prev[1] <= offset
    for cur in poly:
        cur_in = normal[0] * cur[0] + normal[1] * cur[1] <= offset
        if cur_in != prev_in:
            dprev = normal[0] * prev[0] + normal[1] * prev[1] - offset
            dcur = normal[0] * cur[0] + normal[1] * cur[1] - offset
            t = dprev / (dprev - dcur)
            out.append(
                (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
            )
        if cur_in:
            out.append(cur)
        prev, prev_in = cur, cur_in
    return out


def _signed_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + [poly[0]]):
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def convex_intersection_area(poly_a, poly_b) -> float:
    """Area of the intersection of two convex polygons (clip A against B)."""
    if len(poly_a) < 3 or len(poly_b) < 3:
        return 0.0
    if _signed_area(poly_b) < 0.0:
        poly_b = poly_b[::-1]
    out = poly_a
    for (px, py), (qx, qy) in zip(poly_b, poly_b[1:] + [poly_b[0]]):
        # interior of a CCW polygon is left of each edge
        normal = (qy - py, px - qx)
        offset = normal[0] * px + normal[1] * py
        out = _clip_halfplane(out, normal, offset)
        if not out:
            return 0.0
    return abs(_signed_area(out))


def _tube_cube_polygon(line: Line, r: float, cube: Cube) -> list:
    lo = cube.min_corner
    hi = cube.max_corner
    square = [
        (float(lo[0]), float(lo[1])),
        (float(hi[0]), float(lo[1])),
        (float(hi[0]), float(hi[1])),
        (float(lo[0]), float(hi[1])),
    ]
    d = line.direction.components
    a = line.anchor
    normal = (-float(d[1]), float(d[0]))
    base = normal[0] * float(a[0]) + normal[1] * float(a[1])
    poly = _clip_halfplane(square, normal, base + r)
    return _clip_halfplane(poly, (-normal[0], -normal[1]), -(base - r))


def pairwise_exact_overlap_2d(families, cube: Cube) -> float:
    """sum_{a,b} w_a w_b area(T_a ∩ T_b ∩ Q), every pair clipped on its own, summed by fsum."""
    fams = check_families(families)
    polys = [
        [(m.weight, _tube_cube_polygon(m.geometry, f.base_radius, cube)) for m in f.members]
        for f in fams
    ]
    terms = []
    for wa, pa in polys[0]:
        for wb, pb in polys[1]:
            if wa == 0.0 or wb == 0.0:
                continue
            terms.append(wa * wb * convex_intersection_area(pa, pb))
    return math.fsum(terms)


def expand_integer_weights(family: TubeFamily) -> TubeFamily:
    """The family with each weight-w member replaced by w unit-weight copies (integer w only)."""
    members = []
    for m in family.members:
        if not float(m.weight).is_integer():
            raise ValidationError(f"weight {m.weight!r} is not an integer")
        members.extend(FamilyMember(m.geometry, 1.0) for _ in range(int(m.weight)))
    return TubeFamily(family.axis, family.dim, tuple(members), family.base_radius)


def weighted_multiplicity_check(families, cube: Cube, grid) -> bool:
    """Integer-weight evaluation equals the multiplicity-expanded evaluation.

    Both runs use the same grid; equality is required bit-for-bit (integer
    weights sum exactly in floating point).
    """
    check_families(families)
    expanded = [expand_integer_weights(f) for f in families]
    m = grid.cells_per_side
    return midpoint_rule(families, cube)(m) == midpoint_rule(expanded, cube)(m)


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
            line = m.geometry
            d = line.direction.components
            d = d if d[f.axis] >= 0.0 else -d
            anchor = scale * lmap.apply(line.anchor)
            new_dir = Direction.normalized(lmap.matrix @ d)
            ang = angle_from_axis(new_dir, f.axis)
            if ang > delta * (1.0 + 1e-9):
                raise PropertyViolation(
                    f"transformed angle {ang:.3e} exceeds delta {delta:.3e}"
                )
            members.append(FamilyMember(Line(anchor, new_dir), m.weight))
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
    split = [split_by_caps(f, *nets[f.axis]) for f in check_families(families)]
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


def enumerate_grid_axis_parallel(n: int, k: int, spacing: float) -> list[TubeFamily]:
    """k^(n-1) unit axis-parallel tubes per axis on a regular anchor grid.

    Anchor projections form the centered grid {(i - (k-1)/2) * spacing} per
    transverse dimension, so all projected anchors are distinct.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if n < 2:
        raise ValidationError("dimension must be >= 2")
    offsets = (np.arange(k) - (k - 1) / 2.0) * spacing
    transverse = lattice([offsets] * (n - 1))
    families = []
    for axis in range(n):
        members = []
        for row in transverse:
            anchor = np.zeros(n)
            anchor[[t for t in range(n) if t != axis]] += row
            members.append(FamilyMember(Line(anchor, Direction.axis(n, axis))))
        families.append(TubeFamily(axis, n, tuple(members), 1.0))
    return families


def regime_to_json(regime) -> dict:
    if isinstance(regime, AxisParallel):
        return {"kind": "axis_parallel"}
    if isinstance(regime, SmallAngle):
        return {"kind": "small_angle", "delta": regime.delta}
    if isinstance(regime, GeneralAngle):
        return {"kind": "general"}
    if isinstance(regime, Lipschitz):
        return {"kind": "lipschitz", "delta": regime.delta,
                "breakpoints": regime.breakpoints}
    if isinstance(regime, Weighted):
        return {"kind": "weighted", "low": regime.low, "high": regime.high,
                "delta": regime.delta}
    raise ValidationError(f"unknown regime {regime!r}")


def genspec_to_json(spec: GenSpec) -> dict:
    """The ``gen`` stanza that ``serialization.genspec_from_json`` reads back as ``spec``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "n": spec.n,
        "counts": list(spec.counts),
        "regime": regime_to_json(spec.regime),
        "cube": cube_to_json(spec.cube),
        "seed": spec.seed,
        "radius": spec.radius,
    }
