"""Geometric primitives: lines, polyline graphs, cubes, spherical caps.

Everything here is immutable after construction (arrays are copied and marked
read-only), so callers on any thread can share values freely.  A tube is the
neighborhood of a core curve, a ``Line`` or a ``LipschitzCurve``; its radius
belongs to the family, so the functions that need one take it as an argument.

Conventions:
  * axes are 0-based,
  * neighborhoods are closed (distance <= radius counts as inside),
  * line directions are unoriented; angle measurements normalize the sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CellBudgetExceeded, ValidationError

UNIT_NORM_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
#: largest |coordinate| of a cube corner, anchor or vertex that the distance
#: tests take: below it, squared distances and the rounding bounds built on
#: them (``_squared_rounding``, ``distance_rounding``) stay far inside the
#: float range
COORDINATE_LIMIT = 1e100
# Most tangent-grid cells in one ``cap_cover`` (its arrays peak near 150 MB)
CAP_NET_CELLS = 1 << 20


def as_point(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {arr.shape}")
    return arr


def _frozen(values, shape_check=None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if shape_check is not None and not shape_check(arr.shape):
        raise ValueError(f"unexpected array shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinates")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Direction:
    """Unit vector in R^n (n >= 2), validated to |v| = 1 within 1e-12."""

    components: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.components, lambda s: len(s) == 1 and s[0] >= 2)
        with np.errstate(over="ignore"):  # a norm past the float range is inf, and fails
            norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction is not unit length: |v|-1 = {norm - 1.0:.3e}")
        object.__setattr__(self, "components", arr)

    @classmethod
    def normalized(cls, values) -> "Direction":
        arr = as_point(values)
        norm = np.linalg.norm(arr)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / norm)

    @classmethod
    def axis(cls, n: int, j: int) -> "Direction":
        e = np.zeros(n)
        e[j] = 1.0
        return cls(e)

    @property
    def n(self) -> int:
        return self.components.size


@dataclass(frozen=True, eq=False)
class Line:
    """Infinite line {anchor + t * direction, t in R}."""

    anchor: np.ndarray
    direction: Direction

    def __post_init__(self):
        anchor = _frozen(self.anchor, lambda s: len(s) == 1)
        if anchor.size != self.direction.n:
            raise ValueError("anchor and direction dimensions differ")
        object.__setattr__(self, "anchor", anchor)

    @property
    def n(self) -> int:
        return self.anchor.size


@dataclass(frozen=True, eq=False)
class LipschitzCurve:
    """Piecewise-linear graph over the x_axis coordinate.

    The curve is the interpolant of the points (t_i, values_i) in R^n with the
    t coordinate placed at position ``axis``.  The declared Lipschitz constant
    ``lip`` is validated against every segment on construction.
    """

    axis: int
    breakpoints: np.ndarray  # (K+1,), strictly increasing
    values: np.ndarray  # (K+1, n-1)
    lip: float

    def __post_init__(self):
        bps = _frozen(self.breakpoints, lambda s: len(s) == 1 and s[0] >= 2)
        vals = _frozen(self.values, lambda s: len(s) == 2 and s[0] >= 2)
        if vals.shape[0] != bps.size:
            raise ValueError("breakpoints and values lengths differ")
        if not (self.lip >= 0.0):
            raise ValueError("Lipschitz constant must be nonnegative")
        dt = np.diff(bps)
        if np.any(dt <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        with np.errstate(over="ignore"):  # a norm or a bound past the float range is inf
            dg = np.linalg.norm(np.diff(vals, axis=0), axis=1)
            bad = dg > self.lip * dt * (1.0 + 1e-12) + 1e-300
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"segment {i} violates the declared Lipschitz constant: "
                f"|dg|/dt = {dg[i] / dt[i]:.6g} > {self.lip:.6g}"
            )
        n = vals.shape[1] + 1
        if not (0 <= self.axis < n):
            raise ValueError("curve axis out of range")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[1] + 1

    @property
    def span(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def vertices(self) -> np.ndarray:
        """Embedded polyline vertices, shape (K+1, n)."""
        out = np.empty((self.breakpoints.size, self.n))
        out[:, self.axis] = self.breakpoints
        out[:, [k for k in range(self.n) if k != self.axis]] = self.values
        return out

    def covers_interval(self, lo: float, hi: float) -> bool:
        return self.breakpoints[0] <= lo and hi <= self.breakpoints[-1]


@dataclass(frozen=True, eq=False)
class Cube:
    """Axis-aligned cube given by its minimal corner and side length."""

    min_corner: np.ndarray
    side: float

    def __post_init__(self):
        corner = _frozen(self.min_corner, lambda s: len(s) == 1)
        if not (self.side > 0.0):
            raise ValueError("cube side must be positive")
        object.__setattr__(self, "min_corner", corner)

    @property
    def n(self) -> int:
        return self.min_corner.size

    @property
    def max_corner(self) -> np.ndarray:
        return self.min_corner + self.side

    def corners(self) -> np.ndarray:
        """All 2^n vertices, shape (2^n, n)."""
        offs = np.array(list(itertools.product((0.0, 1.0), repeat=self.n)))
        return self.min_corner + self.side * offs

    @classmethod
    def centered(cls, center, side: float) -> "Cube":
        c = as_point(center)
        return cls(c - 0.5 * side, side)


@dataclass(frozen=True, eq=False)
class Cap:
    """Closed spherical cap {u on S^{n-1} : angle(u, center) <= ang_radius}."""

    center: Direction
    ang_radius: float

    def __post_init__(self):
        if not (0.0 < self.ang_radius <= math.pi):
            raise ValueError("cap angular radius must lie in (0, pi]")


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Invertible linear map with its length/volume distortion recorded.

    ``length_distortion`` holds the (min, max) singular value and
    ``volume_distortion`` is |det|.  The map holds the values it is given;
    ``frame_inverses`` computes them for a whole stack of matrices at once.
    """

    matrix: np.ndarray
    length_distortion: tuple[float, float]
    volume_distortion: float

    def __post_init__(self):
        mat = _frozen(self.matrix, lambda s: len(s) == 2 and s[0] == s[1])
        if not (self.volume_distortion > 0.0 and self.length_distortion[0] > 0.0):
            raise ValueError("linear map must be invertible")
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T


# ---------------------------------------------------------------------------
# angles


def angle_from_axis(direction: Direction, axis: int) -> float:
    """Angle between an unoriented direction and the coordinate axis.

    The direction is oriented so its axis component is >= 0 before measuring,
    so the result lies in [0, pi/2] and v, -v give the same answer.
    """
    comp = abs(float(direction.components[axis]))
    return math.acos(min(1.0, comp))


# ---------------------------------------------------------------------------
# distances


def squared_distances(coords, member: Line | LipschitzCurve | tuple, work=None) -> np.ndarray:
    """Squared distance from points to a line or polyline, in the residual form.

    ``coords`` holds the points' n coordinate arrays, which broadcast
    together: a grid's open mesh (axis k's values shaped to run along axis
    k), or n columns of equal length.  The result has their broadcast shape.
    ``member`` is a ``Line``, a ``LipschitzCurve``, or stacked lines: a pair
    ``(anchors, directions)`` of (rows, n) arrays that give each of ``rows``
    points in n columns its own line.  A segment o + t v (t in R for a
    line, in [0, 1] for a polyline segment) gives rel = x - o,
    t = sum_k rel_k v'_k with v' = v / (v.v), and the squared residual
    sum_k (rel_k - t v_k)^2; a polyline takes the minimum over its segments.
    ``distance_rounding`` bounds the rounding.

    ``work``, if given, is four arrays of the broadcast shape: the result is
    built in the first, and the full-size temporaries (t and the residuals,
    and a polyline's later segments) in the others, so the call allocates
    no array of that shape.
    """
    out, t, res, segment = (None,) * 4 if work is None else work
    if isinstance(member, Line):
        return _residual_squares(coords, member.anchor, member.direction.components, False,
                                 out, t, res)
    if not isinstance(member, LipschitzCurve):
        return _residual_squares(coords, *member, False, out, t, res)
    verts = member.vertices()
    best = _residual_squares(coords, verts[0], verts[1] - verts[0], True, out, t, res)
    for p0, p1 in zip(verts[1:-1], verts[2:]):
        d2 = _residual_squares(coords, p0, p1 - p0, True, segment, t, res)
        np.minimum(best, d2, out=best)
    return best


def _residual_squares(coords, origin, v, clip: bool, out=None, t_out=None,
                      res_out=None) -> np.ndarray:
    """sum_k (rel_k - t v_k)^2 of ``squared_distances`` for one segment or line.

    ``origin`` and ``v`` are one segment's (n,) vectors, or per-point
    (rows, n) stacks.  Both forms take v.v from the same BLAS dot product
    over n contiguous values, so a stacked row has the bits of its one-line
    call.  The sum is built in ``out``, t in ``t_out`` and the middle
    residuals in ``res_out``: arrays of the broadcast shape, or None for new
    ones; either way each value is the same float.
    """
    if v.ndim == 1:
        origin, scaled, v = origin.tolist(), (v / np.dot(v, v)).tolist(), v.tolist()
    else:
        origin, scaled, v = origin.T, (v / np.vecdot(v, v)[:, None]).T, v.T
    n = len(coords)
    rel = [x - o for x, o in zip(coords, origin)]
    t = rel[0] * scaled[0]
    for k in range(1, n):
        # on an open mesh only the last partial sum has the full shape
        t = np.add(t, rel[k] * scaled[k], out=t_out if k == n - 1 else None)
    if clip:
        np.clip(t, 0.0, 1.0, out=t)
    d2 = None
    for k, (r, s) in enumerate(zip(rel, v)):
        # the last residual overwrites t, which nothing reads after it
        res = np.multiply(t, s, out=t if k == n - 1 else out if k == 0 else res_out)
        np.subtract(r, res, out=res)
        np.square(res, out=res)
        if d2 is None:
            d2 = res
        else:
            d2 += res
    return d2


def _segment_box_distance_sq(anchor, direction, lo, hi, t_lo, t_hi):
    """Exact min of dist(anchor + t*direction, box)^2 over t in [t_lo, t_hi].

    ``lo``/``hi`` stack B boxes along axis 0; the result has shape (B,).
    ``anchor`` and ``direction`` are one segment's (n,) vectors, or (B, n)
    stacks, one per box, whose directions share one zero pattern.
    The squared distance is convex piecewise quadratic in t, so its minimum is
    attained either at a slab-crossing breakpoint, at an interval's
    unconstrained quadratic minimizer, or at a clamped range endpoint; the
    exact function is evaluated at all such candidates.
    """
    lo = np.atleast_2d(np.asarray(lo, dtype=float))
    hi = np.atleast_2d(np.asarray(hi, dtype=float))
    a = np.atleast_2d(np.asarray(anchor, dtype=float))
    d = np.atleast_2d(np.asarray(direction, dtype=float))
    moving = d[0] != 0.0
    am, dm = a[:, moving], d[:, moving]
    breaks = np.concatenate([(lo[:, moving] - am) / dm, (hi[:, moving] - am) / dm], axis=1)
    breaks.sort(axis=1)
    # probe each interval between consecutive breakpoints (plus both tails)
    probes = np.concatenate(
        [
            breaks[:, :1] - 1.0,
            0.5 * (breaks[:, :-1] + breaks[:, 1:]),
            breaks[:, -1:] + 1.0,
        ],
        axis=1,
    )
    # unconstrained minimizer of the quadratic piece active at each probe
    a, d = a[:, None, :], d[:, None, :]
    pos = a + probes[..., None] * d  # (B, P, n)
    below = pos < lo[:, None, :]
    above = pos > hi[:, None, :]
    d_sq = d * d
    quad_a = np.sum(np.where(below | above, d_sq, 0.0), axis=2)
    lin = np.sum(np.where(below, d * (a - lo[:, None, :]), 0.0), axis=2)
    lin += np.sum(np.where(above, d * (a - hi[:, None, :]), 0.0), axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(quad_a > 0.0, -lin / quad_a, probes)
    cands = [breaks, t_star]
    if math.isfinite(t_lo) or math.isfinite(t_hi):
        ends = []
        if math.isfinite(t_lo):
            ends.append(np.full((lo.shape[0], 1), t_lo))
        if math.isfinite(t_hi):
            ends.append(np.full((lo.shape[0], 1), t_hi))
        cands.extend(ends)
    t_cand = np.clip(np.concatenate(cands, axis=1), t_lo, t_hi)
    # in place, so that a stack of boxes holds two (B, candidates, n) arrays
    pos = t_cand[..., None] * d
    pos += a
    excess = lo[:, None, :] - pos
    np.maximum(excess, np.subtract(pos, hi[:, None, :], out=pos), out=excess)
    np.maximum(excess, 0.0, out=excess)
    dist_sq = np.einsum("ijk,ijk->ij", excess, excess)
    return dist_sq.min(axis=1)


def line_box_distance(lines: Line | tuple, lo, hi) -> np.ndarray:
    """Exact distance from infinite lines to axis-aligned boxes (B, n).

    ``lines`` is one ``Line`` for every box, or stacked lines
    ``(anchors, directions)`` as in ``squared_distances``: (B, n) arrays,
    one line per box.  Stacked rows go to the kernel one zero pattern of
    their directions at a time, so each row has the bits of its one-line call.
    """
    if isinstance(lines, Line):
        d2 = _segment_box_distance_sq(lines.anchor, lines.direction.components, lo, hi,
                                      -math.inf, math.inf)
    else:
        anchors, dirs = lines
        key = (dirs != 0.0) @ (1 << np.arange(dirs.shape[1]))
        # not np.unique, whose first call imports numpy.ma (1-2 MB of resident memory)
        patterns = set(key.tolist())
        d2 = np.empty(key.size)
        for p in patterns:
            rows = key == p if len(patterns) > 1 else slice(None)
            d2[rows] = _segment_box_distance_sq(anchors[rows], dirs[rows], lo[rows], hi[rows],
                                                -math.inf, math.inf)
    return np.sqrt(np.maximum(d2, 0.0))


def polyline_box_distance(curve: LipschitzCurve, lo, hi) -> np.ndarray:
    """Exact distance from the embedded polyline to axis-aligned boxes."""
    verts = curve.vertices()
    lo2 = np.atleast_2d(np.asarray(lo, dtype=float))
    best = np.full(lo2.shape[0], np.inf)
    for i in range(verts.shape[0] - 1):
        d2 = _segment_box_distance_sq(
            verts[i], verts[i + 1] - verts[i], lo, hi, 0.0, 1.0
        )
        np.minimum(best, d2, out=best)
    return np.sqrt(np.maximum(best, 0.0))


# ---------------------------------------------------------------------------
# reach: where a member can be within a radius


def _squared_rounding(origins, cube: Cube) -> float:
    """Bound (n + 14) eps R^2 on the error of ``squared_distances`` at a point of ``cube``.

    ``origins`` stacks the members' anchors and vertices, and R is the
    largest distance from a point x of the cube to an origin o.  Every
    member passes through its origins, so the true distance D is at most R.
    With u = eps/2, and v a line's stored direction or a polyline's computed
    segment vector, the first-order terms are:

      * rel_k = x_k - o_k rounds by u |x - o| <= u R, which moves the point,
        and so D, by at most u R; a polyline's computed segment vector
        fl(v1 - v0) moves its far end by u |v1 - v0| <= 2u R (both vertices
        lie within R of x).  Together |D'^2 - D^2| <= 2 D (3u R) <= 6u R^2,
        D' the exact distance from o + rel to the computed segment;
      * t is off from the exact minimiser t' for rel by (2n + 1) u R / |v|
        ((n + 1) u in v' = v / fl(v.v), u in each product, n - 1 in the
        sum).  The exact |rel - t v|^2 is D'^2 plus (t - t')^2 |v|^2, or at
        most three times that for a clipped segment parameter (clipping is
        1-Lipschitz and the two clip to the same end unless t' lies within
        |t - t'| of it): a second-order term only;
      * each residual rel_k - fl(t v_k) rounds by u (|q_k| + |t v_k|), where
        q = rel - t v has |q| <= R and |t v| <= |rel| + |q| <= 2R, so the
        residual moves by at most 3u R and its square by 6u R^2;
      * the n squares and their sum round by n u |res|^2 <= n u R^2;
      * a caller that compares the rounded square root with r, as the
        evaluator does, moves the decision by 2u d2 <= 2u R^2.

    The sum is (n + 14) u R^2.  The second-order terms are about
    12 n^2 u^2 R^2 (the clipped t term) plus smaller ones, so the first-order
    sum bounds them for any n far below 1/u, and the bound returned is twice
    it, (n + 14) eps R^2.  A line's |direction| need not be 1, since t divides
    by v.v, so no term depends on it.

    A coordinate past ``COORDINATE_LIMIT`` is refused with a
    ``ValidationError``: R^2, or the squares callers build on it, would
    overflow.
    """
    coords = np.abs(np.concatenate([origins.ravel(), cube.min_corner, cube.max_corner]))
    largest = float(coords.max())
    if largest > COORDINATE_LIMIT:
        raise ValidationError(
            f"coordinate {largest!r} is past the distance tests' range: squared "
            f"distances need every |coordinate| <= {COORDINATE_LIMIT!r}"
        )
    # the farthest corner from an origin takes the farther face on every axis
    faces = np.maximum((cube.min_corner - origins) ** 2, (cube.max_corner - origins) ** 2)
    far2 = faces.sum(axis=1).max(initial=0.0)
    return float((cube.n + 14) * _EPS * far2)


def distance_rounding(members, cube: Cube, r: float) -> tuple[float, float]:
    """Rounding bounds ``(err2, e)`` of the computed distances from ``members`` to ``cube``.

    ``members`` are lines and polylines.  ``err2`` bounds the error of
    ``squared_distances`` at a point of the cube, by the rule
    ``member_reach`` pads its boxes with (``_squared_rounding``).

    ``e`` bounds the rounding of a box test against ``r``, for a box of the
    cube whose corners ``lo``, ``lo + side`` and center ``lo + side / 2``
    are computed in floats.  Its computed distance (``line_box_distance``,
    ``polyline_box_distance``) and its true one differ by less than ``e``
    whenever either is at most ``r``, with room left for the center classes
    of ``boxes_within``.  With L = sqrt(n) M, M the largest |coordinate| of
    the cube's corners, anchors and vertices, so that every such point has
    norm at most L, and u = eps/2, the first-order terms are:

      * a computed breakpoint (b - a_k) / d_k is off by 2u relative, which
        moves the line point by 2u |t d| <= 2u (2L + r), since the nearest
        point lies within r of a box of the cube;
      * a piece's stationary point -lin/quad (sums over at most n active
        axes, each off by (n + 1) u) moves by dt with
        sqrt(quad) |dt| <= (n + 1) u (|a - b| + |t d|) <= (n + 1) u (4L + r),
        which bounds the rise of the distance on the piece; a stationary
        point within dt of a breakpoint is met by that breakpoint's
        candidate, where the rise is no larger;
      * evaluating a + t d rounds by u (|t d| + |a + t d|) <= u (3L + 2r),
        and the n squares, their sum and the square root by (n + 2) u r;
      * a polyline's segment vector v1 - v0 moves v1 by 2u L;
      * the box corners and center computed from the cube move the box by
        at most 3u L;
      * the squares ``boxes_within`` compares round by 4u (r + L).

    Their sum is below (2n + 10) eps (L + r); ``e`` is twice that, to cover
    the second-order terms.
    """
    n = cube.n
    anchors = np.array([g.anchor for g in members if isinstance(g, Line)]).reshape(-1, n)
    origins = np.concatenate([anchors, *(g.vertices() for g in members if not isinstance(g, Line))])
    coords = np.abs(np.concatenate([origins.ravel(), cube.min_corner, cube.max_corner]))
    e = 4.0 * (n + 5) * _EPS * (math.sqrt(n) * float(coords.max()) + r)
    return _squared_rounding(origins, cube), e


def boxes_within(member, lo, side: float, r: float, bounds) -> np.ndarray:
    """Whether each box lies within ``r`` of its member: the exact box test, centers first.

    ``lo`` holds the boxes' min corners as n coordinate columns, the form
    ``squared_distances`` takes, and box i runs from lo_i to lo_i + ``side``.
    ``member`` is one ``LipschitzCurve`` for every box, or stacked lines
    ``(anchors, directions)``, one per box.  ``bounds`` is ``(err2, e)``
    from ``distance_rounding`` on members that include these and a cube
    that holds the boxes.

    The answer is the exact ``line_box_distance`` / ``polyline_box_distance``
    <= r on every box.  Most boxes are decided by their center's computed
    squared distance c2~ (``squared_distances``) instead, with s the side and
    hd = s sqrt(n) / 2 half the diagonal.  The true distance c from the
    computed center has |c^2 - c2~| <= err2.  The box lies within hd of its
    center, and it holds the ball of radius s/2 around it (the inscribed
    ball), so its true distance D to the member, a line or a polyline alike,
    lies in [c - hd, max(0, c - s/2)].  So

      * c2~ + err2 <= (r + s/2 - 2e)^2 gives D <= r - e: within;
      * c2~ - err2 > (r + hd + e)^2 gives D >= c - hd > r + e: not within;
      * any other box gets the exact test.

    The first class's second e covers the computed corners and center.
    With u = eps/2 and L as in ``distance_rounding``, the corners lo~ and
    fl(lo~ + s) of the box that the exact test takes lie s - u L apart or
    more on each axis, and the center fl(lo~ + s/2) lies within 1.5 u L of
    their midpoint, so that box holds the ball of radius s/2 - 2u L around
    the computed center; the class's square and sum round by 4u (r + s + L)
    more.  Both are far below e >= 28 eps (L + r), as s <= 2L.  A computed
    box distance is within e of D when either is at most r, so the first two
    classes give the exact test's answers.
    """
    err2, e = bounds
    c2 = squared_distances([x + 0.5 * side for x in lo], member)
    reach_in = r + 0.5 * side - 2.0 * e
    within = c2 <= (reach_in**2 - err2 if reach_in > 0.0 else -math.inf)
    outside = (r + 0.5 * side * math.sqrt(len(lo)) + e) ** 2 + err2
    test = np.flatnonzero(~within & (c2 <= outside))
    if test.size:
        box = np.stack([x[test] for x in lo], axis=1)
        if isinstance(member, LipschitzCurve):
            dist = polyline_box_distance(member, box, box + side)
        else:
            dist = line_box_distance((member[0][test], member[1][test]), box, box + side)
        within[test] = dist <= r
    return within


def member_reach(members, axis: int, r: float, cube: Cube, layers: int = 1) -> np.ndarray:
    """Boxes, shape (members, layers, 2, n), that hold every point a member reaches.

    ``members`` are lines and polylines over ``axis``; the cube is cut into
    ``layers`` equal slabs along ``axis``.  Box (a, i) holds every point of
    slab i within ``r`` of member a: such a point's nearest member point has
    its x_axis within ``r`` of the slab, so the box is the bounding box,
    widened by ``r``, of the member over that range of x_axis (a line at the
    two ends of the range, or on its whole length when it has no x_axis
    motion and lies in the range; a polyline at the ends, clamped to its
    span, and at its vertices inside).  ``r`` is first widened by the bound
    ``_squared_rounding`` puts on the rounding of ``squared_distances``.
    """
    n = cube.n
    is_line = [isinstance(g, Line) for g in members]
    lines = [g for g, line in zip(members, is_line) if line]
    curves = [g.vertices() for g, line in zip(members, is_line) if not line]
    anchors = np.array([line.anchor for line in lines]).reshape(-1, n)
    dirs = np.array([line.direction.components for line in lines]).reshape(-1, n)
    err2 = _squared_rounding(np.concatenate([anchors, *curves]), cube)
    rr = r + err2 / (math.sqrt(r * r + err2) + r)
    # slab i runs from edge i to edge i + 1; widened by rr on both sides
    edges = np.arange(layers)[:, None] + [0.0, 1.0]
    slabs = cube.min_corner[axis] + cube.side / layers * edges + [-rr, rr]
    out = np.empty((len(members), layers, 2, n))
    boxes = np.empty((len(lines), layers, 2, n)) if curves else out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a line with no x_axis motion gets t from -inf to inf when it lies in
        # the range, both ends at one infinity (an empty box) when it misses
        # it, and 0/0 on a face of the range, which counts as lying in it; a
        # coordinate with no motion stays at the anchor's, not inf * 0, and t
        # past the float range (an axis motion of 1e-310) is inf
        t = (slabs - anchors[:, axis, None, None]) / dirs[:, axis, None, None]
        still = dirs[:, None] == 0.0
        fixes = bool(still.any())
        if fixes:
            t[np.isnan(t).any(axis=-1)] = -np.inf, np.inf
        ends = [anchors[:, None] + t[..., e, None] * dirs[:, None] for e in (0, 1)]
        if fixes:
            ends = [np.where(still, anchors[:, None], e) for e in ends]
    np.subtract(np.minimum(*ends), rr, out=boxes[:, :, 0])
    np.add(np.maximum(*ends), rr, out=boxes[:, :, 1])
    if not curves:
        return out
    out[is_line] = boxes
    for a, verts in zip(np.flatnonzero(np.logical_not(is_line)), curves):
        bps = verts[:, axis]
        pts = np.stack([np.interp(slabs, bps, verts[:, c]) for c in range(n)], axis=-1)
        inside = ((bps > slabs[:, :1]) & (bps < slabs[:, 1:]))[..., None]
        low = np.minimum(pts.min(axis=1), np.where(inside, verts, np.inf).min(axis=1))
        high = np.maximum(pts.max(axis=1), np.where(inside, verts, -np.inf).max(axis=1))
        out[a, :, 0] = low - rr
        out[a, :, 1] = high + rr
    return out


def grid_ranges(boxes, lo, h: float, m: int) -> np.ndarray:
    """Index ranges [first, stop), shape (..., n, 2), of the grid cells with centers in ``boxes``.

    The grid has m cells of side ``h`` per axis from the corner ``lo``, cell
    i centered at lo + (i + 0.5) h; ``boxes`` has shape (..., 2, n).  One
    more cell on each side covers the rounding of the cell centers and of
    this index arithmetic.  The ranges are clipped to [0, m].
    """
    first = np.ceil((boxes[..., 0, :] - lo) / h - 1.5)
    stop = np.floor((boxes[..., 1, :] - lo) / h + 0.5) + 1.0
    return np.clip(np.stack([first, stop], axis=-1), 0, m).astype(np.int64)


# ---------------------------------------------------------------------------
# subdivision


def subdivision_counts(cube: Cube, delta: float, w: float) -> tuple[int, float]:
    """Per-side count and side of the admissible equal-subcube tiling.

    Subcube sides must lie in [W/(20n delta), W/(10n delta)].  The count is
    ceil(side / upper), decremented if float rounding pushed the subcube side
    below the lower bound.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not (w > 0.0):
        raise ValueError("w must be positive")
    n = cube.n
    lower = w / (delta * 20.0 * n)
    upper = w / (delta * 10.0 * n)
    if cube.side < lower * (1.0 - 1e-12):
        raise ValueError(
            f"cube side {cube.side:.6g} is below the minimal subcube side {lower:.6g}"
        )
    k = math.ceil(cube.side / upper - 1e-12)
    if k >= 1 and cube.side / k < lower * (1.0 - 1e-12):
        k -= 1
    if k < 1 or cube.side / k > upper * (1.0 + 1e-12):
        raise ValueError("no admissible subdivision exists")
    return k, cube.side / k


def lattice(axes) -> np.ndarray:
    """Every point of the product of the 1-d ``axes``, shape (N, len(axes)), C order."""
    axes = [np.asarray(a) for a in axes]
    n = len(axes)
    shape = tuple(a.size for a in axes)
    out = np.empty(shape + (n,), dtype=np.result_type(*axes))
    for k, a in enumerate(axes):
        out[..., k] = np.reshape(a, shape[k : k + 1] + (1,) * (n - 1 - k))
    return out.reshape(-1, n)


def subcube_grid(cube: Cube, k: int) -> np.ndarray:
    """Min corners of the k^n equal subcubes, shape (k^n, n), C index order."""
    h = cube.side / k
    return lattice([cube.min_corner[j] + h * np.arange(k) for j in range(cube.n)])


# ---------------------------------------------------------------------------
# spherical caps and frames


def tangent_basis(direction: Direction) -> np.ndarray:
    """Orthonormal basis of the tangent space at ``direction``, rows (n-1, n).

    Deterministic: QR factorization of [v | identity], dropping the first
    column and the dependent one.
    """
    n = direction.n
    cols = np.concatenate([direction.components[:, None], np.eye(n)], axis=1)
    q, r = np.linalg.qr(cols)
    # columns of q beyond the first span the tangent space
    basis = q[:, 1:n].T
    return basis


def cap_cover(cap: Cap, rho: float) -> np.ndarray:
    """Centers of a deterministic net of radius-``rho`` caps covering ``cap``.

    Returns a read-only (count, n) array.  Tangent-grid construction: cover
    the radius-R ball in the tangent space by a cubic grid of spacing
    2 rho / sqrt(n-1) with a cell centered at the origin (so the input center
    is always the first row), then push cell centers to the sphere with the
    exponential map, which does not increase distances.  The cap count is at
    most (sqrt(n-1)+2)^(n-1) (R/rho)^(n-1).  For rho within 1e-12 of R the
    net is ``cap`` itself, one row.  Above ``CAP_NET_CELLS`` grid cells it
    raises ``CellBudgetExceeded`` before allocating.
    """
    if not (0.0 < rho <= cap.ang_radius * (1.0 + 1e-12)):
        raise ValueError("rho must lie in (0, cap.ang_radius]")
    c = cap.center.components
    if rho >= cap.ang_radius * (1.0 - 1e-12):
        return c[None, :]
    n = c.size
    m = n - 1
    big_r = cap.ang_radius
    h = 2.0 * rho / math.sqrt(m)
    # the clamp keeps imax finite for a subnormal rho; a clamped grid is over budget
    imax = int(math.floor(min(big_r / h, CAP_NET_CELLS) + 0.5)) + 1
    if (2 * imax + 1) ** m > CAP_NET_CELLS:
        raise CellBudgetExceeded(f"a net of radius-{rho:.6g} caps over a radius-{big_r:.6g} "
                                 f"cap in R^{n} needs more than {CAP_NET_CELLS} tangent cells")
    v = h * lattice([np.arange(-imax, imax + 1)] * m)
    # keep cells whose closest point to the origin is inside the R-ball
    nearest = np.maximum(np.abs(v) - 0.5 * h, 0.0)
    v = v[np.vecdot(nearest, nearest) <= big_r * big_r * (1.0 + 1e-12)]
    sq = np.vecdot(v, v)
    # nearest cells first, ties in grid index order: the origin cell leads
    order = np.lexsort([*v.T[::-1], sq])[1:]
    v, r = v[order], np.sqrt(sq[order])
    # a stack of row-vector products takes each row through the kernel of a
    # single ``row @ basis``, so the bits match the one-cell exponential map
    unit = ((v / r[:, None])[:, None, :] @ tangent_basis(cap.center))[:, 0]
    r = np.minimum(r, math.pi)
    points = np.cos(r)[:, None] * c + np.sin(r)[:, None] * unit
    out = np.concatenate([c[None, :], points / np.sqrt(np.vecdot(points, points))[:, None]])
    out.setflags(write=False)
    return out


def cap_index(centers: np.ndarray, direction: Direction, bound: float):
    """Index of the first row c of ``centers`` within angle ``bound`` of a line direction u.

    The rule is acos(min(1, |u.c|)) <= bound with ``math.acos``, in row order;
    None if no row passes.  Rows whose |u.c| from one ``np.vecdot`` falls 1e-9
    short of cos(bound) cannot pass and are skipped.
    """
    dots = np.abs(np.vecdot(centers, direction.components))
    for i in np.flatnonzero(dots >= math.cos(min(bound, math.pi)) - 1e-9):
        if math.acos(min(1.0, float(dots[i]))) <= bound:
            return int(i)
    return None


def frame_inverses(frames) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maps sending each frame's columns v_j to the axis vectors e_j, stacked.

    ``frames`` stacks P invertible frames, shape (P, n, n); map p is the
    inverse of frame p.  Returns the ``LinearMap`` fields of every map as
    arrays: the matrices (P, n, n), the (min, max) singular values (P, 2) and
    |det| (P,).  They are checked as ``LinearMap`` checks one map (finite,
    then invertible), and the first map to fail raises its ``ValueError``.
    One inverse, one singular-value and one determinant call serve the whole
    stack, and numpy runs the same LAPACK routine on each matrix, so row p
    has the bits of a call on frame p alone.
    """
    mats = np.linalg.inv(frames)
    lengths = np.linalg.svd(mats, compute_uv=False)[:, [-1, 0]]
    dets = np.abs(np.linalg.det(mats))
    finite = np.isfinite(mats).all(axis=(1, 2))
    bad = ~(finite & (dets > 0.0) & (lengths[:, 0] > 0.0))
    if bad.any():
        p = int(np.argmax(bad))
        raise ValueError("non-finite coordinates" if not finite[p]
                         else "linear map must be invertible")
    return mats, lengths, dets
