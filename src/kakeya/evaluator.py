"""Numerical evaluation of the overlap functional for weighted tube families.

The central object is ``int_Q prod_j (sum_a w_a 1_tube)^(1/(n-1))``, evaluated
by a midpoint rule on a regular grid of cell centers; n = 2 additionally has
an exact polygon-clipping oracle.  A member is its core curve, a ``Line`` or
a ``LipschitzCurve``, and its tube is the closed neighborhood of the family's
one radius around it.

Grid sums are computed on the calling thread in fixed-size blocks keyed by
flattened cell index and folded in index order; that partition fixes the bits
of every value.
``_strip`` alone computes a member's weighted indicator ``w * (d <= r)``,
only on the member's band, the cells it can reach (``geometry.member_reach``
and ``geometry.grid_ranges``): ``midpoint_rule`` adds it to a block's slab,
and ``CountFields`` keeps it for each member and adds it to the whole grid.
The cells outside the band add exactly zero, so the bits match a dense sum.

``midpoint_rule`` builds every block in the calling thread's work buffers
(``_work_buffers``), flat arrays of one slab each that outlive the block and
the call, so no block after a thread's first touches a fresh page.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CellBudgetExceeded, ValidationError
from .geometry import Cube, Line, LipschitzCurve, grid_ranges, member_reach, squared_distances

CELL_BUDGET = 10**8
_BLOCK = 1 << 16
_ROW = _BLOCK // 4
#: cells in the boxes of one block at most: the block and two rows (``_slabs``)
_SLAB = _BLOCK + 2 * _ROW

_work = threading.local()


def _work_buffers(name: str, count: int) -> list:
    """This thread's work buffers under ``name``: at least ``count`` flat float64 arrays.

    Each holds ``_SLAB`` cells, one slab, whatever the grid size.  They live
    as long as the thread, and each thread that calls the evaluator keeps
    its own.  Allocated once and reused, their pages are faulted in once,
    where per-block arrays of this size are given back to the OS at the end
    of each block and faulted in again by the next.
    """
    buffers = _work.__dict__.setdefault(name, [])
    buffers.extend(np.empty(_SLAB) for _ in range(count - len(buffers)))
    return buffers


@dataclass(frozen=True, eq=False)
class FamilyMember:
    geometry: Line | LipschitzCurve
    weight: float = 1.0

    def __post_init__(self):
        if not (self.weight >= 0.0) or not math.isfinite(self.weight):
            raise ValidationError("member weight must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class TubeFamily:
    """Weighted lines and curves around one axis: the cores of tubes of radius ``base_radius``."""

    axis: int
    dim: int
    members: tuple[FamilyMember, ...]
    base_radius: float = 1.0

    def __post_init__(self):
        if not (self.base_radius > 0.0):
            raise ValidationError("family base radius must be positive")
        if not (0 <= self.axis < self.dim):
            raise ValidationError("family axis out of range")
        members = tuple(self.members)
        for m in members:
            g = m.geometry
            if not isinstance(g, (Line, LipschitzCurve)):
                raise ValidationError(f"unsupported member geometry {type(g).__name__}")
            if g.n != self.dim:
                raise ValidationError("member dimension differs from family dimension")
            if isinstance(g, LipschitzCurve) and g.axis != self.axis:
                raise ValidationError("curve axis differs from family axis")
        object.__setattr__(self, "members", members)

    @property
    def total_weight(self) -> float:
        return float(sum(m.weight for m in self.members))

    @property
    def size(self) -> int:
        return len(self.members)

    def has_curves(self) -> bool:
        return any(isinstance(m.geometry, LipschitzCurve) for m in self.members)


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Midpoint rule with cells_per_side cells along every cube edge."""

    cells_per_side: int

    def __post_init__(self):
        if self.cells_per_side < 1:
            raise ValidationError("cells_per_side must be >= 1")


@dataclass(frozen=True, eq=False)
class OverlapValue:
    value: float
    error_estimate: float | None
    cells_per_side: int
    converged: bool = True


def check_families(families) -> tuple:
    """Validate one family per axis 0..n-1; returns them as a tuple in axis order."""
    if not families:
        raise ValidationError("no families given")
    n = families[0].dim
    fams = tuple(sorted(families, key=lambda f: f.axis))
    if [f.axis for f in fams] != list(range(n)) or any(f.dim != n for f in fams):
        raise ValidationError("need exactly one family per coordinate axis")
    return fams


def _check_curve_spans(families, cube: Cube) -> None:
    for f in families:
        for m in f.members:
            g = m.geometry
            if isinstance(g, LipschitzCurve):
                lo = float(cube.min_corner[g.axis])
                hi = lo + cube.side
                if not g.covers_interval(lo, hi):
                    raise ValidationError(
                        f"curve span {g.span} does not cover the cube extent "
                        f"[{lo:.6g}, {hi:.6g}] on axis {g.axis}"
                    )


def _slabs(start: int, stop: int, m: int, n: int) -> tuple[list, int]:
    """Boxes of whole rows that cover the flat C-order cells [start, stop).

    A row runs over the axes after ``level``, the first axis whose rows hold
    at most ``_ROW`` cells, so the boxes hold at most two rows beyond the
    cells asked for.  Consecutive rows that share their indices on the axes
    before ``level`` form one box, given as per-axis index ranges
    ``(first, stop)``.  Also returns the flat index of the first covered cell.
    """
    level = next(k for k in range(n) if m ** (n - 1 - k) <= _ROW)
    stride = m ** (n - 1 - level)
    row, end = start // stride, -(-stop // stride)
    first = row * stride
    boxes = []
    while row < end:
        prefix, i = divmod(row, m)
        j = min(m, i + end - row)
        head = []
        for _ in range(level):
            prefix, digit = divmod(prefix, m)
            head.insert(0, (digit, digit + 1))
        boxes.append(head + [(i, j)] + [(0, m)] * (n - 1 - level))
        row += j - i
    return boxes, first


def cell_centers(lo, h, m: int) -> list:
    """The m cell centers ``lo[k] + (i + 0.5) * h[k]`` along each axis k."""
    return [lo[k] + (np.arange(m) + 0.5) * h[k] for k in range(len(lo))]


def power_product(factors, p: float, out: np.ndarray) -> np.ndarray:
    """``out`` set to prod_j f_j^p and returned; the two or more factors broadcast to it.

    A writable factor is the caller's scratch: its power is taken in place,
    ``f **= p``, and ``out`` may be the first factor.  A read-only one (a
    stored count field) is raised into a new array, ``f ** p``.  Both are
    ``np.power`` except at p = 0.5, where numpy takes its faster square
    root, which gives the same bits on count fields.  The product
    ``(f_0^p f_1^p) f_2^p ...`` has the bits of ``((1 f_0^p) f_1^p) ...``.
    """
    powers = []
    for f in factors:
        if p != 1.0 and f.flags.writeable:
            f **= p
        elif p != 1.0:
            f = f ** p
        powers.append(f)
    np.multiply(powers[0], powers[1], out=out)
    for f in powers[2:]:
        out *= f
    return out


def midpoint_sum(integrand, centers) -> float:
    """Sum of ``integrand`` over the m^n cells whose centers are ``centers``.

    ``centers[k]`` holds the m cell centers along axis k, as from
    ``cell_centers``.  The cells are walked in
    flat C order in blocks of ``_BLOCK``.  For each block,
    ``integrand(axes, starts)`` is called on the boxes of ``_slabs`` that
    cover it: ``axes[k]`` holds the box's cell centers along axis k and
    ``starts[k]`` the grid index of the first of them, and the call returns
    the values on the box's lattice as a C-contiguous array.  That array may
    be a view of the calling thread's work buffers: it need only hold its
    values until the thread's next ``integrand`` call, as a block of several
    boxes copies each box into the thread's block buffer before the next.
    The block's cells are sliced out of those values and their ``np.sum``
    is taken; the block sums are folded with ``math.fsum`` in block order.
    The caller multiplies by the cell volume.
    """
    n, m = len(centers), len(centers[0])
    total = m**n

    def box_values(box) -> np.ndarray:
        return integrand([c[a:b] for c, (a, b) in zip(centers, box)], [a for a, _ in box]).ravel()

    def block_sum(start: int) -> float:
        stop = min(start + _BLOCK, total)
        boxes, first = _slabs(start, stop, m, n)
        if len(boxes) == 1:
            flat = box_values(boxes[0])
        else:
            flat, end = _work_buffers("block", 1)[0], 0
            for box in boxes:
                vals = box_values(box)
                flat[end : end + vals.size] = vals
                end += vals.size
        return float(np.sum(flat[start - first : stop - first]))

    return _fsum([block_sum(start) for start in range(0, total, _BLOCK)])


def _fsum(values) -> float:
    """``math.fsum``, but inf where finite values sum past the float range, where it raises."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _finite(value: float, what: str) -> float:
    """``value`` if it is finite; an inf or NaN comes of weights or a cube past the float range."""
    if not math.isfinite(value):
        raise ValidationError(f"{what} is past the float range ({value!r})")
    return value


def _strip(axes, member: FamilyMember, r: float, first, stop, work=None):
    """The member's ``w * (d <= r)`` on the index box [first, stop) as ``(box, values)``.

    ``axes[k]`` holds the grid's cell centers along axis k, and ``box`` is
    the box's tuple of slices; an empty box gives None.  The distances are
    computed on the box's open mesh, and the indicator is written over them
    as 1.0 or 0.0 and scaled by ``w``.  ``work``, four flat buffers of at
    least the box's cell count, holds the distance kernel's arrays and the
    values; without it they are allocated.
    """
    if any(a >= b for a, b in zip(first, stop)):
        return None
    n = len(axes)
    box = tuple(map(slice, first, stop))
    mesh = [x[s].reshape((1,) * k + (-1,) + (1,) * (n - 1 - k))
            for k, (x, s) in enumerate(zip(axes, box))]
    if work is not None:
        shape = tuple(b - a for a, b in zip(first, stop))
        size = math.prod(shape)
        work = [w[:size].reshape(shape) for w in work]
    d = squared_distances(mesh, member.geometry, work)
    inside = np.less_equal(np.sqrt(d, out=d), r, out=d)
    inside *= member.weight
    return box, inside


def _check_cell_budget(m: int, n: int) -> None:
    if m**n > CELL_BUDGET:
        raise CellBudgetExceeded(f"grid has {m**n} cells, exceeding the budget of {CELL_BUDGET}")


def midpoint_rule(families, cube: Cube, radii: list[float] | None = None):
    """The overlap functional's midpoint-rule value as a function of m.

    Validates the families and the curve spans once.  ``value(m)``
    sums the m^n cells of the cube and raises ``CellBudgetExceeded`` above
    ``CELL_BUDGET`` cells, before any cell is evaluated.  The members'
    reaches over the cube's slab do not depend on the grid, so every level
    shares them.  ``radii``, one per family in axis order, replaces the
    families' base radii.  Each box is built in the thread's work buffers:
    the n count fields are zero-filled views of the first n, the distance
    kernel runs in the next four, the powers are taken in place and the
    product is formed in the first field, which the box returns.
    """
    fams = check_families(families)
    n = len(fams)
    _check_curve_spans(families, cube)
    rs = [f.base_radius if radii is None else radii[j] for j, f in enumerate(fams)]
    reaches = [
        member_reach([m.geometry for m in f.members], f.axis, r, cube)[:, 0]
        for f, r in zip(fams, rs)
    ]
    p = 1.0 / (n - 1)

    def value(m: int) -> float:
        _check_cell_budget(m, n)
        h = cube.side / m
        bands = [grid_ranges(x, cube.min_corner, h, m) for x in reaches]

        def integrand(axes, starts):
            shape = tuple(x.size for x in axes)
            lo, span = np.array(starts)[:, None], np.array(shape)[:, None]
            buffers = _work_buffers("grid", n + 4)
            size = math.prod(shape)
            fields = [b[:size].reshape(shape) for b in buffers[:n]]
            kernel = buffers[n : n + 4]
            for field, f, r, band in zip(fields, fams, rs, bands):
                field.fill(0.0)
                # the bands clipped to the slab, in its own indices
                ranges = np.clip(band - lo, 0, span).transpose(0, 2, 1)
                for member, (first, stop) in zip(f.members, ranges.tolist()):
                    strip = _strip(axes, member, r, first, stop, kernel)
                    if strip is not None:
                        field[strip[0]] += strip[1]
            return power_product(fields, p, fields[0])

        # a count or product past the float range is inf, or NaN times 0: the
        # value is checked once, and numpy's warnings on the way are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            total = midpoint_sum(integrand, cell_centers(cube.min_corner, (h,) * n, m))
        return _finite(h**n * total, f"the overlap value at {m} cells per side")

    return value


def _check_integer_weights(family: TubeFamily) -> None:
    for m in family.members:
        if not float(m.weight).is_integer():
            raise ValidationError(
                f"weight {m.weight!r} is not an integer; count fields need integer weights"
            )
    if family.total_weight > 2.0**53:
        raise ValidationError("family weights exceed 2**53; count fields would round")


@dataclass(frozen=True, eq=False)
class CountFields:
    """The overlap quadrature on one m^n grid, held as one count field per family.

    ``fields[j]`` is ``sum_a w_a 1_tube`` at every cell center for the j-th
    family by axis, and ``strips[j][a]`` is what member a added to it: the
    ``(box, values)`` of ``_strip`` on the member's band, or None for an
    empty band.  ``centers`` holds the grid's cell centers along each axis.
    All of them are read-only.  ``moved`` swaps one member: it copies that
    family's field, subtracts the old member's stored strip and adds a strip
    computed for the new member alone, on its band from one
    ``member_reach`` call; every other field and strip is shared.  Any band
    that holds a member's reach gives the same bits, as a cell outside it
    adds exactly 0.0.  The weights are integers whose family sums stay below
    2**53, so every field holds exact integers in any order of adds and
    subtracts, and ``value`` has the bits of
    ``midpoint_rule(families, cube)(m)``.  The strips hold about as many
    cells as the members' bands.
    """

    families: tuple
    cube: Cube
    m: int
    fields: tuple
    strips: tuple
    centers: tuple

    @classmethod
    def build(cls, families, cube: Cube, m: int) -> "CountFields":
        """Validate like ``midpoint_rule`` and fill every family's field.

        Raises ``ValidationError`` for a non-integer weight and
        ``CellBudgetExceeded`` above ``CELL_BUDGET`` cells, both before any
        field is allocated.
        """
        fams = check_families(families)
        n = len(fams)
        _check_curve_spans(families, cube)
        for f in fams:
            _check_integer_weights(f)
        _check_cell_budget(m, n)
        centers = tuple(map(_read_only, cell_centers(cube.min_corner, (cube.side / m,) * n, m)))
        fields, strips = [], []
        for f in fams:
            field = np.zeros((m,) * n)
            strips.append(_strips(f, f.members, cube, centers))
            for strip in strips[-1]:
                if strip is not None:
                    field[strip[0]] += strip[1]
            fields.append(_read_only(field))
        return cls(fams, cube, m, tuple(fields), tuple(strips), centers)

    def moved(self, j: int, a: int, member: FamilyMember) -> "CountFields":
        """The fields with ``member`` in place of member ``a`` of the j-th family by axis."""
        old = self.families[j]
        members = list(old.members)
        members[a] = member
        new = TubeFamily(old.axis, old.dim, tuple(members), old.base_radius)
        _check_integer_weights(new)
        _check_curve_spans([new], self.cube)
        field = self.fields[j].copy()
        gone = self.strips[j][a]
        if gone is not None:
            field[gone[0]] -= gone[1]
        (strip,) = _strips(new, (member,), self.cube, self.centers)
        if strip is not None:
            field[strip[0]] += strip[1]
        families, fields, strips = list(self.families), list(self.fields), list(self.strips)
        families[j], fields[j] = new, _read_only(field)
        strips[j] = strips[j][:a] + (strip,) + strips[j][a + 1 :]
        return CountFields(tuple(families), self.cube, self.m, tuple(fields), tuple(strips),
                           self.centers)

    def value(self) -> float:
        """The midpoint-rule value, through ``midpoint_sum`` on slices of the fields."""
        n = self.cube.n
        p = 1.0 / (n - 1)
        h = self.cube.side / self.m

        def integrand(axes, starts):
            box = tuple(slice(a, a + x.size) for a, x in zip(starts, axes))
            out = np.empty(tuple(x.size for x in axes))
            return power_product([f[box] for f in self.fields], p, out)

        return h**n * midpoint_sum(integrand, self.centers)


def _strips(family: TubeFamily, members, cube: Cube, centers) -> tuple:
    """The read-only ``_strip`` of each of ``members`` of ``family`` on the grid of ``centers``."""
    m, r = len(centers[0]), family.base_radius
    reach = member_reach([x.geometry for x in members], family.axis, r, cube)[:, 0]
    bands = grid_ranges(reach, cube.min_corner, cube.side / m, m).transpose(0, 2, 1).tolist()
    strips = [_strip(centers, x, r, first, stop) for x, (first, stop) in zip(members, bands)]
    return tuple(None if s is None else (s[0], _read_only(s[1])) for s in strips)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def evaluate_overlap(families, cube: Cube, grid: GridSpec) -> OverlapValue:
    """Midpoint-rule value of the overlap functional over the cube.

    The error estimate is the difference against the half-resolution grid
    (requires an even cells_per_side; otherwise it is reported unavailable).
    """
    midpoint = midpoint_rule(families, cube)
    m = grid.cells_per_side
    value = midpoint(m)
    err = abs(value - midpoint(m // 2)) if m % 2 == 0 else None
    return OverlapValue(value, err, m)


def evaluate_refined(
    families,
    cube: Cube,
    tol: float,
    max_doublings: int,
    *,
    start_cells: int = 16,
) -> OverlapValue:
    """Double the grid until successive values agree to relative ``tol``.

    Returns the last value with the observed two-level difference as the
    error estimate; ``converged`` is False when the doubling or cell budget
    ran out first.

    Caveat: for indicator integrands whose boundaries are axis-aligned, cell
    counts can double exactly between levels, making the two-level difference
    transiently underestimate the true error; treat tight tolerances on such
    configurations with care.
    """
    if not (tol > 0.0):
        raise ValidationError("tol must be positive")
    if start_cells < 1:
        raise ValidationError("start_cells must be >= 1")
    if max_doublings < 0:
        raise ValidationError("max_doublings must be >= 0")
    midpoint = midpoint_rule(families, cube)
    n = len(families)
    m = start_cells
    value = midpoint(m)
    diff = None
    for _ in range(max_doublings):
        if (2 * m) ** n > CELL_BUDGET:
            return OverlapValue(value, diff, m, converged=False)
        m *= 2
        new = midpoint(m)
        diff = abs(new - value)
        value = new
        scale = max(abs(value), 1e-300)
        if diff / scale < tol:
            return OverlapValue(value, diff, m, converged=True)
    converged = diff is not None and diff / max(abs(value), 1e-300) < tol
    return OverlapValue(value, diff, m, converged=converged)


# ---------------------------------------------------------------------------
# exact n = 2 oracle: sums of clipped-polygon areas


def _clip_halfplane(poly, normal, offset):
    """Keep the part of a polygon with normal . x <= offset."""
    if len(poly) == 0:
        return []
    nx, ny = normal
    out = []
    px, py = poly[-1]
    prev_dot = nx * px + ny * py
    prev_in = prev_dot <= offset
    for cur in poly:
        cx, cy = cur
        cur_dot = nx * cx + ny * cy
        cur_in = cur_dot <= offset
        if cur_in != prev_in:
            dprev = prev_dot - offset
            t = dprev / (dprev - (cur_dot - offset))
            out.append((px + t * (cx - px), py + t * (cy - py)))
        if cur_in:
            out.append(cur)
        px, py, prev_dot, prev_in = cx, cy, cur_dot, cur_in
    return out


def _signed_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + [poly[0]]):
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _half_planes(poly) -> list:
    """The half-planes ``(normal, offset)`` whose intersection is the convex polygon ``poly``.

    The interior of a counter-clockwise polygon lies left of each edge, so a
    clockwise one is reversed first.
    """
    if _signed_area(poly) < 0.0:
        poly = poly[::-1]
    planes = []
    for (px, py), (qx, qy) in zip(poly, poly[1:] + [poly[0]]):
        normal = (qy - py, px - qx)
        planes.append((normal, normal[0] * px + normal[1] * py))
    return planes


def _cut_area(poly, planes) -> float:
    """Area of the part of the convex polygon ``poly`` inside every half-plane of ``planes``."""
    for normal, offset in planes:
        poly = _clip_halfplane(poly, normal, offset)
        if not poly:
            return 0.0
    return abs(_signed_area(poly))


def tube_cube_polygon_2d(line: Line, r: float, cube: Cube) -> list[tuple[float, float]]:
    """Convex polygon tube ∩ cube in R^2: the radius-``r`` strip around ``line``, clipped."""
    if line.n != 2:
        raise ValidationError("polygon clipping is 2-d only")
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
    poly = _clip_halfplane(poly, (-normal[0], -normal[1]), -(base - r))
    return poly


def exact_overlap_2d(families, cube: Cube) -> float:
    """Exact overlap integral for n = 2 straight-tube families.

    With exponent 1/(n-1) = 1 the integral expands bilinearly into
    sum_{a,b} w_a w_b area(T_a ∩ T_b ∩ Q); each term is the area of an
    intersection of convex polygons (shoelace formula), summed by ``fsum``.
    Members of weight 0 are skipped, and each axis-1 polygon's half-planes
    are built once for all its pairs.  Every step rounds to nearest, not
    outward, so the value carries no derived rounding bound.
    """
    fams = check_families(families)
    if len(fams) != 2:
        raise ValidationError("exact oracle requires n = 2")
    for f in fams:
        if f.has_curves():
            raise ValidationError("exact oracle supports straight tubes only")
    polys = [
        [(m.weight, tube_cube_polygon_2d(m.geometry, f.base_radius, cube))
         for m in f.members if m.weight != 0.0]
        for f in fams
    ]
    # each axis-1 polygon's half-planes, built once for all its pairs
    cutters = [(wb, _half_planes(pb) if len(pb) >= 3 else None) for wb, pb in polys[1]]
    terms = []
    for wa, pa in polys[0]:
        for wb, planes in cutters:
            area = _cut_area(pa, planes) if planes and len(pa) >= 3 else 0.0
            terms.append(wa * wb * area)
    return _finite(_fsum(terms), "the exact overlap value")
