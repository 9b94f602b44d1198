"""Numerical evaluation of the overlap functional for weighted tube families.

The central object is ``int_Q prod_j (sum_a w_a 1_tube)^(1/(n-1))``, evaluated
by a midpoint rule on a regular grid of cell centers; n = 2 additionally has
an exact polygon-clipping oracle.

Grid sums are computed in fixed-size blocks keyed by flattened cell index and
folded in index order, so the result is bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CellBudgetExceeded, ValidationError
from .geometry import (
    Cube,
    LipschitzCurve,
    Tube,
    point_line_distance,
    point_polyline_distance,
)

DEFAULT_CELL_BUDGET = 10**8
_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class FamilyMember:
    geometry: Tube | LipschitzCurve
    weight: float = 1.0

    def __post_init__(self):
        if not (self.weight >= 0.0) or not math.isfinite(self.weight):
            raise ValidationError("member weight must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class TubeFamily:
    """Weighted tubes/curves sharing one axis and one base radius."""

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
            if g.n != self.dim:
                raise ValidationError("member dimension differs from family dimension")
            if isinstance(g, Tube):
                if abs(g.radius - self.base_radius) > 1e-12 * self.base_radius:
                    raise ValidationError(
                        "all member tubes must carry the family base radius"
                    )
            elif isinstance(g, LipschitzCurve):
                if g.axis != self.axis:
                    raise ValidationError("curve axis differs from family axis")
            else:
                raise ValidationError(f"unsupported member geometry {type(g).__name__}")
        object.__setattr__(self, "members", members)

    @property
    def total_weight(self) -> float:
        return float(sum(m.weight for m in self.members))

    @property
    def size(self) -> int:
        return len(self.members)

    def has_curves(self) -> bool:
        return any(isinstance(m.geometry, LipschitzCurve) for m in self.members)

    def with_radius(self, radius: float) -> "TubeFamily":
        """Same geometry at a different neighborhood radius."""
        members = tuple(
            FamilyMember(
                Tube(m.geometry.line, radius) if isinstance(m.geometry, Tube) else m.geometry,
                m.weight,
            )
            for m in self.members
        )
        return TubeFamily(self.axis, self.dim, members, radius)

    def expand_integer_weights(self) -> "TubeFamily":
        """Replace weight-w members by w unit-weight copies (integer w only)."""
        members = []
        for m in self.members:
            if not float(m.weight).is_integer():
                raise ValidationError(f"weight {m.weight!r} is not an integer")
            members.extend(FamilyMember(m.geometry, 1.0) for _ in range(int(m.weight)))
        return TubeFamily(self.axis, self.dim, tuple(members), self.base_radius)


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
    grid: GridSpec
    converged: bool = True

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "cells_per_side": self.grid.cells_per_side,
            "converged": self.converged,
        }


def check_families(families) -> int:
    """Validate one family per axis 0..n-1; returns n."""
    if not families:
        raise ValidationError("no families given")
    n = families[0].dim
    axes = sorted(f.axis for f in families)
    if len(families) != n or axes != list(range(n)) or any(f.dim != n for f in families):
        raise ValidationError("need exactly one family per coordinate axis")
    return n


def family_values(family: TubeFamily, points, radius: float | None = None) -> np.ndarray:
    """sum_a w_a * indicator(member at ``radius``) at each point (N, n)."""
    r = family.base_radius if radius is None else radius
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(pts.shape[0])
    for m in family.members:
        if isinstance(m.geometry, Tube):
            d = point_line_distance(pts, m.geometry.line)
        else:
            d = point_polyline_distance(pts, m.geometry)
        out += m.weight * (d <= r)
    return out


def overlap_integrand(families, points, radii: list[float] | None = None) -> np.ndarray:
    """prod_j (sum_a w 1_tube)^(1/(n-1)) at each point; empty sums give 0."""
    n = check_families(families)
    p = 1.0 / (n - 1)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.ones(pts.shape[0])
    for j, family in enumerate(sorted(families, key=lambda f: f.axis)):
        vals = family_values(family, pts, None if radii is None else radii[j])
        if p != 1.0:
            vals = np.power(vals, p)
        out *= vals
    return out


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


def midpoint_sum(integrand, lo, h, m: int, threads: int = 1) -> float:
    """Sum of ``integrand`` over the centers of the m^n cells of sides ``h``.

    Cell ``i`` has center ``lo[k] + (i_k + 0.5) * h[k]``.  The cells are
    walked in flat C order in blocks of ``_BLOCK``; ``integrand`` maps each
    block's (B, n) centers to B values, and the block sums are folded with
    ``math.fsum`` in block order, so the result is the same for any
    ``threads``.  The caller multiplies by the cell volume.
    """
    n = len(lo)
    total = m**n
    starts = range(0, total, _BLOCK)

    def centers(start) -> np.ndarray:
        idx = np.unravel_index(np.arange(start, min(start + _BLOCK, total)), (m,) * n)
        return np.stack([lo[k] + (idx[k] + 0.5) * h[k] for k in range(n)], axis=1)

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(lambda s: float(np.sum(integrand(centers(s)))), starts))
    else:
        # ``pts`` holds one block while the next is built, so the allocator
        # reuses its pages instead of handing them back: a grid-80 n=3 LW left
        # side took 1.5k page faults this way against 10.8k freeing each block
        partials = []
        for start in starts:
            pts = centers(start)
            partials.append(float(np.sum(integrand(pts))))
    return math.fsum(partials)


def _midpoint_value(families, cube, m, radii=None, threads: int = 1) -> float:
    h = cube.side / m
    integrand = partial(overlap_integrand, families, radii=radii)
    return h**cube.n * midpoint_sum(integrand, cube.min_corner, (h,) * cube.n, m, threads)


def evaluate_overlap(
    families,
    cube: Cube,
    grid: GridSpec,
    *,
    radii: list[float] | None = None,
    threads: int = 1,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> OverlapValue:
    """Midpoint-rule value of the overlap functional over the cube.

    The error estimate is the difference against the half-resolution grid
    (requires an even cells_per_side; otherwise it is reported unavailable).
    """
    n = check_families(families)
    _check_curve_spans(families, cube)
    m = grid.cells_per_side
    if m**n > cell_budget:
        raise CellBudgetExceeded(
            f"grid has {m**n} cells, exceeding the budget of {cell_budget}"
        )
    value = _midpoint_value(families, cube, m, radii, threads)
    if m % 2 == 0 and m >= 2:
        coarse = _midpoint_value(families, cube, m // 2, radii, threads)
        err = abs(value - coarse)
    else:
        err = None
    return OverlapValue(value, err, grid)


def evaluate_refined(
    families,
    cube: Cube,
    tol: float,
    max_doublings: int,
    *,
    start_cells: int = 16,
    threads: int = 1,
    cell_budget: int = DEFAULT_CELL_BUDGET,
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
    n = check_families(families)
    _check_curve_spans(families, cube)
    m = start_cells
    if m**n > cell_budget:
        raise CellBudgetExceeded(f"start grid {m}^{n} exceeds the cell budget")
    value = _midpoint_value(families, cube, m, None, threads)
    diff = None
    for _ in range(max_doublings):
        if (2 * m) ** n > cell_budget:
            return OverlapValue(value, diff, GridSpec(m), converged=False)
        m *= 2
        new = _midpoint_value(families, cube, m, None, threads)
        diff = abs(new - value)
        value = new
        scale = max(abs(value), 1e-300)
        if diff / scale < tol:
            return OverlapValue(value, diff, GridSpec(m), converged=True)
    converged = diff is not None and diff / max(abs(value), 1e-300) < tol
    return OverlapValue(value, diff, GridSpec(m), converged=converged)


def average_integral(v: OverlapValue, cube: Cube) -> float:
    """Integral divided by the cube volume."""
    return v.value / cube.volume


# ---------------------------------------------------------------------------
# exact n = 2 oracle: sums of clipped-polygon areas


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


def _polygon_area(poly) -> float:
    return abs(_signed_area(poly))


def _convex_intersection_area(poly_a, poly_b) -> float:
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
    return _polygon_area(out)


def tube_cube_polygon_2d(tube: Tube, cube: Cube) -> list[tuple[float, float]]:
    """Convex polygon tube ∩ cube in R^2 (strip clipped to the square)."""
    if tube.n != 2:
        raise ValidationError("polygon clipping is 2-d only")
    lo = cube.min_corner
    hi = cube.max_corner
    square = [
        (float(lo[0]), float(lo[1])),
        (float(hi[0]), float(lo[1])),
        (float(hi[0]), float(hi[1])),
        (float(lo[0]), float(hi[1])),
    ]
    d = tube.line.direction.components
    a = tube.line.anchor
    normal = (-float(d[1]), float(d[0]))
    base = normal[0] * float(a[0]) + normal[1] * float(a[1])
    poly = _clip_halfplane(square, normal, base + tube.radius)
    poly = _clip_halfplane(poly, (-normal[0], -normal[1]), -(base - tube.radius))
    return poly


def exact_overlap_2d(families, cube: Cube) -> float:
    """Exact overlap integral for n = 2 straight-tube families.

    With exponent 1/(n-1) = 1 the integral expands bilinearly into
    sum_{a,b} w_a w_b area(T_a ∩ T_b ∩ Q); each term is the area of an
    intersection of convex polygons (shoelace formula).
    """
    n = check_families(families)
    if n != 2:
        raise ValidationError("exact oracle requires n = 2")
    fams = sorted(families, key=lambda f: f.axis)
    for f in fams:
        if f.has_curves():
            raise ValidationError("exact oracle supports straight tubes only")
    polys = [
        [(m.weight, tube_cube_polygon_2d(m.geometry, cube)) for m in f.members]
        for f in fams
    ]
    terms = []
    for wa, pa in polys[0]:
        for wb, pb in polys[1]:
            if wa == 0.0 or wb == 0.0:
                continue
            terms.append(wa * wb * _convex_intersection_area(pa, pb))
    return math.fsum(terms)
