"""The Loomis-Whitney inequality on grid functions, and its ball-sum form.

For nonnegative f_j on R^{n-1} and the projections pi_j that forget the j-th
coordinate,

    int prod_j f_j(pi_j x)^(1/(n-1))  <=  prod_j ||f_j||_1^(1/(n-1)).

Grid functions are piecewise constant (nearest-cell lookup), so both sides
are finite sums for the stored representation: the right side over each
function's cells, the left side over the cells of their common refinement
(``_refinement``), on each of which every factor is constant.  Both are
exact up to rounding, which ``_rounding`` bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CellBudgetExceeded, ValidationError
from .evaluator import CELL_BUDGET, GridSpec, _finite, cell_centers
from .geometry import _EPS, _frozen, lattice


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box: min corner plus positive side lengths."""

    min_corner: np.ndarray
    sides: np.ndarray

    def __post_init__(self):
        corner = _frozen(self.min_corner, lambda s: len(s) == 1)
        sides = _frozen(self.sides, lambda s: len(s) == 1)
        if sides.size != corner.size or np.any(sides <= 0.0):
            raise ValidationError("box sides must be positive and match the corner")
        object.__setattr__(self, "min_corner", corner)
        object.__setattr__(self, "sides", sides)

    @property
    def n(self) -> int:
        return self.min_corner.size

    @property
    def max_corner(self) -> np.ndarray:
        return self.min_corner + self.sides


@dataclass(frozen=True, eq=False)
class ProjectionFunction:
    """Nonnegative piecewise-constant function on a box in R^{n-1}."""

    box: Box
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values)
        if vals.ndim != self.box.n:
            raise ValidationError("value grid rank must equal the box dimension")
        if vals.size == 0:
            raise ValidationError("a value grid needs at least one cell")
        if np.any(vals < 0.0):
            raise ValidationError("grid values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.box.n

    @property
    def cell_sides(self) -> np.ndarray:
        return self.box.sides / np.array(self.values.shape, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_sides))

    def l1_norm(self) -> float:
        """Exact L1 norm of the stored piecewise-constant function."""
        return float(np.sum(self.values)) * self.cell_volume

    def _cell_index(self, k: int, coords) -> np.ndarray:
        """Nearest-cell index along axis k of each coordinate; raises outside the box."""
        lo, hi = self.box.min_corner[k], self.box.max_corner[k]
        tol = 1e-9 * self.box.sides.max()
        if (coords < lo - tol).any() or (coords > hi + tol).any():
            raise ValidationError("projection falls outside the function's box")
        idx = np.floor((coords - lo) / self.cell_sides[k]).astype(int)
        return idx.clip(0, self.values.shape[k] - 1)

    def lookup_grid(self, axes) -> np.ndarray:
        """Nearest-cell values on the product lattice of the 1-d ``axes``, a new array."""
        grid = self.values
        for k, x in enumerate(axes):
            grid = grid.take(self._cell_index(k, x), axis=k)
        return grid


@dataclass(frozen=True, eq=False)
class BallSum:
    """sum_a w_a * indicator(ball(y_a, radius)) in R^d."""

    centers: np.ndarray  # (A, d)
    weights: np.ndarray  # (A,)
    radius: float

    def __post_init__(self):
        centers = _frozen(np.atleast_2d(self.centers))
        weights = _frozen(np.atleast_1d(self.weights))
        if weights.size != centers.shape[0]:
            raise ValidationError("one weight per center required")
        if np.any(weights < 0.0):
            raise ValidationError("ball weights must be nonnegative")
        if not (self.radius > 0.0):
            raise ValidationError("ball radius must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True, eq=False)
class LwVerification:
    left: float
    right: float
    ratio: float
    error_estimate: float
    degenerate: bool


def project(point, j: int):
    """Forget the j-th coordinate of a point or point array."""
    pts = np.asarray(point, dtype=float)
    n = pts.shape[-1]
    if n < 2:
        raise ValidationError("projection requires ambient dimension >= 2")
    if not (0 <= j < n):
        raise ValidationError("projection axis out of range")
    return np.delete(pts, j, axis=-1)


def _check_setup(fs, box: Box) -> None:
    n = box.n
    if len(fs) != n:
        raise ValidationError("need one projection function per axis")
    if n > 52:  # einsum labels an axis by one of 52 letters
        raise ValidationError("Loomis-Whitney checks take dimension <= 52")
    for j, f in enumerate(fs):
        if f.dim != n - 1:
            raise ValidationError("projection functions must live in dimension n-1")
        lo = project(box.min_corner, j)
        hi = project(box.max_corner, j)
        tol = 1e-9 * float(f.box.sides.max())
        if (lo < f.box.min_corner - tol).any() or (hi > f.box.max_corner + tol).any():
            raise ValidationError(
                f"projection of the integration box escapes f_{j}'s box"
            )


def _refinement(fs, box: Box) -> list:
    """Per axis k, the sorted breakpoints of the left side's integrand in ``box``.

    They are the box's two ends and the inner cell edges, clipped to the
    box, of every f_j that varies along axis k (each j != k).  A lookup
    extends a function's outer cells past its box, so its outer edges are
    not breakpoints.  Every factor is constant on the cells between them.
    """
    lo, hi = box.min_corner, box.max_corner
    breaks = []
    for k in range(box.n):
        edges = [lo[k : k + 1], hi[k : k + 1]]
        for j, f in enumerate(fs):
            if j != k:
                a = k - (j < k)  # axis k of R^n is f_j's axis a
                inner = np.arange(1, f.values.shape[a]) * f.cell_sides[a]
                edges.append(f.box.min_corner[a] + inner)
        # a set, not np.unique: its first call imports numpy.ma (1.6 MB)
        union = set(np.concatenate(edges).clip(lo[k], hi[k]).tolist())
        breaks.append(np.array(sorted(union)))
    return breaks


def _left(fs, breaks) -> float:
    """The left side, summed over the cells between ``breaks``.

    f_j(pi_j x)^p, p = 1/(n-1), is looked up (its box check included) at
    the cell midpoints of the other n-1 axes and raised to p.  Each axis's
    cell widths are folded into one factor that varies along it: those of
    axes 0..n-2 into the last factor, the last axis's into the first.  One
    contraction of the first n-1 factors sums over the last axis, then
    ``np.sum`` sums their product with the last factor.  ``einsum`` without
    ``optimize`` runs its own loops, not BLAS, so the bits do not depend on
    the BLAS library or its thread count.
    """
    n = len(fs)
    widths = [np.diff(b) for b in breaks]
    mids = [b[:-1] + w / 2 for b, w in zip(breaks, widths)]
    factors = []
    for j, f in enumerate(fs):
        factor = f.lookup_grid(mids[:j] + mids[j + 1 :])
        factor **= 1.0 / (n - 1)  # the lookup is a new array
        factors.append(factor)
    for k, w in enumerate(widths[:-1]):
        factors[-1] *= w.reshape(-1, *(1,) * (n - 2 - k))
    factors[0] *= widths[-1]
    axes = [[k for k in range(n) if k != j] for j in range(n)]
    kept = sorted({k for a in axes[:-1] for k in a} - {n - 1})
    inner = np.einsum(*itertools.chain(*zip(factors[:-1], axes[:-1])), kept, optimize=False)
    return float(np.sum(inner * factors[-1]))


def lw_right(fs) -> float:
    """prod_j ||f_j||_1^(1/(n-1)), exact for the grid representation."""
    if not fs:
        raise ValidationError("no projection functions given")
    p = 1.0 / (len(fs) - 1)
    return float(np.prod([f.l1_norm() ** p for f in fs]))


def verify_lw(fs, box: Box, grid: GridSpec) -> LwVerification:
    """Both sides, exact up to rounding; contract: ratio <= 1 + error_estimate.

    The left side is summed over the functions' common refinement, so
    ``grid`` is not read.  A refinement of more than ``CELL_BUDGET`` cells
    raises ``CellBudgetExceeded`` before any factor is looked up.
    ``error_estimate`` bounds the rounding of ``ratio`` (``_rounding``); a
    0/0 instance is reported as ratio 0 with the degenerate flag set.
    """
    _check_setup(fs, box)
    breaks = _refinement(fs, box)
    cells = math.prod(b.size - 1 for b in breaks)
    if cells > CELL_BUDGET:
        raise CellBudgetExceeded(
            f"the Loomis-Whitney refinement has {cells} cells, "
            f"exceeding the budget of {CELL_BUDGET}"
        )
    # values past the float range make a side inf, or the ratio NaN: each
    # side is checked once, and numpy's warnings on the way are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        left = _finite(_left(fs, breaks), "the Loomis-Whitney left side")
        right = _finite(lw_right(fs), "the Loomis-Whitney right side")
        if right == 0.0:
            return LwVerification(left, right, 0.0, 0.0, degenerate=True)
        ratio = left / right
        err = _finite(_rounding(fs, box, breaks, ratio), "the Loomis-Whitney rounding bound")
    return LwVerification(left, right, ratio, err, degenerate=False)


def _rounding(fs, box: Box, breaks, ratio: float) -> float:
    """A bound on |ratio - L/R|, the ``error_estimate`` of ``verify_lw``.

    L and R are the exact sides: L integrates prod_j f_j^p over ``box``
    with exact powers and the exact cell edges lo + i side/s of each f_j,
    and R = prod_j ||f_j||_1^p.  Let u = eps/2, N_k the refinement's cells
    along axis k, M = N_0 ... N_{n-2}, S_j the cells of f_j, V the box's
    volume, and A the largest |lo| + side along any axis of the box and of
    the f_j.  The first-order terms are:

      * a computed edge lo + i h, h = side/s, is off by at most
        u (3 side + |lo|) <= 3u A, and the box's far end by u A; a
        midpoint b + w/2 is off by 2u A, and its lookup
        floor((x - lo) / h) errs only within 3u A of an exact edge.  So
        the summed integrand is the exact one except within r = 10u A of
        a breakpoint along some axis k: on N_k + 1 slabs of volume
        2 r V / side_k each, where both are at most prod_j max f_j^p.
        Relative to R, that is 2 r (N_k + 1) P / side_k, with
        P = V prod_j (max f_j / ||f_j||_1)^p;
      * each term of the left side's sum is nonnegative and rounded by n
        widths (``np.diff``), n powers (one ulp, 2u, each), n width folds,
        n - 2 products in the contraction and one with the last factor, and
        the sum by its N_{n-1} - 1 additions in the contraction and M - 1 in
        ``np.sum``, in any order: K_L = 5n - 3 + N_{n-1} + M roundings of u;
      * the right side, per f_j: S_j - 1 additions, n - 1 cell sides, n - 2
        products of them and one with the sum, and a power (2u; a power
        p <= 1 does not grow a relative error); then n - 1 products:
        K_R = sum_j (S_j + 2n - 1) + n - 1;
      * the division: one more.

    The bound is twice their sum, to cover the second-order terms:
    eps ((K_L + K_R + 1) ratio + 20 P A sum_k (N_k + 1) / side_k).
    """
    n = box.n
    cells = [b.size - 1 for b in breaks]
    k_left = 5 * n - 3 + cells[-1] + math.prod(cells[:-1])
    k_right = sum(f.values.size + 2 * n - 1 for f in fs) + n - 1
    p = 1.0 / (n - 1)
    peak = math.prod((float(f.values.max()) / f.l1_norm()) ** p for f in fs)
    reach = max(float((np.abs(b.min_corner) + b.sides).max()) for b in [box, *(f.box for f in fs)])
    slabs = float(np.sum([b.size for b in breaks] / box.sides))
    volume = float(np.prod(box.sides))
    return _EPS * ((k_left + k_right + 1) * ratio + 20.0 * volume * peak * reach * slabs)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d (omega_d)."""
    if d < 0:
        raise ValidationError("dimension must be nonnegative")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def ball_sum_to_grid(b: BallSum, box: Box, cells_per_side: int) -> ProjectionFunction:
    """Rasterize a ball sum onto a grid (cell-center sampling)."""
    pts = lattice(cell_centers(box.min_corner, box.sides / cells_per_side, cells_per_side))
    vals = np.zeros(pts.shape[0])
    for center, w in zip(b.centers, b.weights):
        diff = pts - center
        vals += w * (np.einsum("ij,ij->i", diff, diff) <= b.radius**2)
    return ProjectionFunction(box, vals.reshape((cells_per_side,) * box.n))
