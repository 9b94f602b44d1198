"""The Loomis-Whitney inequality on grid functions, and its ball-sum form.

For nonnegative f_j on R^{n-1} and the projections pi_j that forget the j-th
coordinate,

    int prod_j f_j(pi_j x)^(1/(n-1))  <=  prod_j ||f_j||_1^(1/(n-1)).

Grid functions are piecewise constant (nearest-cell lookup), which makes the
right-hand side exact for the stored representation; the left-hand side is a
midpoint-rule quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .evaluator import GridSpec, cell_centers, midpoint_sum, power_product
from .geometry import _frozen, lattice

#: relative roundoff floor folded into quadrature error estimates
ROUNDOFF_FLOOR = 8.0 * float(np.finfo(float).eps)


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
        tol = 1e-9 * np.max(self.box.sides)
        if np.any(coords < lo - tol) or np.any(coords > hi + tol):
            raise ValidationError("projection falls outside the function's box")
        idx = np.floor((coords - lo) / self.cell_sides[k]).astype(int)
        return np.clip(idx, 0, self.values.shape[k] - 1)

    def lookup_grid(self, axes) -> np.ndarray:
        """Nearest-cell values on the product lattice of the 1-d ``axes``."""
        return self.values[np.ix_(*(self._cell_index(k, x) for k, x in enumerate(axes)))]


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


def _check_setup(fs, box: Box) -> int:
    n = box.n
    if len(fs) != n:
        raise ValidationError("need one projection function per axis")
    for j, f in enumerate(fs):
        if f.dim != n - 1:
            raise ValidationError("projection functions must live in dimension n-1")
        lo = project(box.min_corner, j)
        hi = project(box.max_corner, j)
        tol = 1e-9 * float(np.max(f.box.sides))
        if np.any(lo < f.box.min_corner - tol) or np.any(hi > f.box.max_corner + tol):
            raise ValidationError(
                f"projection of the integration box escapes f_{j}'s box"
            )
    return n


def _left_midpoint(fs, box: Box, m: int) -> float:
    p = 1.0 / (box.n - 1)
    h = box.sides / m

    def integrand(axes, starts):
        # f_j(pi_j x) is constant along axis j: look it up on the other axes
        # and broadcast it along axis j
        factors = (
            np.expand_dims(f.lookup_grid(axes[:j] + axes[j + 1 :]), j) for j, f in enumerate(fs)
        )
        return power_product(factors, p, tuple(a.size for a in axes))

    return float(np.prod(h)) * midpoint_sum(integrand, box.min_corner, h, m)


def lw_right(fs) -> float:
    """prod_j ||f_j||_1^(1/(n-1)), exact for the grid representation."""
    if not fs:
        raise ValidationError("no projection functions given")
    p = 1.0 / (len(fs) - 1)
    return float(np.prod([f.l1_norm() ** p for f in fs]))


def verify_lw(fs, box: Box, grid: GridSpec) -> LwVerification:
    """Evaluate both sides; contract: ratio <= 1 + quadrature tolerance.

    The error estimate is the two-level (m vs m/2) difference normalized by
    the right side, plus an 8-eps roundoff floor; a 0/0 instance is reported
    as ratio 0 with the degenerate flag set.
    """
    n = _check_setup(fs, box)
    m = grid.cells_per_side
    left = _left_midpoint(fs, box, m)
    right = lw_right(fs)
    if right == 0.0:
        return LwVerification(left, right, 0.0, 0.0, degenerate=True)
    coarse = _left_midpoint(fs, box, max(1, m // 2))
    err = (abs(left - coarse) + ROUNDOFF_FLOOR * abs(left)) / right
    return LwVerification(left, right, left / right, err, degenerate=False)


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
