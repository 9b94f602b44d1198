"""Deterministic pseudo-random configuration generators.

All randomness comes from numpy's PCG64 generator seeded with the GenSpec
seed, and every regime draws in a fixed order (axis by axis, member by
member), so equal specs produce bit-identical families.  Direction sampling
is uniform on the cap: a tangent vector is drawn uniformly from the radius-R
ball (rejection from the cube) and accepted against the exponential-map
Jacobian (sin r / r)^(n-2), then pushed to the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .evaluator import FamilyMember, GridSpec, TubeFamily
from .geometry import Cube, Direction, Line, LipschitzCurve, tangent_basis
from .loomis_whitney import Box, ProjectionFunction


@dataclass(frozen=True)
class AxisParallel:
    kind = "axis_parallel"


@dataclass(frozen=True)
class SmallAngle:
    delta: float
    kind = "small_angle"

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValidationError("small_angle delta must lie in (0, 1)")


@dataclass(frozen=True)
class GeneralAngle:
    """Angles up to the (10 n)^-1 limit of the general statement."""

    kind = "general"


@dataclass(frozen=True)
class Lipschitz:
    delta: float
    breakpoints: int
    kind = "lipschitz"

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValidationError("lipschitz delta must lie in (0, 1)")
        if self.breakpoints < 2:
            raise ValidationError("need at least 2 breakpoints")


@dataclass(frozen=True)
class Weighted:
    low: float
    high: float
    delta: float
    kind = "weighted"

    def __post_init__(self):
        if not (0.0 <= self.low <= self.high):
            raise ValidationError("need 0 <= low <= high")
        if not (0.0 < self.delta < 1.0):
            raise ValidationError("weighted delta must lie in (0, 1)")


Regime = AxisParallel | SmallAngle | GeneralAngle | Lipschitz | Weighted


@dataclass(frozen=True)
class GenSpec:
    n: int
    counts: tuple[int, ...]
    regime: Regime
    cube: Cube
    seed: int
    radius: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("dimension must be >= 2")
        if len(self.counts) != self.n or any(c < 0 for c in self.counts):
            raise ValidationError("need one nonnegative count per axis")
        if self.cube.n != self.n:
            raise ValidationError("cube dimension mismatch")
        if not (self.radius > 0.0):
            raise ValidationError("radius must be positive")
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must be a 64-bit unsigned integer")

    def with_cube(self, cube: Cube) -> "GenSpec":
        return replace(self, cube=cube)


def _uniform_in_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    if dim == 0:
        return np.zeros(0)
    while True:
        v = rng.uniform(-radius, radius, dim)
        if float(v @ v) <= radius * radius:
            return v


@lru_cache(maxsize=None)
def _axis_frame(n: int, axis: int) -> tuple[Direction, np.ndarray]:
    """The axis direction and its read-only ``tangent_basis``, built once per (n, axis)."""
    center = Direction.axis(n, axis)
    basis = tangent_basis(center)
    basis.flags.writeable = False
    return center, basis


def _direction_in_cap(rng: np.random.Generator, n: int, axis: int, ang: float) -> Direction:
    """Uniform direction within angle ``ang`` of the axis vector."""
    center, basis = _axis_frame(n, axis)
    if ang == 0.0:
        return center
    while True:
        v = _uniform_in_ball(rng, n - 1, ang)
        r = float(np.linalg.norm(v))
        accept = 1.0 if r == 0.0 else (math.sin(r) / r) ** (n - 2)
        if rng.uniform() <= accept:
            break
    if r == 0.0:
        return center
    unit = (v / r) @ basis
    return Direction.normalized(math.cos(r) * center.components + math.sin(r) * unit)


def _anchor_in_cube(rng: np.random.Generator, cube: Cube) -> np.ndarray:
    return cube.min_corner + cube.side * rng.uniform(0.0, 1.0, cube.n)


def _angle_limit(spec: GenSpec) -> float:
    r = spec.regime
    if isinstance(r, AxisParallel):
        return 0.0
    if isinstance(r, SmallAngle):
        return r.delta
    if isinstance(r, GeneralAngle):
        return 1.0 / (10.0 * spec.n)
    if isinstance(r, Weighted):
        return r.delta
    raise ValidationError(f"regime {r.kind} has no single angle limit")


def _lipschitz_member(rng, spec: GenSpec, axis: int) -> LipschitzCurve:
    regime = spec.regime
    lo_t = float(spec.cube.min_corner[axis]) - spec.radius - 1.0
    hi_t = float(spec.cube.min_corner[axis]) + spec.cube.side + spec.radius + 1.0
    bps = np.linspace(lo_t, hi_t, regime.breakpoints)
    transverse_lo = np.delete(spec.cube.min_corner, axis)
    start = transverse_lo + spec.cube.side * rng.uniform(0.0, 1.0, spec.n - 1)
    values = [start]
    for i in range(regime.breakpoints - 1):
        slope = _uniform_in_ball(rng, spec.n - 1, regime.delta)
        values.append(values[-1] + slope * (bps[i + 1] - bps[i]))
    return LipschitzCurve(axis, bps, np.stack(values), regime.delta)


def generate(spec: GenSpec) -> list[TubeFamily]:
    """Generate one family per axis, fully determined by the spec seed."""
    rng = np.random.default_rng(spec.seed)
    families = []
    for axis in range(spec.n):
        members = []
        for _ in range(spec.counts[axis]):
            weight = 1.0
            if isinstance(spec.regime, Lipschitz):
                geom = _lipschitz_member(rng, spec, axis)
            else:
                anchor = _anchor_in_cube(rng, spec.cube)
                direction = _direction_in_cap(rng, spec.n, axis, _angle_limit(spec))
                geom = Line(anchor, direction)
            if isinstance(spec.regime, Weighted):
                weight = rng.uniform(spec.regime.low, spec.regime.high)
            members.append(FamilyMember(geom, weight))
        families.append(TubeFamily(axis, spec.n, tuple(members), spec.radius))
    return families


def random_lw_instance(n: int, seed: int):
    """Random nonnegative grid functions + integration box for LW checks.

    Returns (functions, box, grid): n functions of 2 to 4 cells per side,
    about a quarter of their cells zero, on the unit cube's faces; the unit
    cube; and the coarsest uniform grid that refines every function's grid.
    """
    if n < 2:
        raise ValidationError("dimension must be >= 2")
    if n > 4:
        raise ValidationError("random Loomis-Whitney instances have dimension <= 4")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    unit = Box(np.zeros(n - 1), np.ones(n - 1))
    sizes = [int(rng.integers(2, 5)) for _ in range(n)]
    functions = []
    for j in range(n):
        shape = (sizes[j],) * (n - 1)
        vals = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.75)
        functions.append(ProjectionFunction(unit, vals))
    return functions, Box(np.zeros(n), np.ones(n)), GridSpec(math.lcm(*sizes))
