"""Reduction of general-angle problems to certified small-angle subproblems.

Directions are partitioned into spherical caps, each cap tuple is mapped by
the linear change of coordinates sending cap centers to the coordinate axes,
tube radii are inflated by the map's maximal length distortion, and the whole
problem is rescaled to unit radius.  The reassembled bound

    sum over subproblems of distortion_factor * certificate(subproblem)

dominates the original integral: the cap split is pointwise subadditive for
the exponent 1/(n-1) <= 1, and for each subproblem

    int_{Q} prod_j (sum_{caps} T)^{1/(n-1)}
      <= |det Map|^{-1} * (sigma_max W)^n * int_{Q''} (unit-radius image),

with Q'' an axis-aligned cube containing the mapped, rescaled cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .certifier import Constants, delta_for_epsilon
from .errors import PropertyViolation, ValidationError
from .evaluator import FamilyMember, TubeFamily, check_families
from .geometry import (
    Cap,
    Cube,
    Direction,
    LinearMap,
    Line,
    angle_from_axis,
    cap_cover,
    cap_index,
    frame_inverses,
)

SINGULAR_DET = 1e-12  # a frame with |det| below this is singular


@dataclass(frozen=True, eq=False)
class ReducedProblem:
    """One small-angle subproblem with its bound bookkeeping multiplier.

    A problem is one row of the stacked reduction, held as Python floats:
    the map's ``matrix`` rows, ``length_distortion`` (min, max singular
    value) and ``volume_distortion`` (|det|), and the cube's ``min_corner``
    and ``side``, all checked once for the whole stack.  ``map`` and ``cube``
    are built from them on first read.  ``sources`` are the cap tuple's
    sub-families of the original problem, one per axis in axis order, and
    ``scale`` is 1 / (sigma_max * base radius); the mapped families are built
    from them on first read of ``families``.
    """

    matrix: list = field(repr=False)
    length_distortion: tuple
    volume_distortion: float
    min_corner: list
    side: float
    distortion_factor: float
    delta: float
    cap_indices: tuple
    sources: tuple = field(repr=False)
    scale: float = field(repr=False)

    @cached_property
    def map(self) -> LinearMap:
        return LinearMap(self.matrix, self.length_distortion, self.volume_distortion)

    @cached_property
    def cube(self) -> Cube:
        return Cube(self.min_corner, self.side)

    @cached_property
    def families(self) -> tuple:
        """TubeFamily per axis: each member mapped by ``map``, unit radius, angles <= delta."""
        out = []
        for f in self.sources:
            members = []
            for m in f.members:
                line = m.geometry
                d = line.direction.components
                d = d if d[f.axis] >= 0.0 else -d
                anchor = self.scale * self.map.apply(line.anchor)
                new_dir = Direction.normalized(self.map.matrix @ d)
                members.append(FamilyMember(Line(anchor, new_dir), m.weight))
            out.append(TubeFamily(f.axis, f.dim, tuple(members), 1.0))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "cap_indices": list(self.cap_indices),
            "delta": self.delta,
            "distortion_factor": self.distortion_factor,
            "matrix": [list(row) for row in self.matrix],
            "length_distortion": list(self.length_distortion),
            "volume_distortion": self.volume_distortion,
            "cube": {"min_corner": list(self.min_corner), "side": self.side},
            "member_counts": [f.size for f in self.sources],
        }


def split_by_caps(family: TubeFamily, centers: np.ndarray, radius: float) -> dict:
    """Partition members by the first cap containing their direction.

    The caps are the rows of ``centers`` with angular ``radius``.  Every
    member direction must lie in some cap; the result maps the index of each
    nonempty cap, in increasing order, to its sub-family, and preserves the
    member multiset.
    """
    buckets: dict[int, list[FamilyMember]] = {}
    for m in family.members:
        g = m.geometry
        if not isinstance(g, Line):
            raise ValidationError("cap splitting applies to straight tubes only")
        i = cap_index(centers, g.direction, radius + 1e-12)
        if i is None:
            raise ValidationError("a member direction lies in no cap")
        buckets.setdefault(i, []).append(m)
    return {
        i: TubeFamily(family.axis, family.dim, tuple(buckets[i]), family.base_radius)
        for i in sorted(buckets)
    }


def _net(cap: Cap, rho: float) -> tuple[np.ndarray, float]:
    """The cap's net and the radius its caps have: a one-row net is ``cap`` itself."""
    centers = cap_cover(cap, rho)
    return centers, cap.ang_radius if len(centers) == 1 else rho


def _first_wide_angle(split, pos, mats, delta):
    """(tuple, angle) of the first member whose mapped angle exceeds delta, else None.

    Tuple p maps the members of its axis-j cap, at position ``pos[j][p]`` in
    ``split[j]``, by ``mats[p]``.  "First" is the order of a walk over tuples,
    then axes, then members; the test is acos(min(1, |u_j|)) > delta (1 +
    1e-9) on the normalized image u of each direction (the sign of a line
    direction does not change |u_j|).
    """
    first = None
    for j, caps in enumerate(split):
        subs = list(caps.values())
        sizes = np.array([f.size for f in subs])
        starts = np.cumsum(sizes) - sizes
        dirs = np.array([m.geometry.direction.components for f in subs for m in f.members])
        counts = sizes[pos[j]]
        tuples = np.repeat(np.arange(len(counts)), counts)
        rows = np.repeat(starts[pos[j]] - (np.cumsum(counts) - counts), counts)
        rows += np.arange(rows.size)
        u = (mats[tuples] @ dirs[rows][:, :, None])[:, :, 0]
        cos = np.abs(u[:, j]) / np.sqrt(np.vecdot(u, u))
        angles = np.arccos(np.minimum(1.0, cos))
        wide = np.flatnonzero(angles > delta * (1.0 + 1e-9))
        # rows run in tuple order, so a later axis wins only on an earlier tuple
        if wide.size and (first is None or tuples[wide[0]] < first[0]):
            first = (int(tuples[wide[0]]), float(angles[wide[0]]))
    return first


def _reduce_with_caps(families, cube, nets, delta, nu=None) -> list[ReducedProblem]:
    """One ReducedProblem per tuple of nonempty caps, one cap per axis.

    ``families`` come in axis order, and ``nets[j]`` is axis j's (centers,
    radius).  The P tuples run in ``itertools.product`` order over each
    axis's nonempty caps and are handled as arrays: frame p's column j is the
    center of tuple p's axis-j cap, one determinant of the stacked frames
    serves the wedge precondition (|det| >= nu/2, unless ``nu`` is None) and
    the singular-frame test (|det| < SINGULAR_DET), and ``frame_inverses``
    maps the frames before the first that fails either.  The checks fail as a
    walk over the tuples would: on the first failing tuple, wedge, then
    singular, then every mapped member angle <= delta.  The maps, the cubes
    (each centered on its mapped cube's bounding box) and the distortion
    factors are checked for the whole stack as ``LinearMap`` and ``Cube``
    check one, with the same first failure, and each problem is one row of
    the stacked results, listed once per array.
    """
    split = [split_by_caps(f, *nets[f.axis]) for f in families]
    if not all(split):
        return []
    shape = tuple(len(caps) for caps in split)
    pos = np.unravel_index(np.arange(math.prod(shape)), shape)
    combos = np.stack([np.array(list(caps))[k] for caps, k in zip(split, pos)], axis=1)
    frames = np.stack([nets[j][0][combos[:, j]] for j in range(len(split))], axis=2)
    wedges = np.abs(np.linalg.det(frames))
    bad = wedges < SINGULAR_DET
    if nu is not None:
        bad |= wedges < nu / 2.0
    stop = int(np.argmax(bad)) if bad.any() else len(combos)
    mats, lengths, dets = frame_inverses(frames[:stop])
    wide = _first_wide_angle(split, [k[:stop] for k in pos], mats, delta)
    if wide is not None:
        raise PropertyViolation(f"transformed angle {wide[1]:.3e} exceeds delta {delta:.3e}")
    if stop < len(combos):
        combo, wedge = tuple(combos[stop].tolist()), float(wedges[stop])
        if nu is not None and wedge < nu / 2.0:
            raise ValidationError(
                f"cap tuple {combo} has center wedge {wedge:.3e} < nu/2; "
                "the transversality precondition is violated"
            )
        raise ValidationError(f"cap tuple {combo} has a singular frame: |det| = {wedge:.3e}")
    # the cube's corners through every map at once, each map rescaled to unit radius
    w = families[0].base_radius
    scales = 1.0 / (lengths[:, 1] * w)
    with np.errstate(over="ignore", invalid="ignore"):
        # a cube mapped past the float range fails the finiteness check below
        mapped = scales[:, None, None] * (cube.corners() @ mats.transpose(0, 2, 1))
        lo, hi = mapped.min(axis=1), mapped.max(axis=1)
        sides = np.maximum((hi - lo).max(axis=1) * (1.0 + 1e-12), 1.0)
        min_corners = 0.5 * (lo + hi) - 0.5 * sides[:, None]
    # Cube's checks on every row; as in a walk over the tuples, the distortion
    # factors (a float power can overflow) of the rows before the first failure come first
    finite = np.isfinite(min_corners).all(axis=1)
    good = finite & (sides > 0.0)
    first_bad = len(combos) if good.all() else int(np.argmin(good))
    length_rows, det_list = lengths.tolist(), dets.tolist()
    n = cube.n
    rows = zip(length_rows[:first_bad], det_list)
    try:
        factors = [s_max**n * w**n / det for (_, s_max), det in rows]
        # a power raises OverflowError; a product of finite powers becomes inf
        factors_finite = all(map(math.isfinite, factors))
    except OverflowError:
        factors_finite = False
    if not factors_finite:
        raise ValidationError(f"distortion factor (sigma_max W)^{n} overflows at W = {w!r}")
    if first_bad < len(combos):
        raise ValueError("non-finite coordinates" if not finite[first_bad]
                         else "cube side must be positive")
    return [
        ReducedProblem(
            matrix=matrix,
            length_distortion=tuple(length),
            volume_distortion=det,
            min_corner=min_corner,
            side=side,
            distortion_factor=factor,
            delta=delta,
            cap_indices=combo,
            sources=tuple(caps[i] for caps, i in zip(split, combo)),
            scale=scale,
        )
        for matrix, length, det, min_corner, side, factor, combo, scale in zip(
            mats.tolist(), length_rows, det_list, min_corners.tolist(), sides.tolist(),
            factors, map(tuple, combos.tolist()), scales.tolist(),
        )
    ]


def _reduce(families, cube, nets, delta, nu=None) -> list[ReducedProblem]:
    """``_reduce_with_caps``, with a cube mapped past the float range reported as bad input."""
    try:
        return _reduce_with_caps(families, cube, nets, delta, nu)
    except ValueError as exc:
        raise ValidationError(f"the cube maps past the float range: {exc}")


def reduce_general_to_small_angle(families, cube: Cube, eps: float) -> list[ReducedProblem]:
    """Split a general-angle problem (angles <= (10n)^-1) into cap tuples.

    Uses caps of radius delta/10 with delta = delta_for_epsilon(eps).  Each
    nonempty cap tuple yields one ReducedProblem whose transformed angles are
    re-validated against delta (never assumed).
    """
    fams = check_families(families)
    n = len(fams)
    limit = 1.0 / (10.0 * n)
    for f in families:
        for m in f.members:
            if not isinstance(m.geometry, Line):
                raise ValidationError("reduction applies to straight tubes only")
            ang = angle_from_axis(m.geometry.direction, f.axis)
            if ang > limit * (1.0 + 1e-9):
                raise ValidationError(
                    f"member angle {ang:.3e} exceeds the (10n)^-1 limit {limit:.3e}"
                )
    delta = delta_for_epsilon(eps, Constants.for_dimension(n))
    rho = delta / 10.0
    nets = [_net(Cap(Direction.axis(n, j), limit), min(rho, limit)) for j in range(n)]
    return _reduce(fams, cube, nets, delta)


def transversal_sigma_bound(n: int, nu: float) -> float:
    """A priori bound on the frame map's max singular value: 2 sqrt(n)^(n-1)/nu."""
    return 2.0 * math.sqrt(n) ** (n - 1) / nu


def transversal_reduce(
    families,
    cube: Cube,
    direction_sets: list[Cap],
    nu: float,
    eps: float,
) -> list[ReducedProblem]:
    """Reduction under the wedge (transversality) hypothesis.

    ``direction_sets`` are caps containing each family's directions; any
    tuple of directions from them must have wedge volume >= nu.  Cap radius is
    rho = min(nu/(100n), delta/(2 L)) with L = transversal_sigma_bound, which
    keeps every cap tuple's wedge >= nu/2 and every transformed angle <= delta;
    a cap tuple whose center wedge drops below nu/2 is rejected as a
    precondition violation.  Distortion factors are computed from the actual
    frame maps (the a priori Poly(nu^-1) bound L^n is only a ceiling).
    """
    fams = check_families(families)
    n = len(fams)
    if len(direction_sets) != n:
        raise ValidationError("need one direction cap per axis")
    if not (0.0 < nu <= 1.0):
        raise ValidationError("nu must lie in (0, 1]")
    for f in fams:
        cap = direction_sets[f.axis]
        for m in f.members:
            if not isinstance(m.geometry, Line):
                raise ValidationError("reduction applies to straight tubes only")
            direction = m.geometry.direction
            if cap_index(cap.center.components[None], direction, cap.ang_radius + 1e-9) is None:
                raise ValidationError(
                    f"axis-{f.axis} member direction escapes its direction set"
                )
    delta = delta_for_epsilon(eps, Constants.for_dimension(n))
    sigma = transversal_sigma_bound(n, nu)
    rho = min(nu / (100.0 * n), delta / (2.0 * sigma))
    if not rho > 0.0:
        raise ValidationError(f"nu {nu!r} is too small: the cap radius underflows to 0")
    nets = [_net(cap, min(rho, cap.ang_radius)) for cap in direction_sets]
    return _reduce(fams, cube, nets, delta, nu)

