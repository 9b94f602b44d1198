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

import itertools
import math
from dataclasses import dataclass

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
    Tube,
    angle_from_axis,
    cap_cover,
    cap_index,
    frame_map,
    wedge_volume,
)


@dataclass(frozen=True, eq=False)
class ReducedProblem:
    """One small-angle subproblem with its bound bookkeeping multiplier."""

    map: LinearMap
    families: tuple  # TubeFamily per axis, unit radius, angles <= delta
    cube: Cube
    distortion_factor: float
    delta: float
    cap_indices: tuple

    def to_json(self) -> dict:
        return {
            "cap_indices": list(self.cap_indices),
            "delta": self.delta,
            "distortion_factor": self.distortion_factor,
            "matrix": self.map.matrix.tolist(),
            "length_distortion": list(self.map.length_distortion),
            "volume_distortion": self.map.volume_distortion,
            "cube": {"min_corner": self.cube.min_corner.tolist(), "side": self.cube.side},
            "member_counts": [f.size for f in self.families],
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
        if not isinstance(g, Tube):
            raise ValidationError("cap splitting applies to straight tubes only")
        i = cap_index(centers, g.line.direction, radius + 1e-12)
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


def _transform_problem(families, cube, lmap, delta, cap_indices) -> ReducedProblem:
    """Map a cap-tuple subproblem by ``lmap`` and rescale to unit radius."""
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
    return ReducedProblem(
        map=lmap,
        families=tuple(out_families),
        cube=out_cube,
        distortion_factor=distortion,
        delta=delta,
        cap_indices=tuple(cap_indices),
    )


def _reduce_with_caps(families, cube, nets, delta, check_tuple) -> list[ReducedProblem]:
    """One ReducedProblem per tuple of nonempty caps, one cap per axis.

    ``nets[j]`` is axis j's (centers, radius).  ``check_tuple(combo,
    centers)``, unless None, vets each cap tuple before its frame map is built.
    """
    split = [split_by_caps(f, *nets[f.axis]) for f in sorted(families, key=lambda f: f.axis)]
    problems = []
    for combo in itertools.product(*split):
        centers = [Direction(nets[j][0][i]) for j, i in enumerate(combo)]
        if check_tuple is not None:
            check_tuple(combo, centers)
        tuple_families = [split[j][i] for j, i in enumerate(combo)]
        problems.append(_transform_problem(tuple_families, cube, frame_map(centers), delta, combo))
    return problems


def reduce_general_to_small_angle(families, cube: Cube, eps: float) -> list[ReducedProblem]:
    """Split a general-angle problem (angles <= (10n)^-1) into cap tuples.

    Uses caps of radius delta/10 with delta = delta_for_epsilon(eps).  Each
    nonempty cap tuple yields one ReducedProblem whose transformed angles are
    re-validated against delta (never assumed).
    """
    n = check_families(families)
    limit = 1.0 / (10.0 * n)
    for f in families:
        for m in f.members:
            if not isinstance(m.geometry, Tube):
                raise ValidationError("reduction applies to straight tubes only")
            ang = angle_from_axis(m.geometry.line.direction, f.axis)
            if ang > limit * (1.0 + 1e-9):
                raise ValidationError(
                    f"member angle {ang:.3e} exceeds the (10n)^-1 limit {limit:.3e}"
                )
    delta = delta_for_epsilon(eps, Constants.for_dimension(n))
    rho = delta / 10.0
    nets = [_net(Cap(Direction.axis(n, j), limit), min(rho, limit)) for j in range(n)]
    return _reduce_with_caps(families, cube, nets, delta, None)


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
    n = check_families(families)
    if len(direction_sets) != n:
        raise ValidationError("need one direction cap per axis")
    if not (0.0 < nu <= 1.0):
        raise ValidationError("nu must lie in (0, 1]")
    for f in sorted(families, key=lambda f: f.axis):
        cap = direction_sets[f.axis]
        for m in f.members:
            if not isinstance(m.geometry, Tube):
                raise ValidationError("reduction applies to straight tubes only")
            direction = m.geometry.line.direction
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

    def check_wedge(combo, centers) -> None:
        wedge = wedge_volume(centers)
        if wedge < nu / 2.0:
            raise ValidationError(
                f"cap tuple {combo} has center wedge {wedge:.3e} < nu/2; "
                "the transversality precondition is violated"
            )

    return _reduce_with_caps(families, cube, nets, delta, check_wedge)

