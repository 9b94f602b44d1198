"""Scale sweeps probing the S^epsilon factor, and extremal-ratio search.

The sweep generates a configuration per scale S from one seed, evaluates the
overlap integral, certifies it, and fits the slope of log(ratio) against
log(S).  The search is greedy hill climbing with restarts (optionally
annealed) over anchor/direction perturbations; its objective is a fixed-grid
midpoint rule kept as per-family count fields (``CountFields``), updated on
each step for the moved member's band only, so traces are deterministic and
exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certifier import Certificate, certify_multiscale
from .errors import ValidationError
from .evaluator import CountFields, FamilyMember, GridSpec, OverlapValue, evaluate_refined
from .geometry import Cube, Line
from .generators import AxisParallel, GenSpec, SmallAngle, Weighted, _direction_in_cap, generate

SWEEP_CSV_COLUMNS = (
    "s",
    "value",
    "error_estimate",
    "cells_per_side",
    "converged",
    "certified_bound",
    "ratio",
    "flagged",
)

SEARCH_CSV_COLUMNS = ("iteration", "restart", "accepted_ratio", "best_ratio")

#: extremal_search: restarts per budget, and the annealing temperature schedule
_RESTARTS = 4
_T0 = 0.1
_COOLING = 0.95
#: extremal_search: largest anchor move per coordinate, as a fraction of the cube side
_STEP = 0.05


@dataclass(frozen=True, eq=False)
class SweepRow:
    s: float
    value: OverlapValue
    certificate: Certificate
    ratio: float
    flagged: bool

    def csv_fields(self) -> tuple:
        return (
            self.s,
            self.value.value,
            self.value.error_estimate,
            self.value.cells_per_side,
            self.value.converged,
            self.certificate.final_bound,
            self.ratio,
            self.flagged,
        )


@dataclass(frozen=True, eq=False)
class SweepResult:
    rows: tuple
    slope: float | None


def _count_normalizer(families) -> float:
    n = families[0].dim
    p = 1.0 / (n - 1.0)
    return float(np.prod([f.total_weight**p for f in families]))


def sweep_scale(
    template: GenSpec,
    s_values,
    delta: float,
    *,
    tol: float = 1e-2,
    max_doublings: int = 5,
) -> SweepResult:
    """Evaluate + certify the template configuration at each scale S.

    Each value refines from evaluate_refined's default 16-cell start grid.
    Rows with non-convergent quadrature are flagged and excluded from the
    least-squares slope fit of log(ratio) against log(S).
    """
    s_values = [float(s) for s in s_values]
    if not s_values or any(s < 1.0 for s in s_values) or sorted(s_values) != s_values:
        raise ValidationError("s_values must be increasing and >= 1")
    if not isinstance(template.regime, (AxisParallel, SmallAngle, Weighted)):
        raise ValidationError("sweeps need an axis_parallel/small_angle/weighted template")
    if isinstance(template.regime, (SmallAngle, Weighted)) and template.regime.delta > delta:
        raise ValidationError("template angles exceed the certification delta")
    rows = []
    for s in s_values:
        cube = Cube.centered(np.zeros(template.n), s)
        families = generate(template.with_cube(cube))
        value = evaluate_refined(families, cube, tol, max_doublings)
        certificate = certify_multiscale(families, cube, delta)
        norm = _count_normalizer(families)
        ratio = value.value / norm if norm > 0.0 else 0.0
        rows.append(SweepRow(s, value, certificate, ratio, flagged=not value.converged))
    fit = [(r.s, r.ratio) for r in rows if not r.flagged and r.ratio > 0.0]
    slope = None
    if len(fit) >= 2:
        xs = np.log([f[0] for f in fit])
        ys = np.log([f[1] for f in fit])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepResult(tuple(rows), slope)


@dataclass(frozen=True, eq=False)
class SearchTracePoint:
    iteration: int
    restart: int
    accepted_ratio: float
    best_ratio: float


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_ratio: float
    trace: tuple


def _perturb(rng, families, cube: Cube, angle_limit: float):
    """Move one random member's anchor and redraw its direction in the cap.

    Returns ``(j, a, member)``: member ``a`` of ``families[j]`` becomes ``member``.
    """
    j = int(rng.integers(0, len(families)))
    a = int(rng.integers(0, families[j].size))
    member = families[j].members[a]
    anchor = member.geometry.anchor + rng.uniform(-1.0, 1.0, cube.n) * cube.side * _STEP
    anchor = np.clip(anchor, cube.min_corner, cube.max_corner)
    direction = _direction_in_cap(rng, cube.n, families[j].axis, angle_limit)
    return j, a, FamilyMember(Line(anchor, direction), member.weight)


def extremal_search(
    n: int,
    counts,
    cube: Cube,
    budget: int,
    seed: int,
    *,
    grid: GridSpec = GridSpec(128),
    annealing: bool = False,
) -> SearchResult:
    """Maximize value / prod_j N_j^(1/(n-1)) by perturbation search.

    Members stay within angle 1/(10n) of their axis.  Greedy by default
    (accept only improvements); with ``annealing`` worse moves are accepted
    with probability exp(delta_ratio / T), T = 0.1 * 0.95^step.  The budget
    is split evenly across 4 restarts; the global best-so-far in the trace is
    non-decreasing.
    """
    if n < 2:
        raise ValidationError("dimension must be >= 2")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    if any(c < 1 for c in counts):
        raise ValidationError("every family count must be >= 1")
    limit = 1.0 / (10.0 * n)
    rng = np.random.default_rng(seed)
    norm = float(np.prod([c ** (1.0 / (n - 1.0)) for c in counts]))

    def objective(fields: CountFields) -> float:
        return fields.value() / norm

    per_restart = max(1, budget // _RESTARTS)
    best_ratio = -math.inf
    trace = []
    iteration = 0
    restart = 0
    while iteration < budget:
        spec = GenSpec(n, tuple(counts), SmallAngle(limit), cube, int(rng.integers(0, 2**63)))
        current = CountFields.build(generate(spec), cube, grid.cells_per_side)
        current_ratio = objective(current)
        temp = _T0
        best_ratio = max(best_ratio, current_ratio)
        trace.append(SearchTracePoint(iteration, restart, current_ratio, best_ratio))
        iteration += 1
        steps = min(per_restart - 1, budget - iteration)
        for _ in range(steps):
            cand = current.moved(*_perturb(rng, current.families, cube, limit))
            cand_ratio = objective(cand)
            accept = cand_ratio > current_ratio
            if not accept and annealing and temp > 0.0:
                accept = rng.uniform() < math.exp((cand_ratio - current_ratio) / temp)
            if accept:
                current, current_ratio = cand, cand_ratio
            best_ratio = max(best_ratio, current_ratio)
            trace.append(SearchTracePoint(iteration, restart, current_ratio, best_ratio))
            iteration += 1
            temp *= _COOLING
        restart += 1
    return SearchResult(best_ratio, tuple(trace))
