"""Multiscale bound certificates for tube-family overlap integrals.

The certified chain follows the small-angle multiscale argument: subdivide the
cube at scale steps W, delta^-1 W, ..., apply Loomis-Whitney on each subcube
via axis-parallel fattened surrogates, and terminate with the pointwise bound
f_j <= N_j.  Every constant is explicit:

    c_lw   = omega_{n-1}^{n/(n-1)} * 2^n
    c_step = c_lw * (20 n)^n

Derivation of c_lw: a tube of radius W crossing a step subcube Q is dominated
on Q by an axis-parallel tube of radius 2W, whose transverse cross-section has
volume omega_{n-1} (2W)^{n-1}.  Loomis-Whitney on the fattened sums gives

    int_Q prod_j f_{j,W}^{1/(n-1)} <= prod_j (omega_{n-1} (2W)^{n-1} N_j(Q))^{1/(n-1)}
                                    = c_lw W^n prod_j N_j(Q)^{1/(n-1)}.

Derivation of the (20n)^n factor: every tube of radius W meeting Q has its
radius delta^-1 W neighborhood identically 1 on Q, so the scale-delta^-1 W
integral over Q is at least |Q| prod_j N_j(Q)^{1/(n-1)}, and |Q| is at least
(delta^-1 W / 20n)^n.  Dividing yields c_step * delta^n per step.

The per-step argument needs diam(Q) + W <= delta^-1 W, which holds whenever
delta <= 0.9; chain operations reject larger delta.  The fattening and
identically-1 lemmas are checked on random instances in tests/lemmas.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .evaluator import (
    GridSpec,
    OverlapValue,
    _check_curve_spans,
    _finite,
    check_families,
    midpoint_rule,
)
from .geometry import (
    Cube,
    Line,
    LipschitzCurve,
    angle_from_axis,
    boxes_within,
    distance_rounding,
    grid_ranges,
    member_reach,
    subcube_grid,
    subdivision_counts,
)
from .loomis_whitney import unit_ball_volume

MAX_STEP_DELTA = 0.9
#: subcube-enumeration ceiling for optional per-step certificate detail
DETAIL_BUDGET = 200_000
#: most band cells of a batch of lines in ``_subcube_counts``
_ROWS = 1 << 16


@dataclass(frozen=True)
class Constants:
    """Explicit per-step constants of the multiscale chain."""

    n: int
    c_lw: float
    c_step: float

    @classmethod
    def for_dimension(cls, n: int) -> "Constants":
        if n < 2:
            raise ValidationError("dimension must be >= 2")
        omega = unit_ball_volume(n - 1)
        c_lw = omega ** (n / (n - 1.0)) * 2.0**n
        return cls(n, c_lw, c_lw * (20.0 * n) ** n)


@dataclass(frozen=True, eq=False)
class StepVerification:
    lhs: float
    rhs: float
    bound: float
    ratio: float
    degenerate: bool


@dataclass(frozen=True, eq=False)
class StepDetail:
    """Subcube Loomis-Whitney bound for one ladder rung.

    The histograms count members per subcube; ``numeric_bound`` sums their
    weights.  Certificates omit a rung's detail above the detail budget.
    """

    w: float
    subcube_side: float
    subcube_count: int
    count_histograms: tuple  # per axis: {count: multiplicity}
    numeric_bound: float


@dataclass(frozen=True, eq=False)
class Certificate:
    """Machine-checkable upper bound for one configuration.

    final_bound = covering_multiplicity * c_step^M * prod_j N_j^(1/(n-1)),
    where M is the smallest integer with delta^-M >= S.
    """

    n: int
    delta: float
    m_steps: int
    ladder: tuple  # scales delta^-k for k = 0..M
    c_lw: float
    c_step: float
    counts: tuple  # per-axis total weights (plain counts for unit weights)
    covering_multiplicity: int
    final_bound: float
    epsilon_exponent: float
    step_details: tuple  # StepDetail | None per rung


def _validate_small_angle(families, delta: float) -> None:
    for f in families:
        for m in f.members:
            g = m.geometry
            if isinstance(g, Line):
                ang = angle_from_axis(g.direction, f.axis)
                if ang > delta + 1e-9:
                    raise ValidationError(
                        f"axis-{f.axis} tube at angle {ang:.3e} exceeds delta {delta:.3e}"
                    )
            elif isinstance(g, LipschitzCurve):
                if g.lip > delta * (1.0 + 1e-9):
                    raise ValidationError(
                        f"curve Lipschitz constant {g.lip:.3e} exceeds delta {delta:.3e}"
                    )


def _common_radius(families) -> float:
    w = families[0].base_radius
    for f in families:
        if abs(f.base_radius - w) > 1e-12 * w:
            raise ValidationError("all families must share one base radius")
    return w


def _check_step_delta(delta: float) -> None:
    if not (0.0 < delta <= MAX_STEP_DELTA):
        raise ValidationError(
            f"step arguments require delta in (0, {MAX_STEP_DELTA}]; got {delta!r}"
        )


def _check_step(families, cube: Cube, delta: float) -> tuple[int, float]:
    """Preconditions of one scale step; returns (n, W)."""
    n = len(check_families(families))
    _check_step_delta(delta)
    w = _common_radius(families)
    if cube.side < w / delta * (1.0 - 1e-12):
        raise ValidationError("step requires cube side >= delta^-1 W")
    _validate_small_angle(families, delta)
    return n, w


def _band_cells(first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Grid indices, shape (cells, n), of the cells in the index boxes [first, stop).

    ``first`` and ``stop`` hold one box per row; the cells come box by box,
    each box in C order.  The array is column-major, so each axis's indices
    are contiguous.
    """
    width = np.maximum(stop - first, 0)
    size = np.prod(width, axis=1)
    rest = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    idx = np.empty((first.shape[1], rest.size), dtype=np.int64)
    for c in range(first.shape[1] - 1, 0, -1):
        rest, digit = np.divmod(rest, np.repeat(width[:, c], size))
        idx[c] = np.repeat(first[:, c], size) + digit
    # what is left of the offset in the box is below the box's width on axis 0
    idx[0] = np.repeat(first[:, 0], size) + rest
    return idx.T


def _member_batches(sizes: np.ndarray, is_line: np.ndarray):
    """Member ranges [start, stop) that ``_subcube_counts`` takes in one pass each.

    ``sizes`` holds each member's band cells.  A batch is one polyline, or a
    run of lines whose cells fit in ``_ROWS`` (a line with more gets a batch
    of its own).
    """
    ends = np.cumsum(sizes)
    start = 0
    while start < sizes.size:
        stop = start + 1
        if is_line[start]:
            fit = int(np.searchsorted(ends, ends[start] - sizes[start] + _ROWS, side="right"))
            curves = np.flatnonzero(~is_line[start:fit])
            stop = max(stop, start + int(curves[0]) if curves.size else fit)
        yield start, stop
        start = stop


def _subcube_counts(families, cube: Cube, delta: float, w: float):
    """Subdivide and count members per subcube; returns (side, counts, weights).

    ``counts[j]`` holds the number of members of the axis-j family within w
    of each subcube and ``weights[j]`` their total weight, N_j(Q); both have
    shape (n, k^n), in the C order of ``subcube_grid``.  Only candidate
    subcubes are tested: for each layer of subcubes along the family axis,
    those that meet the member's reach over the layer (``member_reach``),
    padded by one subcube on each side.  A subcube meets a box exactly when
    its center lies within half a side of it, so ``grid_ranges`` on the
    reach widened by half a subcube gives them.  Every other subcube lies
    farther than w from the member by more than the rounding of the
    computed distance, and ``boxes_within`` decides the candidates as the
    exact test does, so the counts equal a test of every pair.

    A family's candidates are stacked as rows, member by member
    (``_member_batches``): a run of lines is one ``boxes_within`` call with
    each row's own line, and a polyline is a call of its own.  The rows are
    scattered in row order with ``np.add.at``, which adds one at a time, so
    each subcube's weight is the sum over its members in member order,
    starting from 0, across batches too: the bits of a test of every pair.
    A per-batch ``np.bincount`` added to the total would reassociate that sum.
    """
    k, sub_side = subdivision_counts(cube, delta, w)
    n = cube.n
    grid = [cube.min_corner[c] + sub_side * np.arange(k) for c in range(n)]
    layers = np.arange(k)
    half = np.array([[-0.5 * sub_side], [0.5 * sub_side]])
    counts = np.zeros((n, k**n), dtype=np.int64)
    weights = np.zeros(counts.shape)
    for f in families:
        j = f.axis
        members = [m.geometry for m in f.members]
        reach = member_reach(members, j, w, cube, k)
        bands = grid_ranges(reach + half, cube.min_corner, sub_side, k)
        bands[:, :, j] = np.stack([layers, layers + 1], axis=-1)
        first, stop = bands[..., 0], bands[..., 1]
        sizes = np.prod(np.maximum(stop - first, 0), axis=-1).sum(axis=1)
        bounds = distance_rounding(members, cube, w)
        is_line = np.array([isinstance(g, Line) for g in members], dtype=bool)
        member_weights = np.array([m.weight for m in f.members])
        for a, b in _member_batches(sizes, is_line):
            idx = _band_cells(first[a:b].reshape(-1, n), stop[a:b].reshape(-1, n)).T
            if idx.size == 0:
                continue
            cells = sizes[a:b]
            if is_line[a]:
                g = (np.repeat([m.anchor for m in members[a:b]], cells, axis=0),
                     np.repeat([m.direction.components for m in members[a:b]], cells, axis=0))
            else:
                g = members[a]
            near = boxes_within(g, [grid[c][idx[c]] for c in range(n)], sub_side, w, bounds)
            # each cell's index in the C order of the k^n subcubes
            flat = idx[0]
            for c in range(1, n):
                flat = flat * k + idx[c]
            flat = flat[near]
            np.add.at(counts[j], flat, 1)
            np.add.at(weights[j], flat, np.repeat(member_weights[a:b], cells)[near])
    return sub_side, counts, weights


def step_numeric_bound(n: int, c_lw: float, w: float, weights: np.ndarray) -> float:
    """sum_Q c_lw W^n prod_j N_j(Q)^(1/(n-1)) over the subcubes (N_j: member weight)."""
    p = 1.0 / (n - 1.0)
    prods = np.prod(np.power(weights, p), axis=0)
    return c_lw * w**n * float(np.sum(prods))


def _step_detail(families, cube: Cube, delta: float, w: float, c_lw: float) -> StepDetail:
    """Tile the cube at scale w, count members per subcube, and bound the rung."""
    n = len(families)
    sub_side, counts, weights = _subcube_counts(families, cube, delta, w)
    hists = tuple({v: int(c) for v, c in enumerate(np.bincount(row)) if c} for row in counts)
    return StepDetail(
        w, sub_side, counts.shape[1], hists, step_numeric_bound(n, c_lw, w, weights)
    )


def verify_step_inequality(families, cube: Cube, delta: float, grid: GridSpec) -> StepVerification:
    """Quadrature check of the one-step inequality.

    Evaluates both scales on the same grid and returns
    LHS / (c_step * delta^n * RHS); the contract is ratio <= 1 plus the
    combined quadrature tolerance.  An identically-zero instance is reported
    as ratio 0 with the degenerate flag.
    """
    n, w = _check_step(families, cube, delta)
    m = grid.cells_per_side
    lhs = midpoint_rule(families, cube)(m)
    rhs = midpoint_rule(families, cube, [w / delta] * n)(m)
    bound = _finite(Constants.for_dimension(n).c_step * delta**n * rhs, "the step bound")
    if bound == 0.0:
        return StepVerification(lhs, rhs, bound, 0.0, degenerate=True)
    return StepVerification(lhs, rhs, bound, lhs / bound, degenerate=False)


def cover_for_arbitrary_s(cube: Cube, delta: float, m_steps: int):
    """Cover the cube by axis-aligned cubes of side delta^-m_steps.

    Returns ``(los, side)``: the cover cubes' min corners, shape (count, n),
    and their common side.
    """
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must lie in (0, 1)")
    if m_steps < 0:
        raise ValidationError("m_steps must be >= 0")
    side = delta ** (-m_steps)
    per_side = max(1, math.ceil(cube.side / side - 1e-12))
    return subcube_grid(Cube(cube.min_corner, per_side * side), per_side), side


def scale_count(s: float, delta: float) -> int:
    """Smallest integer M >= 0 with delta^-M >= S."""
    if s <= 1.0:
        return 0
    m = math.ceil(math.log(s) / math.log(1.0 / delta) - 1e-9)
    m = max(0, m)
    while delta ** (-m) < s * (1.0 - 1e-9):
        m += 1
    return m


def certify_multiscale(families, cube: Cube, delta: float) -> Certificate:
    """Run the multiscale chain and emit the certified bound.

    Preconditions: cube side >= 1, unit base radius, member angles (tubes)
    and Lipschitz constants (curves) at most delta.  The chain is run on an
    enlarged cube of side delta^-M >= S sharing the min corner, which contains
    the requested cube, so the bound applies to it.  A rung that would tile
    more than DETAIL_BUDGET subcubes gets no step detail (None).
    """
    fams = check_families(families)
    n = len(fams)
    _check_step_delta(delta)
    if cube.side < 1.0 - 1e-12:
        raise ValidationError("certification requires cube side >= 1")
    w = _common_radius(families)
    if abs(w - 1.0) > 1e-12:
        raise ValidationError("certification requires unit base radius")
    _validate_small_angle(families, delta)
    _check_curve_spans(families, cube)
    consts = Constants.for_dimension(n)
    counts = tuple(f.total_weight for f in fams)
    p = 1.0 / (n - 1.0)
    try:
        # a float power raises OverflowError; a product of finite ones becomes inf
        m_steps = scale_count(cube.side, delta)
        cover_los, _ = cover_for_arbitrary_s(cube, delta, m_steps)
        multiplicity = cover_los.shape[0]
        with np.errstate(over="ignore"):
            count_product = float(np.prod([c**p for c in counts]))
        final_bound = multiplicity * consts.c_step**m_steps * count_product
        ladder = tuple(delta ** (-k) for k in range(m_steps + 1))
    except OverflowError:
        final_bound = math.inf
    if not math.isfinite(final_bound):
        raise ValidationError(
            f"the certified bound overflows a float at cube side {cube.side!r} and "
            f"family weights {counts!r}"
        )
    chain_cube = Cube(cube.min_corner, ladder[-1])
    details = []
    for k in range(m_steps):
        w_k = ladder[k]
        per_side, _ = subdivision_counts(chain_cube, delta, w_k)
        if per_side**n > DETAIL_BUDGET:
            details.append(None)
        else:
            details.append(_step_detail(families, chain_cube, delta, w_k, consts.c_lw))
    return Certificate(
        n=n,
        delta=delta,
        m_steps=m_steps,
        ladder=ladder,
        c_lw=consts.c_lw,
        c_step=consts.c_step,
        counts=counts,
        covering_multiplicity=multiplicity,
        final_bound=final_bound,
        epsilon_exponent=math.log(consts.c_step) / math.log(1.0 / delta),
        step_details=tuple(details),
    )


def delta_for_epsilon(eps: float, consts: Constants) -> float:
    """delta with log(c_step)/log(delta^-1) = eps, i.e. exp(-log(c_step)/eps).

    An infinite epsilon would give delta 1, which no scale step takes.
    """
    if not (0.0 < eps < math.inf):
        raise ValidationError(f"epsilon must be a finite positive number, got {eps!r}")
    delta = math.exp(-math.log(consts.c_step) / eps)
    if delta < 1e-300:
        raise ValidationError(
            f"epsilon {eps!r} demands delta below 1e-300 (underflow)"
        )
    return delta


def check_certificate_soundness(
    certificate: Certificate, value: OverlapValue, tol: float = 0.0
) -> bool:
    """value <= final_bound + tol + the value's own error estimate."""
    slack = tol + (value.error_estimate or 0.0)
    return value.value <= certificate.final_bound + slack
