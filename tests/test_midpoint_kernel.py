"""The banded slab kernel against the dense block sums it replaced, bit for bit.

The dense reference walks the flat C-order cells in blocks of 65,536, sums
the pointwise integrand of each block with ``np.sum`` and folds the block
sums with ``math.fsum``; the kernel must give the same float, compared by
``float.hex``.  The Loomis-Whitney left side, an exact sum over the cells of
its inputs, is held to its rounding bound against a ``Fraction`` sum.
"""

import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kakeya.errors import CellBudgetExceeded, ValidationError
from kakeya.evaluator import (
    CountFields,
    FamilyMember,
    GridSpec,
    TubeFamily,
    _slabs,
    evaluate_overlap,
    midpoint_rule,
    midpoint_sum,
)
from kakeya.generators import GeneralAngle, GenSpec, Lipschitz, SmallAngle, Weighted, generate
from kakeya.geometry import Cube, Direction, Line, grid_ranges, lattice, member_reach
from kakeya.loomis_whitney import Box, ProjectionFunction, project, verify_lw

from conftest import family, line_through, shifted
from lemmas import overlap_integrand

BLOCK = 1 << 16

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def centers(lo, h, m):
    return lattice([lo[k] + (np.arange(m) + 0.5) * h[k] for k in range(len(lo))])


def dense_sum(values, pts) -> float:
    """fsum over 65,536-point blocks of np.sum(values(block))."""
    return math.fsum(
        float(np.sum(values(pts[s : s + BLOCK]))) for s in range(0, pts.shape[0], BLOCK)
    )


def dense_overlap(families, cube, m, radii=None) -> float:
    h = cube.side / m
    pts = centers(cube.min_corner, (h,) * cube.n, m)
    return h**cube.n * dense_sum(lambda p: overlap_integrand(families, p, radii=radii), pts)


deltas = st.floats(0.01, 0.3)
regimes = st.one_of(
    deltas.map(SmallAngle),
    st.just(GeneralAngle()),
    st.builds(Weighted, st.floats(0.1, 1.0), st.floats(1.0, 3.0), deltas),
    st.builds(Lipschitz, deltas, st.integers(2, 5)),
)


@st.composite
def overlap_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    corner = [draw(st.floats(-10.0, 10.0)) for _ in range(n)]
    cube = Cube(np.array(corner), draw(st.floats(2.0, 8.0)))
    spec = GenSpec(
        n,
        tuple(draw(st.integers(1, 4)) for _ in range(n)),
        draw(regimes),
        cube,
        draw(st.integers(0, 2**32)),
        draw(st.floats(0.3, 2.5)),
    )
    # a spread of 0 keeps every member in the cube; larger ones move some
    # partly or wholly outside it
    spread = draw(st.sampled_from([0.0, 0.0, 0.5, 1.5]))
    rng = np.random.default_rng(spec.seed)
    families = [
        shifted(f, spread * cube.side * rng.uniform(-1.0, 1.0, (f.size, n)))
        for f in generate(spec)
    ]
    # small grids, and grids of two or three blocks
    m = draw(
        st.one_of(st.integers(1, 64), st.integers(257, 400))
        if n == 2
        else st.one_of(st.integers(1, 20), st.integers(41, 56))
    )
    radii = draw(st.none() | st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    return families, cube, m, radii


@PROPERTY
@given(overlap_cases())
def test_overlap_matches_dense_blocks_bit_for_bit(case):
    families, cube, m, radii = case
    value = dense_overlap(families, cube, m, radii)
    err = abs(value - dense_overlap(families, cube, m // 2, radii)) if m % 2 == 0 else None
    midpoint = midpoint_rule(families, cube, radii)
    got = midpoint(m)
    assert got.hex() == value.hex()
    if err is not None:
        assert abs(got - midpoint(m // 2)).hex() == err.hex()


def test_overlap_matches_dense_on_row_slabs():
    # 131^2 cells per axis-0 index exceed the slab row limit, so the slabs
    # are rows along axis 1 grouped by their axis-0 index
    cube = Cube(np.array([-4.0, -3.0, -5.0]), 4.0)
    families = generate(GenSpec(3, (3, 3, 3), SmallAngle(0.2), cube, seed=7, radius=1.5))
    got = evaluate_overlap(families, cube, GridSpec(131))
    assert got.value > 0.0
    assert got.value.hex() == dense_overlap(families, cube, 131).hex()


@pytest.mark.parametrize("m", [24, 37])
def test_overlap_matches_dense_with_lines_square_to_their_axis(m):
    # members of family 0 with no motion along axis 0: one lies in the slab
    # over the cube, one misses it, one is axis-parallel in two coordinates
    cube = Cube(np.array([-2.0, -2.0, -2.0]), 4.0)
    families = [
        family(0, 3, [
            line_through([0.3, 0.0, 0.0], [0.0, 0.6, 0.8]),
            line_through([3.5, 0.0, 0.0], [0.0, 1.0, 0.0]),
            line_through([0.0, 0.5, -0.5], [0.0, 0.0, 1.0]),
            line_through([0.0, 0.2, 0.3], [1.0, 0.1, 0.0]),
        ]),
        family(1, 3, [
            line_through([0.1, 0.0, 0.2], [0.1, 1.0, 0.0]),
            line_through([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
        ]),
        family(2, 3, [
            line_through([0.0, 0.3, 0.0], [0.0, 0.1, 1.0]),
            line_through([1.0, -1.0, 0.0], [0.0, 0.0, 1.0]),
        ]),
    ]
    got = evaluate_overlap(families, cube, GridSpec(m))
    assert got.value > 0.0
    assert got.value.hex() == dense_overlap(families, cube, m).hex()


def moved_member(member: FamilyMember, axis: int, offset, rng) -> FamilyMember:
    """``member`` moved by ``offset``; a line also gets a new direction near its axis."""
    g = member.geometry
    if isinstance(g, Line):
        direction = np.eye(g.n)[axis] + rng.uniform(-0.1, 0.1, g.n)
        return FamilyMember(line_through(g.anchor + offset, direction), member.weight)
    alone = TubeFamily(axis, g.n, (member,), 1.0)
    return shifted(alone, [offset]).members[0]


@st.composite
def move_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    corner = [draw(st.floats(-10.0, 10.0)) for _ in range(n)]
    cube = Cube(np.array(corner), draw(st.floats(2.0, 8.0)))
    # mostly the search's tubes, sometimes polylines
    if draw(st.integers(0, 3)):
        regime = SmallAngle(draw(deltas))
    else:
        regime = Lipschitz(draw(deltas), draw(st.integers(2, 4)))
    counts = tuple(draw(st.integers(1, 3)) for _ in range(n))
    spec = GenSpec(n, counts, regime, cube, draw(st.integers(0, 2**32)), draw(st.floats(0.3, 2.5)))
    rng = np.random.default_rng(spec.seed)
    generated = generate(spec)
    cores = [[m.geometry for m in f.members] for f in generated]
    if draw(st.booleans()):
        # a line through the cube's center anchored 1.4e6 back along a direction
        # with |d|^2 - 1 = 5.3e-13: the rounding pad of family 0's bands at build
        # is orders of magnitude wider than that of a move of two other members
        d = np.zeros(n)
        d[:2] = [0.9997232574854863, -0.023524634814161727]
        cores[0].append(Line(cube.min_corner + 0.5 * cube.side - 1.4e6 * d, Direction(d)))
    families = [
        family(f.axis, n, lines, f.base_radius,
               weights=rng.integers(0, 4, len(lines)).astype(float).tolist())
        for f, lines in zip(generated, cores)
    ]
    # one block at n = 2; several blocks at n = 3, where the power is 1/2
    m = draw(st.integers(1, 64) if n == 2 else st.integers(41, 46))
    moves = []
    for _ in range(draw(st.integers(1, 4))):
        j = int(rng.integers(n))
        a = int(rng.integers(families[j].size))
        # small moves stay near the cube; the largest can leave it wholly
        offset = draw(st.sampled_from([0.05, 0.5, 1.5])) * cube.side * rng.uniform(-1.0, 1.0, n)
        moves.append((j, a, offset))
    return families, cube, m, moves, rng


def assert_fields_match_full_kernel(fields: CountFields) -> None:
    full = midpoint_rule(fields.families, fields.cube)(fields.m)
    assert fields.value().hex() == full.hex()
    rebuilt = CountFields.build(fields.families, fields.cube, fields.m)
    for got, want in zip(fields.fields, rebuilt.fields):
        assert np.array_equal(got, want)


@settings(PROPERTY, max_examples=40)
@given(move_cases())
def test_count_fields_match_full_kernel_after_each_move(case):
    families, cube, m, moves, rng = case
    fields = CountFields.build(families, cube, m)
    assert_fields_match_full_kernel(fields)
    for j, a, offset in moves:
        member = moved_member(fields.families[j].members[a], j, offset, rng)
        fields = fields.moved(j, a, member)
        assert_fields_match_full_kernel(fields)


def test_count_fields_member_moved_out_of_the_cube():
    cube = Cube(np.array([-3.0, -3.0, -3.0]), 6.0)
    families = generate(GenSpec(3, (3, 2, 2), SmallAngle(0.1), cube, seed=4))
    fields = CountFields.build(families, cube, 44)
    far = np.array([0.0, 20.0, 0.0])
    gone = moved_member(families[0].members[1], 0, far, np.random.default_rng(1))
    moved = fields.moved(0, 1, gone)
    # the moved member's band alone, by the rule the fields use
    reach = member_reach([gone.geometry], 0, families[0].base_radius, cube)[0, 0]
    first, stop = grid_ranges(reach, cube.min_corner, cube.side / 44, 44).T
    assert np.any(first >= stop)  # an empty band: the member adds nothing
    assert moved.fields[1] is fields.fields[1] and moved.fields[2] is fields.fields[2]
    assert_fields_match_full_kernel(moved)
    # the same member moved back restores every count
    back = moved.moved(0, 1, families[0].members[1])
    assert np.array_equal(back.fields[0], fields.fields[0])
    assert back.value().hex() == fields.value().hex()


def test_count_fields_reject_non_integer_weights():
    cube = Cube(np.zeros(2), 6.0)
    families = [
        family(0, 2, [line_through([0.0, 3.0], [1.0, 0.0])], weights=[1.5]),
        family(1, 2, [line_through([3.0, 0.0], [0.0, 1.0])]),
    ]
    with pytest.raises(ValidationError, match="not an integer"):
        CountFields.build(families, cube, 16)
    whole = [family(0, 2, [line_through([0.0, 3.0], [1.0, 0.0])], weights=[2.0]), families[1]]
    fields = CountFields.build(whole, cube, 16)
    with pytest.raises(ValidationError, match="not an integer"):
        fields.moved(1, 0, FamilyMember(line_through([2.0, 0.0], [0.0, 1.0]), 0.5))


def test_count_fields_refuse_the_cell_budget_before_allocating():
    import tracemalloc

    cube = Cube(np.zeros(2), 6.0)
    families = generate(GenSpec(2, (3, 3), SmallAngle(0.05), cube, seed=2))
    tracemalloc.start()
    try:
        with pytest.raises(CellBudgetExceeded):
            CountFields.build(families, cube, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def lw_cases(draw, dims=(2, 3, 4), margins=True):
    n = draw(st.sampled_from(dims))
    lo = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(n)])
    sides = np.array([draw(st.floats(0.5, 4.0)) for _ in range(n)])
    box = Box(lo, sides)
    # one shared cell count per axis, or each function's own
    shared = draw(st.booleans())
    cells = {2: 40, 3: 6, 4: 4}[n]
    common = [draw(st.integers(1, cells)) for _ in range(n)]
    # f_j's box covers the projected integration box, flush or with margins
    pad = [0.0, 0.3, 0.7] if margins else [0.0]
    fs = []
    for j in range(n):
        below = np.array([draw(st.sampled_from(pad)) for _ in range(n - 1)])
        above = np.array([draw(st.sampled_from(pad)) for _ in range(n - 1)])
        shape = tuple(
            project(np.array(common), j).astype(int) if shared
            else [draw(st.integers(1, cells)) for _ in range(n - 1)]
        )
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        values = rng.uniform(0.0, 2.0, shape) * (rng.uniform(size=shape) < 0.8)
        fbox = Box(project(lo, j) - below, project(sides, j) + below + above)
        fs.append(ProjectionFunction(fbox, values))
    return fs, box


def _scaled(fractions) -> tuple:
    """(integers, d): ``fractions`` times d, their least common denominator."""
    d = math.lcm(*(f.denominator for f in fractions))
    return np.array([f.numerator * (d // f.denominator) for f in fractions], dtype=object), d


def _cells(f, a) -> tuple:
    """(cells, lo, side) of ``f`` along its axis a, the last two as Fractions."""
    return f.values.shape[a], Fraction(f.box.min_corner[a]), Fraction(f.box.sides[a])


def fraction_left(fs, box) -> Fraction:
    """The left side with exact cell edges and arithmetic, and the factors' float powers.

    Along each axis the cells lie between the box's ends and the exact inner
    edges lo + i side/s of the functions that vary along it; each factor is
    looked up at a cell's exact midpoint, by the exact lookup rule.  The sum
    runs over integers scaled by the least common denominators.
    """
    n = box.n
    lo = [Fraction(x) for x in box.min_corner]
    hi = [a + Fraction(s) for a, s in zip(lo, box.sides)]
    mids, widths = [], []
    for k in range(n):
        inner = set()
        for j, f in enumerate(fs):
            if j != k:
                s, flo, fside = _cells(f, k - (j < k))
                inner.update(flo + i * fside / s for i in range(1, s))
        b = [lo[k], *sorted(e for e in inner if lo[k] < e < hi[k]), hi[k]]
        mids.append([(x + y) / 2 for x, y in zip(b, b[1:])])
        widths.append([y - x for x, y in zip(b, b[1:])])
    total, denominator = 1, 1
    for k, w in enumerate(widths):
        scaled, d = _scaled(w)
        total = total * scaled.reshape([-1 if i == k else 1 for i in range(n)])
        denominator *= d
    for j, f in enumerate(fs):
        index = []
        for a, x in enumerate(mids[:j] + mids[j + 1 :]):
            s, flo, fside = _cells(f, a)
            index.append([min(max(math.floor((m - flo) * s / fside), 0), s - 1) for m in x])
        powers = f.values[np.ix_(*index)] ** (1.0 / (n - 1))
        scaled, d = _scaled([Fraction(v) for v in powers.ravel()])
        total = total * np.expand_dims(scaled.reshape(powers.shape), j)
        denominator *= d
    return Fraction(int(np.sum(total)), denominator)


def assert_within_the_rounding_bound(check, exact: Fraction):
    bound = Fraction(check.error_estimate) * Fraction(check.right)
    assert abs(Fraction(check.left) - exact) <= bound


@PROPERTY
@given(lw_cases())
def test_lw_left_is_a_fraction_sum_within_the_rounding_bound(case):
    fs, box = case
    check = verify_lw(fs, box, GridSpec(1))
    assert_within_the_rounding_bound(check, fraction_left(fs, box))
    assert check.degenerate or check.error_estimate < 1e-10


def test_lw_left_of_ball_counts_on_64_cells_is_a_fraction_sum_within_the_rounding_bound():
    # as the bench's inputs: integer counts on 64 x 64 cells of one box
    box = Box(np.array([-8.0, -7.5, -8.25]), np.full(3, 16.0))
    rng = np.random.default_rng(3)
    fs = [ProjectionFunction(Box(project(box.min_corner, j), project(box.sides, j)),
                             rng.integers(0, 5, (64, 64)).astype(float))
          for j in range(3)]
    assert_within_the_rounding_bound(verify_lw(fs, box, GridSpec(80)), fraction_left(fs, box))


@PROPERTY
@given(lw_cases(dims=(2,), margins=False))
def test_lw_ratio_at_n2_is_1_within_the_rounding_bound(case):
    # on flush boxes both sides are ||f_0||_1 ||f_1||_1
    check = verify_lw(*case, GridSpec(1))
    assert check.degenerate or abs(check.ratio - 1.0) <= check.error_estimate


@pytest.mark.parametrize("m, n", [(1, 2), (7, 2), (300, 2), (41, 3), (131, 3), (5, 4), (26, 4)])
def test_midpoint_sum_matches_dense_blocks(m, n):
    lo = np.linspace(-1.0, 2.0, n)
    h = np.linspace(0.3, 0.1, n) / m
    full = [lo[k] + (np.arange(m) + 0.5) * h[k] for k in range(n)]

    def values(pts):
        return np.sin(pts @ np.arange(1.0, n + 1.0)) + pts[:, 0] ** 2

    scratch = threading.local()

    def integrand(axes, starts):
        for a, s, f in zip(axes, starts, full):
            assert np.array_equal(a, f[s : s + a.size])
        shape = tuple(a.size for a in axes)
        # a view of this thread's one scratch array, which its next call
        # overwrites, as the work buffers of midpoint_rule are
        if not hasattr(scratch, "values"):
            scratch.values = np.empty(BLOCK + BLOCK // 2)
        out = scratch.values[: math.prod(shape)].reshape(shape)
        out[...] = values(lattice(axes)).reshape(shape)
        return out

    want = dense_sum(values, centers(lo, h, m))
    assert midpoint_sum(integrand, lo, h, m).hex() == want.hex()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([(1, 2), (7, 2), (300, 2), (16385, 2), (56, 3), (128, 3), (131, 3),
                     (26, 4), (130, 4)]),
    st.integers(0, 10**6),
)
def test_slabs_cover_each_block_with_whole_rows(shape, pick):
    m, n = shape
    total = m**n
    start = (pick % -(-total // BLOCK)) * BLOCK
    stop = min(start + BLOCK, total)
    boxes, first = _slabs(start, stop, m, n)
    flat = np.concatenate(
        [
            np.ravel_multi_index(tuple(lattice([np.arange(a, b) for a, b in box]).T), (m,) * n)
            for box in boxes
        ]
    )
    # the boxes, in order, are one run of consecutive cells around the block
    assert np.array_equal(flat, np.arange(first, first + flat.size))
    assert first <= start and stop <= first + flat.size
    assert flat.size - (stop - start) < 2 * (BLOCK // 4)


def test_work_buffers_keep_every_value_across_interleaved_calls():
    # each thread has one set of work buffers, shared in turn by grids of one
    # box per block (m = 44, 56) and of several (m = 131, rows along axis 1)
    # and by count-field values: first on this thread, then on two threads at
    # once, which walk the grids in opposite orders
    cube = Cube(np.array([-4.0, -3.0, -5.0]), 4.0)
    families = generate(GenSpec(3, (3, 3, 3), SmallAngle(0.2), cube, seed=7, radius=1.5))
    midpoint = midpoint_rule(families, cube)
    grids = (131, 44, 56)
    fields = {m: CountFields.build(families, cube, m) for m in grids}
    want = {m: dense_overlap(families, cube, m).hex() for m in grids}
    start = threading.Barrier(2)
    got = ([], [], [])

    def call(k):
        if k:
            start.wait(timeout=60)
        for _ in range(2):
            for m in grids[:: (-1) ** k]:
                got[k].append((m, midpoint(m).hex(), fields[m].value().hex()))

    call(0)
    workers = [threading.Thread(target=call, args=(k,)) for k in (1, 2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
        assert not w.is_alive()
    for calls in got:
        assert len(calls) == 2 * len(grids)
        for m, value, field_value in calls:
            assert value == want[m] and field_value == want[m]


def test_blocks_reuse_the_work_buffers():
    # n = 3, grid 56: three blocks of 65,536 cells, each a 512 KiB array per
    # field; once this thread's buffers exist, a value allocates no block
    cube = Cube(np.full(3, -8.0), 16.0)
    families = generate(GenSpec(3, (12, 12, 12), SmallAngle(0.1), cube, seed=3))
    midpoint = midpoint_rule(families, cube)
    warm = midpoint(56)
    tracemalloc.start()
    try:
        again = midpoint(56)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.hex() == warm.hex()
    assert peak < BLOCK * 8 // 2
