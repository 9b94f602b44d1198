"""The banded slab kernel against the dense block sums it replaced, bit for bit.

The dense reference walks the flat C-order cells in blocks of 65,536, sums
the pointwise integrand of each block with ``np.sum`` and folds the block
sums with ``math.fsum``; the kernel must give the same float, compared by
``float.hex``.
"""

import math
import threading
import tracemalloc

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
from kakeya.loomis_whitney import Box, ProjectionFunction, _left_midpoint, project, verify_lw

from conftest import family, line_through, shifted
from lemmas import lookup, overlap_integrand

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


def dense_lw_left(fs, box, m) -> float:
    n = box.n
    p = 1.0 / (n - 1)
    h = box.sides / m

    def values(pts):
        vals = np.ones(pts.shape[0])
        for j in range(n):
            fj = lookup(fs[j], project(pts, j))
            vals *= fj if p == 1.0 else np.power(fj, p)
        return vals

    return float(np.prod(h)) * dense_sum(values, centers(box.min_corner, h, m))


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
    for threads in (1, 2):
        got = midpoint(m, threads)
        got_err = abs(got - midpoint(m // 2, threads)) if m % 2 == 0 else None
        assert got.hex() == value.hex()
        if err is None:
            assert got_err is None
        else:
            assert got_err.hex() == err.hex()


def test_overlap_matches_dense_on_row_slabs():
    # 131^2 cells per axis-0 index exceed the slab row limit, so the slabs
    # are rows along axis 1 grouped by their axis-0 index
    cube = Cube(np.array([-4.0, -3.0, -5.0]), 4.0)
    families = generate(GenSpec(3, (3, 3, 3), SmallAngle(0.2), cube, seed=7, radius=1.5))
    got = evaluate_overlap(families, cube, GridSpec(131), threads=2)
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
    return families, cube, m, moves, draw(st.sampled_from([1, 2])), rng


def assert_fields_match_full_kernel(fields: CountFields, threads: int) -> None:
    full = midpoint_rule(fields.families, fields.cube)(fields.m, threads)
    assert fields.value(threads).hex() == full.hex()
    rebuilt = CountFields.build(fields.families, fields.cube, fields.m)
    for got, want in zip(fields.fields, rebuilt.fields):
        assert np.array_equal(got, want)


@settings(PROPERTY, max_examples=40)
@given(move_cases())
def test_count_fields_match_full_kernel_after_each_move(case):
    families, cube, m, moves, threads, rng = case
    fields = CountFields.build(families, cube, m)
    assert_fields_match_full_kernel(fields, threads)
    for j, a, offset in moves:
        member = moved_member(fields.families[j].members[a], j, offset, rng)
        fields = fields.moved(j, a, member)
        assert_fields_match_full_kernel(fields, threads)


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
    for threads in (1, 2):
        assert_fields_match_full_kernel(moved, threads)
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
def lw_cases(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    lo = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(n)])
    sides = np.array([draw(st.floats(0.5, 4.0)) for _ in range(n)])
    box = Box(lo, sides)
    fs = []
    for j in range(n):
        # f_j's box covers the projected integration box, flush or with margins
        below = np.array([draw(st.sampled_from([0.0, 0.3])) for _ in range(n - 1)])
        above = np.array([draw(st.sampled_from([0.0, 0.7])) for _ in range(n - 1)])
        shape = tuple(draw(st.integers(1, 5)) for _ in range(n - 1))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        values = rng.uniform(0.0, 2.0, shape) * (rng.uniform(size=shape) < 0.8)
        fbox = Box(project(lo, j) - below, project(sides, j) + below + above)
        fs.append(ProjectionFunction(fbox, values))
    # small grids, and grids of two or three blocks
    m = draw(
        st.one_of(
            {2: st.integers(1, 64), 3: st.integers(1, 20), 4: st.integers(1, 8)}[n],
            {2: st.integers(257, 400), 3: st.integers(41, 56), 4: st.integers(17, 20)}[n],
        )
    )
    return fs, box, m


@PROPERTY
@given(lw_cases())
def test_lw_left_matches_pointwise_lookup_bit_for_bit(case):
    fs, box, m = case
    assert verify_lw(fs, box, GridSpec(m)).left.hex() == dense_lw_left(fs, box, m).hex()


# grids of one box per block and of several (n = 4, m >= 26; n = 3, m = 131),
# with function cell counts other than m
@pytest.mark.parametrize(
    "n, m, cells",
    [(2, 1, (3,)), (2, 300, (7,)), (3, 41, (5, 9)), (3, 80, (64, 64)), (3, 131, (4, 6)),
     (4, 5, (2, 3, 1)), (4, 26, (3, 4, 2)), (4, 27, (5, 1, 6))],
)
def test_left_midpoint_matches_dense_lookups_bit_for_bit(n, m, cells):
    rng = np.random.default_rng(n * 1000 + m)
    box = Box(rng.uniform(-3.0, 3.0, n), rng.uniform(0.5, 4.0, n))
    fs = []
    for j in range(n):
        # f_j's box covers the projected integration box with margins below and above
        below, above = rng.uniform(0.0, 0.5, (2, n - 1))
        fbox = Box(project(box.min_corner, j) - below, project(box.sides, j) + below + above)
        values = rng.uniform(0.0, 2.0, cells) * (rng.uniform(size=cells) < 0.8)
        fs.append(ProjectionFunction(fbox, values))
    assert _left_midpoint(fs, box, m).hex() == dense_lw_left(fs, box, m).hex()


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
    assert midpoint_sum(integrand, lo, h, m, threads=2).hex() == want.hex()


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
    # one process, so one set of work buffers per thread, shared in turn by
    # grids of one box per block (m = 44) and of several (m = 131, rows along
    # axis 1), on one thread and on a pool's, between count-field values and
    # Loomis-Whitney left sides of several boxes per block (n = 4, m = 26)
    cube = Cube(np.array([-4.0, -3.0, -5.0]), 4.0)
    families = generate(GenSpec(3, (3, 3, 3), SmallAngle(0.2), cube, seed=7, radius=1.5))
    midpoint = midpoint_rule(families, cube)
    fields = CountFields.build(families, cube, 44)
    box = Box(np.zeros(4), np.array([1.0, 2.0, 1.5, 0.5]))
    rng = np.random.default_rng(5)
    fs = [ProjectionFunction(Box(project(box.min_corner, j), project(box.sides, j)),
                             rng.uniform(0.0, 2.0, (3, 4, 2)))
          for j in range(4)]
    want = {m: dense_overlap(families, cube, m).hex() for m in (44, 131)}
    lw_want = dense_lw_left(fs, box, 26).hex()
    for threads in (1, 2, 1):
        for m in (131, 44):
            assert midpoint(m, threads).hex() == want[m]
            assert fields.value(threads).hex() == want[44]
            assert verify_lw(fs, box, GridSpec(26)).left.hex() == lw_want


def test_blocks_reuse_the_work_buffers():
    # n = 3, grid 56: three blocks of 65,536 cells, each a 512 KiB array per
    # field; once this thread's buffers exist, a value allocates no block
    cube = Cube(np.full(3, -8.0), 16.0)
    families = generate(GenSpec(3, (12, 12, 12), SmallAngle(0.1), cube, seed=3))
    midpoint = midpoint_rule(families, cube)
    warm = midpoint(56, 1)
    tracemalloc.start()
    try:
        again = midpoint(56, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.hex() == warm.hex()
    assert peak < BLOCK * 8 // 2
