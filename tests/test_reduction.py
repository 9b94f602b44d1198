import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kakeya.certifier import Constants, certify_multiscale, delta_for_epsilon
from kakeya.errors import PropertyViolation, ValidationError
from kakeya.evaluator import GridSpec, evaluate_overlap, exact_overlap_2d
from kakeya.generators import GeneralAngle, GenSpec, SmallAngle, generate
from kakeya.geometry import (
    Cap,
    Cube,
    Direction,
    LinearMap,
    Line,
    angle_from_axis,
    cap_cover,
    cap_index,
    tangent_basis,
)
from kakeya.reduction import (
    ReducedProblems,
    _net,
    _reduce_with_caps,
    reduce_general_to_small_angle,
    split_by_caps,
    transversal_reduce,
    transversal_sigma_bound,
)
from kakeya.serialization import Records, config_from_json, load_json, write_json

from conftest import axis_tube_family, cap_nets, family, line_through
from lemmas import (
    first_cap,
    line_angle,
    reduce_per_tuple,
    scalar_cap_net,
    wedge_volume,
    weighted_multiplicity_check,
)


class TestSplitByCaps:
    def test_single_covering_cap(self):
        lines = [line_through([0.0, 0.0], [1.0, 0.02]), line_through([1.0, 0.0], [1.0, -0.03])]
        f = family(0, 2, lines)
        parts = split_by_caps(f, np.array([[1.0, 0.0]]), 0.1)
        assert len(parts) == 1 and parts[0].size == f.size

    def test_counts_preserved(self, rng):
        lines = [
            line_through(rng.uniform(-2, 2, 2), [1.0, float(rng.uniform(-0.04, 0.04))])
            for _ in range(20)
        ]
        f = family(0, 2, lines)
        centers = cap_cover(Cap(Direction.axis(2, 0), 0.05), 0.01)
        parts = split_by_caps(f, centers, 0.01)
        assert sum(p.size for p in parts.values()) == 20

    def test_per_cap_homogeneity(self, rng):
        lines = [
            line_through(rng.uniform(-2, 2, 2), [1.0, float(rng.uniform(-0.04, 0.04))])
            for _ in range(20)
        ]
        f = family(0, 2, lines)
        centers = cap_cover(Cap(Direction.axis(2, 0), 0.05), 0.01)
        for i, part in split_by_caps(f, centers, 0.01).items():
            for m in part.members:
                assert line_angle(m.geometry.direction, Direction(centers[i])) <= 0.01 + 1e-12

    def test_rejects_uncovered_direction(self):
        f = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.5])])
        with pytest.raises(ValidationError):
            split_by_caps(f, np.array([[1.0, 0.0]]), 0.1)

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cap_nets(), st.integers(0, 2**16))
    def test_first_cap_matches_scalar_loop(self, case, seed):
        cap, rho = case
        n = cap.center.n
        centers = cap_cover(cap, rho)
        oracle = scalar_cap_net(cap, rho)
        # a one-cap net is the input cap, tested at its own radius
        radius = cap.ang_radius if len(oracle) == 1 else rho
        rng = np.random.default_rng(seed)
        directions = []
        for _ in range(20):
            c = oracle[rng.integers(len(oracle))].components
            v = rng.normal(size=n - 1)
            v *= rng.uniform(0.0, 1.5 * radius) / np.linalg.norm(v)
            directions.append(exp_map(c, v))
        # a few ulps either side of angle rho, and of rho + tol, from a center
        c = oracle[rng.integers(len(oracle))].components
        v = rng.normal(size=n - 1)
        for edge in (radius, radius + 1e-12):
            for k in range(-4, 5):
                directions.append(exp_map(c, v * (edge + k * math.ulp(edge)) / np.linalg.norm(v)))
        expected = [first_cap(oracle, radius, d, 1e-12) for d in directions]
        assert [cap_index(centers, d, radius + 1e-12) for d in directions] == expected
        inside = [(d, i) for d, i in zip(directions, expected) if i is not None]
        f = family(0, n, [Line(np.zeros(n), d) for d, _ in inside])
        parts = split_by_caps(f, centers, radius)
        placed = {id(m.geometry.direction): i for i, p in parts.items() for m in p.members}
        assert placed == {id(d): i for d, i in inside}


def exp_map(center: np.ndarray, v: np.ndarray) -> Direction:
    """The point at angle |v| from ``center`` along the tangent vector ``v``."""
    r = float(np.linalg.norm(v))
    unit = (v / r) @ tangent_basis(Direction(center))
    return Direction.normalized(math.cos(r) * center + math.sin(r) * unit)


class TestReduceGeneral:
    def test_already_small_angle_single_problem(self):
        eps = 3.0
        delta = delta_for_epsilon(eps, Constants.for_dimension(2))
        rho = delta / 10.0
        fams = [
            family(0, 2, [
                line_through([0.0, 0.0], [1.0, rho * 0.5]),
                line_through([1.0, 1.0], [1.0, -rho * 0.5]),
            ]),
            family(1, 2, [line_through([0.0, 0.0], [rho * 0.3, 1.0])]),
        ]
        cube = Cube.centered([0.0, 0.0], 4.0)
        problems = reduce_general_to_small_angle(fams, cube, eps)
        assert len(problems) == 1
        assert np.allclose(problems[0].map.matrix, np.eye(2), atol=1e-12)
        assert problems[0].cap_indices == (0, 0)

    def test_problem_count_bounded(self, rng):
        cube = Cube.centered([0.0, 0.0], 8.0)
        fams = generate(GenSpec(2, (6, 6), GeneralAngle(), cube, seed=2))
        problems = reduce_general_to_small_angle(fams, cube, 3.0)
        assert len(problems) <= 36

    def test_transformed_angles_and_distortions(self):
        cube = Cube.centered([0.0, 0.0], 8.0)
        fams = generate(GenSpec(2, (6, 6), GeneralAngle(), cube, seed=4))
        problems = reduce_general_to_small_angle(fams, cube, 3.0)
        for p in problems:
            lo, hi = p.map.length_distortion
            assert 0.5 <= lo <= hi <= 2.0
            assert p.map.volume_distortion <= 4.0
            assert p.distortion_factor >= 1.0
            for f in p.families:
                for m in f.members:
                    assert angle_from_axis(m.geometry.direction, f.axis) <= p.delta * (1 + 1e-9)

    def test_reassembled_bound_dominates_oracle(self):
        for seed in (1, 5, 9):
            cube = Cube.centered([0.0, 0.0], 8.0)
            fams = generate(GenSpec(2, (5, 5), GeneralAngle(), cube, seed=seed))
            problems = reduce_general_to_small_angle(fams, cube, 3.0)
            total = sum(
                p.distortion_factor * certify_multiscale(p.families, p.cube, p.delta).final_bound
                for p in problems
            )
            assert total >= exact_overlap_2d(fams, cube)

    def test_rejects_large_angles(self):
        fams = [
            family(0, 2, [line_through([0.0, 0.0], [1.0, 0.2])]),
            family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])]),
        ]
        with pytest.raises(ValidationError):
            reduce_general_to_small_angle(fams, Cube.centered([0.0, 0.0], 4.0), 3.0)

    def test_reassembled_bound_dominates_quadrature_n3(self):
        cube = Cube.centered([0.0, 0.0, 0.0], 6.0)
        fams = generate(GenSpec(3, (4, 4, 4), GeneralAngle(), cube, seed=21))
        problems = reduce_general_to_small_angle(fams, cube, 5.0)
        total = sum(
            p.distortion_factor * certify_multiscale(p.families, p.cube, p.delta).final_bound
            for p in problems
        )
        value = evaluate_overlap(fams, cube, GridSpec(96))
        assert total >= value.value


class TestTransversalReduce:
    def test_orthogonal_sets_behave_like_general(self):
        cube = Cube.centered([0.0, 0.0], 6.0)
        fams = generate(GenSpec(2, (4, 4), SmallAngle(0.03), cube, seed=7))
        caps = [Cap(Direction.axis(2, j), 0.04) for j in range(2)]
        problems = transversal_reduce(fams, cube, caps, nu=1.0, eps=3.0)
        assert problems
        for p in problems:
            assert p.distortion_factor >= 1.0
            for f in p.families:
                for m in f.members:
                    assert angle_from_axis(m.geometry.direction, f.axis) <= p.delta * (1 + 1e-9)

    def test_distortion_matches_direct_svd(self):
        cube = Cube.centered([0.0, 0.0], 6.0)
        fams = generate(GenSpec(2, (4, 4), SmallAngle(0.03), cube, seed=8))
        caps = [Cap(Direction.axis(2, j), 0.05) for j in range(2)]
        for p in transversal_reduce(fams, cube, caps, nu=0.9, eps=3.0):
            svals = np.linalg.svd(p.map.matrix, compute_uv=False)
            det = abs(np.linalg.det(p.map.matrix))
            assert abs(p.map.length_distortion[1] - svals[0]) < 1e-10
            assert abs(p.map.length_distortion[0] - svals[-1]) < 1e-10
            assert abs(p.map.volume_distortion - det) < 1e-10
            n = 2
            expected = svals[0] ** n * fams[0].base_radius**n / det
            assert abs(p.distortion_factor - expected) < 1e-9
            assert p.distortion_factor <= transversal_sigma_bound(n, 0.9) ** n

    def test_degenerate_tuple_rejected(self):
        # both families point along (nearly) the same direction: wedge ~ 0
        shared = Direction.normalized([1.0, 1.0])
        fams = [
            family(0, 2, [line_through([0.0, 0.0], shared.components)]),
            family(1, 2, [line_through([0.0, 0.0], shared.components + np.array([0.0, 1e-4]))]),
        ]
        caps = [Cap(shared, 0.01), Cap(shared, 0.01)]
        with pytest.raises(ValidationError):
            transversal_reduce(fams, Cube.centered([0.0, 0.0], 4.0), caps, nu=0.5, eps=3.0)

    def test_wedge_precondition_on_members(self):
        fams = [
            family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])]),
            family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])]),
        ]
        caps = [Cap(Direction.axis(2, 0), 0.02), Cap(Direction.axis(2, 1), 0.02)]
        problems = transversal_reduce(fams, Cube.centered([0.0, 0.0], 4.0), caps, nu=0.99, eps=3.0)
        centers = [caps[0].center, caps[1].center]
        assert wedge_volume(centers) >= 0.99 / 2


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def outcome(reduce, *args):
    """The problems, or the (type, message) of the error the reduction raised."""
    try:
        return reduce(*args)
    except (ValidationError, PropertyViolation) as exc:
        return type(exc), str(exc)


def assert_same_problems(problems, oracle):
    """Equal errors, or the same problems: every float by ``float.hex``, families member by member."""
    if isinstance(problems, tuple) or isinstance(oracle, tuple):
        assert problems == oracle
        return
    assert len(problems) == len(oracle)
    for p, q in zip(problems, oracle):
        assert p.cap_indices == q.cap_indices and p.delta == q.delta
        assert hexes(p.map.matrix) == hexes(q.map.matrix)
        assert hexes(p.map.length_distortion) == hexes(q.map.length_distortion)
        assert hexes(p.map.volume_distortion) == hexes(q.map.volume_distortion)
        assert hexes(p.distortion_factor) == hexes(q.distortion_factor)
        assert hexes(p.cube.min_corner) == hexes(q.cube.min_corner)
        assert hexes(p.cube.side) == hexes(q.cube.side)
        assert len(p.families) == len(q.families)
        for f, g in zip(p.families, q.families):
            assert (f.axis, f.dim, f.base_radius, f.size) == (g.axis, g.dim, g.base_radius, g.size)
            for a, b in zip(f.members, g.members):
                assert hexes(a.geometry.anchor) == hexes(b.geometry.anchor)
                assert hexes(a.geometry.direction.components) == hexes(
                    b.geometry.direction.components
                )
                assert a.weight == b.weight


def problem_records(problems) -> list:
    """The JSON records that ``reduce`` writes for ``problems``, read back."""
    fh = io.StringIO()
    write_json(Records.from_columns(problems.columns()), fh)
    return json.loads(fh.getvalue())


def general_nets(n: int, eps: float):
    """(nets, delta) of ``reduce_general_to_small_angle``."""
    delta = delta_for_epsilon(eps, Constants.for_dimension(n))
    limit = 1.0 / (10.0 * n)
    return [_net(Cap(Direction.axis(n, j), limit), min(delta / 10.0, limit)) for j in range(n)], delta


def transversal_nets(caps, nu: float, eps: float):
    """(nets, delta) of ``transversal_reduce``."""
    n = len(caps)
    delta = delta_for_epsilon(eps, Constants.for_dimension(n))
    rho = min(nu / (100.0 * n), delta / (2.0 * transversal_sigma_bound(n, nu)))
    return [_net(cap, min(rho, cap.ang_radius)) for cap in caps], delta


def cap_family(axis: int, cap: Cap, count: int, cube: Cube, rng):
    """``count`` tubes with directions inside ``cap`` and anchors in ``cube``."""
    n = cap.center.n
    lines = []
    for _ in range(count):
        v = rng.normal(size=n - 1)
        v *= rng.uniform(0.0, 0.999 * cap.ang_radius) / np.linalg.norm(v)
        anchor = cube.min_corner + cube.side * rng.uniform(size=n)
        lines.append(Line(anchor, exp_map(cap.center.components, v)))
    return family(axis, n, lines)


@st.composite
def reduction_cases(draw):
    """(reduce, args, oracle_args): a general n=2 or n=3 run, a transversal n=2
    run, or an n=2 run whose caps are too wide for delta, so that some mapped
    angles fail; ``reduce_per_tuple(*oracle_args)`` is the same run per tuple."""
    kind = draw(st.sampled_from(["general2", "general3", "wedge2", "wide2"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = 3 if kind == "general3" else 2
    cube = Cube.centered(np.zeros(n), draw(st.sampled_from([4.0, 8.0])))
    counts = tuple(draw(st.integers(1, 3 if n == 3 else 5)) for _ in range(n))
    if kind == "wedge2":
        # centers near the axes, or near one shared direction (small wedges)
        base = np.ones((n, n)) if draw(st.booleans()) else np.eye(n)
        tilt = draw(st.sampled_from([0.0, 0.3, 0.8]))
        caps = [
            Cap(Direction.normalized(base[j] + tilt * rng.normal(size=n)),
                draw(st.sampled_from([0.02, 0.05])))
            for j in range(n)
        ]
        fams = [cap_family(j, caps[j], counts[j], cube, rng) for j in range(n)]
        nu = draw(st.sampled_from([0.3, 0.6, 1.0]))
        eps = draw(st.sampled_from([2.5, 3.0]))
        nets, delta = transversal_nets(caps, nu, eps)
        return transversal_reduce, (fams, cube, caps, nu, eps), (fams, cube, nets, delta, nu)
    radius = draw(st.sampled_from([1.0, 0.7]))
    fams = generate(GenSpec(n, counts, GeneralAngle(), cube, seed=seed, radius=radius))
    eps = draw(st.sampled_from([3.75, 5.0] if n == 3 else [2.5, 3.0, 3.75]))
    if kind == "wide2":
        delta = draw(st.sampled_from([0.005, 0.02, 0.05]))
        rho = draw(st.sampled_from([0.01, 0.02]))
        nets = [_net(Cap(Direction.axis(n, j), 0.05), rho) for j in range(n)]
        return _reduce_with_caps, (fams, cube, nets, delta), (fams, cube, nets, delta)
    nets, delta = general_nets(n, eps)
    return reduce_general_to_small_angle, (fams, cube, eps), (fams, cube, nets, delta)


class TestBatchedReduction:
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(reduction_cases())
    def test_matches_the_per_tuple_oracle(self, case):
        reduce, args, oracle_args = case
        assert_same_problems(outcome(reduce, *args), outcome(reduce_per_tuple, *oracle_args))

    def test_families_are_built_on_first_read_only(self):
        cube = Cube.centered([0.0, 0.0], 8.0)
        fams = generate(GenSpec(2, (3, 3), GeneralAngle(), cube, seed=3))
        problems = reduce_general_to_small_angle(fams, cube, 3.0)
        p = problems[0]
        assert "families" not in vars(p)
        assert p.families is p.families
        assert problem_records(problems)[0]["member_counts"] == [f.size for f in p.families]

    def test_a_family_without_members_gives_an_empty_stack(self):
        cube = Cube.centered([0.0, 0.0, 0.0], 8.0)
        fams = generate(GenSpec(3, (2, 2, 2), GeneralAngle(), cube, seed=4))
        fams[1] = family(1, 3, [])
        nets, delta = general_nets(3, 3.75)
        problems = _reduce_with_caps(fams, cube, nets, delta)
        assert isinstance(problems, ReducedProblems) and len(problems) == 0
        assert list(problems) == reduce_per_tuple(fams, cube, nets, delta) == []
        assert problems.matrices.shape == (0, 3, 3) and problem_records(problems) == []

    def test_reduce_builds_no_map_cube_or_mapped_member(self, monkeypatch):
        golden = Path(__file__).resolve().parent / "golden"
        config = config_from_json(load_json(golden / "general_n3.config.json"))
        built = Counter()
        for cls in (LinearMap, Cube, Direction):
            def counted(self, build=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                build(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        problems = reduce_general_to_small_angle(config.families, config.cube, 3.75)
        rows = problem_records(problems)
        # the one Direction per axis is the center of that axis's whole cap
        assert len(problems) > 1 and built == Counter(Direction=config.n)
        for p, row in zip(problems, rows):
            assert row["matrix"] == p.map.matrix.tolist()
            assert row["length_distortion"] == list(p.map.length_distortion)
            assert row["volume_distortion"] == p.map.volume_distortion
            assert row["cube"] == {"min_corner": p.cube.min_corner.tolist(), "side": p.cube.side}
        assert built["LinearMap"] == built["Cube"] == len(problems)

    def test_a_cube_mapped_past_the_float_range_fails_as_the_walk_does(self):
        cube = Cube.centered([0.0, 0.0], 8.0)
        fams = generate(GenSpec(2, (4, 4), GeneralAngle(), cube, seed=5))
        nets, delta = general_nets(2, 3.0)
        far = Cube(np.array([-1.79e308, -1.79e308]), 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite coordinates"):
                _reduce_with_caps(fams, far, nets, delta)
            with pytest.raises(ValueError, match="non-finite coordinates"):
                reduce_per_tuple(fams, far, nets, delta)

    @staticmethod
    def order_case(wedge_first: bool):
        """Axis 0's net holds e_0 and u, 1.3 rad from e_0; axis 1's holds e_1.

        The tuple (u, e_1) has center wedge cos 1.3 < 0.9/2, and under the
        identity frame (e_0, e_1) a member at 0.3 rad from e_0 exceeds delta.
        """
        u = [math.cos(1.3), math.sin(1.3)]
        rows = [u, [1.0, 0.0]] if wedge_first else [[1.0, 0.0], u]
        nets = [(np.array(rows), 0.5), (np.array([[0.0, 1.0]]), 0.5)]
        fams = [
            family(0, 2, [
                line_through([0.0, 0.0], [math.cos(0.3), math.sin(0.3)]),
                line_through([0.0, 1.0], u),
            ]),
            family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])]),
        ]
        return fams, Cube.centered([0.0, 0.0], 4.0), nets, 0.03, 0.9

    def test_wedge_on_an_earlier_tuple_than_the_angle_fails_first(self):
        args = self.order_case(wedge_first=True)
        with pytest.raises(ValidationError, match=r"cap tuple \(0, 0\) has center wedge 2\.675e-01"):
            _reduce_with_caps(*args)
        assert outcome(_reduce_with_caps, *args) == outcome(reduce_per_tuple, *args)

    def test_angle_on_an_earlier_tuple_than_the_wedge_fails_first(self):
        args = self.order_case(wedge_first=False)
        with pytest.raises(PropertyViolation, match="transformed angle 3.000e-01 exceeds delta"):
            _reduce_with_caps(*args)
        assert outcome(_reduce_with_caps, *args) == outcome(reduce_per_tuple, *args)

    def test_first_axis_reports_on_a_shared_tuple(self):
        fams = [
            family(0, 2, [line_through([0.0, 0.0], [math.cos(0.3), math.sin(0.3)])]),
            family(1, 2, [line_through([0.0, 0.0], [math.sin(0.2), math.cos(0.2)])]),
        ]
        nets = [(np.eye(2)[j : j + 1], 0.5) for j in range(2)]
        with pytest.raises(PropertyViolation, match="transformed angle 3.000e-01"):
            _reduce_with_caps(fams, Cube.centered([0.0, 0.0], 4.0), nets, 0.03)

    @pytest.mark.parametrize("excess, passes", [(1e-10, True), (1e-8, False)])
    def test_angles_pass_within_the_relative_slack(self, excess, passes):
        delta = 0.03
        angle = delta * (1.0 + excess)
        fams = [
            family(0, 2, [line_through([0.0, 0.0], [math.cos(angle), math.sin(angle)])]),
            family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])]),
        ]
        nets = [(np.eye(2)[j : j + 1], 0.5) for j in range(2)]
        args = (fams, Cube.centered([0.0, 0.0], 4.0), nets, delta)
        result = outcome(_reduce_with_caps, *args)
        assert isinstance(result, ReducedProblems) == passes
        assert_same_problems(result, outcome(reduce_per_tuple, *args))

    def test_wedge_is_tested_before_a_singular_frame(self):
        d = [1.0, 3e-13]
        fams = [
            family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])]),
            family(1, 2, [line_through([0.0, 0.0], d)]),
        ]
        nets = [(np.array([[1.0, 0.0]]), 1e-17), (np.array([d]), 1e-17)]
        cube = Cube.centered([0.0, 0.0], 4.0)
        for nu, message in [(1e-12, "center wedge 3.000e-13 < nu/2"),
                            (1e-13, "singular frame: |det| = 3.000e-13"),
                            (None, "singular frame: |det| = 3.000e-13")]:
            args = (fams, cube, nets, 0.03, nu)
            err = outcome(_reduce_with_caps, *args)
            assert err == outcome(reduce_per_tuple, *args)
            assert err[0] is ValidationError and message in err[1]


class TestWeightedMultiplicity:
    def test_unit_weights_trivially_equal(self, cube2, rng):
        anchors = rng.uniform(-4, 4, (3, 2))
        fams = [axis_tube_family(j, 2, anchors) for j in range(2)]
        assert weighted_multiplicity_check(fams, cube2, GridSpec(64))

    def test_weight_three_vs_copies(self, cube2, rng):
        anchors = rng.uniform(-4, 4, (2, 2))
        fams = [
            axis_tube_family(0, 2, anchors, weights=[3.0, 2.0]),
            axis_tube_family(1, 2, anchors, weights=[1.0, 5.0]),
        ]
        assert weighted_multiplicity_check(fams, cube2, GridSpec(64))

    def test_rational_weights_scale(self, cube2, rng):
        # weights p/q: scaling family j by q multiplies the value by
        # q^(1/(n-1)); compare against the integer-weight expansion
        anchors = rng.uniform(-4, 4, (2, 2))
        q = 4.0
        rational = [
            axis_tube_family(0, 2, anchors, weights=[3.0 / q, 2.0 / q]),
            axis_tube_family(1, 2, anchors),
        ]
        integer = [
            axis_tube_family(0, 2, anchors, weights=[3.0, 2.0]),
            axis_tube_family(1, 2, anchors),
        ]
        g = GridSpec(64)
        v_rat = evaluate_overlap(rational, cube2, g).value
        v_int = evaluate_overlap(integer, cube2, g).value
        assert v_rat * q == v_int

    def test_rejects_non_integer(self, cube2, rng):
        anchors = rng.uniform(-4, 4, (2, 2))
        fams = [
            axis_tube_family(0, 2, anchors, weights=[1.5, 2.0]),
            axis_tube_family(1, 2, anchors),
        ]
        with pytest.raises(ValidationError):
            weighted_multiplicity_check(fams, cube2, GridSpec(32))
