import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kakeya.certifier import Constants, certify_multiscale, delta_for_epsilon
from kakeya.errors import ValidationError
from kakeya.evaluator import GridSpec, evaluate_overlap, exact_overlap_2d
from kakeya.generators import GeneralAngle, GenSpec, SmallAngle, generate
from kakeya.geometry import (
    Cap,
    Cube,
    Direction,
    Line,
    Tube,
    angle_from_axis,
    cap_cover,
    cap_index,
    tangent_basis,
    wedge_volume,
)
from kakeya.reduction import (
    reduce_general_to_small_angle,
    split_by_caps,
    transversal_reduce,
    transversal_sigma_bound,
)

from conftest import axis_tube_family, cap_nets, family, tube
from lemmas import first_cap, line_angle, scalar_cap_net, weighted_multiplicity_check


class TestSplitByCaps:
    def test_single_covering_cap(self):
        f = family(0, 2, [tube([0.0, 0.0], [1.0, 0.02]), tube([1.0, 0.0], [1.0, -0.03])])
        parts = split_by_caps(f, np.array([[1.0, 0.0]]), 0.1)
        assert len(parts) == 1 and parts[0].size == f.size

    def test_counts_preserved(self, rng):
        tubes = [
            tube(rng.uniform(-2, 2, 2), [1.0, float(rng.uniform(-0.04, 0.04))])
            for _ in range(20)
        ]
        f = family(0, 2, tubes)
        centers = cap_cover(Cap(Direction.axis(2, 0), 0.05), 0.01)
        parts = split_by_caps(f, centers, 0.01)
        assert sum(p.size for p in parts.values()) == 20

    def test_per_cap_homogeneity(self, rng):
        tubes = [
            tube(rng.uniform(-2, 2, 2), [1.0, float(rng.uniform(-0.04, 0.04))])
            for _ in range(20)
        ]
        f = family(0, 2, tubes)
        centers = cap_cover(Cap(Direction.axis(2, 0), 0.05), 0.01)
        for i, part in split_by_caps(f, centers, 0.01).items():
            for m in part.members:
                assert line_angle(m.geometry.line.direction, Direction(centers[i])) <= 0.01 + 1e-12

    def test_rejects_uncovered_direction(self):
        f = family(0, 2, [tube([0.0, 0.0], [1.0, 0.5])])
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
        f = family(0, n, [Tube(Line(np.zeros(n), d), 1.0) for d, _ in inside])
        parts = split_by_caps(f, centers, radius)
        placed = {id(m.geometry.line.direction): i for i, p in parts.items() for m in p.members}
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
            family(0, 2, [tube([0.0, 0.0], [1.0, rho * 0.5]), tube([1.0, 1.0], [1.0, -rho * 0.5])]),
            family(1, 2, [tube([0.0, 0.0], [rho * 0.3, 1.0])]),
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
                    assert angle_from_axis(m.geometry.line.direction, f.axis) <= p.delta * (1 + 1e-9)

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
            family(0, 2, [tube([0.0, 0.0], [1.0, 0.2])]),
            family(1, 2, [tube([0.0, 0.0], [0.0, 1.0])]),
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
                    assert angle_from_axis(m.geometry.line.direction, f.axis) <= p.delta * (1 + 1e-9)

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
            family(0, 2, [tube([0.0, 0.0], shared.components)]),
            family(1, 2, [tube([0.0, 0.0], shared.components + np.array([0.0, 1e-4]))]),
        ]
        caps = [Cap(shared, 0.01), Cap(shared, 0.01)]
        with pytest.raises(ValidationError):
            transversal_reduce(fams, Cube.centered([0.0, 0.0], 4.0), caps, nu=0.5, eps=3.0)

    def test_wedge_precondition_on_members(self):
        fams = [
            family(0, 2, [tube([0.0, 0.0], [1.0, 0.0])]),
            family(1, 2, [tube([0.0, 0.0], [0.0, 1.0])]),
        ]
        caps = [Cap(Direction.axis(2, 0), 0.02), Cap(Direction.axis(2, 1), 0.02)]
        problems = transversal_reduce(fams, Cube.centered([0.0, 0.0], 4.0), caps, nu=0.99, eps=3.0)
        centers = [caps[0].center, caps[1].center]
        assert wedge_volume(centers) >= 0.99 / 2


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
