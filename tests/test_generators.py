import json

import numpy as np
import pytest

from kakeya.errors import ValidationError
from kakeya.evaluator import exact_overlap_2d
from kakeya.generators import (
    AxisParallel,
    GeneralAngle,
    GenSpec,
    Lipschitz,
    SmallAngle,
    Weighted,
    _axis_frame,
    generate,
)
from kakeya.geometry import (
    Cube,
    Direction,
    Line,
    LipschitzCurve,
    angle_from_axis,
    tangent_basis,
)
from kakeya.serialization import Configuration, config_to_json

from lemmas import enumerate_grid_axis_parallel


def spec_json(spec):
    fams = generate(spec)
    return json.dumps(config_to_json(Configuration(spec.n, spec.cube, tuple(fams))))


CUBE = Cube.centered([0.0, 0.0], 10.0)


class TestDeterminism:
    def test_identical_seeds_bitwise(self):
        spec = GenSpec(2, (5, 5), SmallAngle(0.1), CUBE, seed=99)
        assert spec_json(spec) == spec_json(spec)

    def test_different_seeds_differ(self):
        a = GenSpec(2, (5, 5), SmallAngle(0.1), CUBE, seed=1)
        b = GenSpec(2, (5, 5), SmallAngle(0.1), CUBE, seed=2)
        assert spec_json(a) != spec_json(b)

    def test_all_regimes_deterministic(self):
        cube3 = Cube.centered([0.0, 0.0, 0.0], 8.0)
        regimes = [
            AxisParallel(),
            SmallAngle(0.05),
            GeneralAngle(),
            Lipschitz(0.05, 5),
            Weighted(0.5, 2.0, 0.05),
        ]
        for regime in regimes:
            spec = GenSpec(3, (3, 3, 3), regime, cube3, seed=13)
            assert spec_json(spec) == spec_json(spec)


    @pytest.mark.parametrize("n, axis", [(2, 0), (2, 1), (3, 1), (4, 3)])
    def test_axis_frame_built_once_and_read_only(self, n, axis):
        center, basis = _axis_frame(n, axis)
        assert _axis_frame(n, axis)[1] is basis
        assert np.array_equal(center.components, np.eye(n)[axis])
        assert np.array_equal(basis, tangent_basis(Direction.axis(n, axis)))
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0


class TestRegimeValidity:
    def test_small_angle_bound(self):
        spec = GenSpec(3, (20, 20, 20), SmallAngle(0.07), Cube.centered([0.0] * 3, 8.0), seed=3)
        for f in generate(spec):
            for m in f.members:
                assert angle_from_axis(m.geometry.direction, f.axis) <= 0.07 + 1e-12

    def test_general_angle_bound(self):
        spec = GenSpec(2, (30, 30), GeneralAngle(), CUBE, seed=4)
        for f in generate(spec):
            for m in f.members:
                assert angle_from_axis(m.geometry.direction, f.axis) <= 1.0 / 20 + 1e-12

    def test_axis_parallel_exact(self):
        spec = GenSpec(2, (10, 10), AxisParallel(), CUBE, seed=5)
        for f in generate(spec):
            for m in f.members:
                assert angle_from_axis(m.geometry.direction, f.axis) == 0.0

    def test_anchors_inside_cube(self):
        spec = GenSpec(2, (25, 25), SmallAngle(0.1), CUBE, seed=6)
        for f in generate(spec):
            for m in f.members:
                anchor = m.geometry.anchor
                assert np.all(CUBE.min_corner <= anchor) and np.all(anchor <= CUBE.max_corner)

    def test_lipschitz_members_valid(self):
        spec = GenSpec(2, (8, 8), Lipschitz(0.05, 6), CUBE, seed=7)
        for f in generate(spec):
            for m in f.members:
                g = m.geometry
                assert isinstance(g, LipschitzCurve)
                assert g.lip == 0.05  # constructor validates segment slopes
                assert g.covers_interval(CUBE.min_corner[g.axis], CUBE.min_corner[g.axis] + CUBE.side)

    def test_weighted_range(self):
        spec = GenSpec(2, (15, 15), Weighted(0.5, 2.5, 0.1), CUBE, seed=8)
        for f in generate(spec):
            for m in f.members:
                assert 0.5 <= m.weight <= 2.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            GenSpec(2, (3,), SmallAngle(0.1), CUBE, seed=0)
        with pytest.raises(ValidationError):
            GenSpec(2, (3, 3), SmallAngle(1.5), CUBE, seed=0)


class TestGridEnumeration:
    def test_single_tube_per_axis(self):
        fams = enumerate_grid_axis_parallel(2, 1, 4.0)
        assert [f.size for f in fams] == [1, 1]
        assert all(isinstance(m.geometry, Line) for f in fams for m in f.members)

    def test_disjoint_grid_exact_value(self):
        # n=2, k=3, spacing 4: nine 2x2 crossing squares, integral 36
        fams = enumerate_grid_axis_parallel(2, 3, 4.0)
        cube = Cube.centered([0.0, 0.0], 13.0)
        assert abs(exact_overlap_2d(fams, cube) - 36.0) < 1e-12

    def test_projected_anchors_distinct(self):
        fams = enumerate_grid_axis_parallel(3, 3, 2.0)
        for f in fams:
            projected = {
                tuple(np.delete(m.geometry.anchor, f.axis)) for m in f.members
            }
            assert len(projected) == f.size == 9
