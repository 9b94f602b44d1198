import numpy as np
import pytest

from kakeya import evaluator
from kakeya.evaluator import FamilyMember, TubeFamily
from kakeya.geometry import Cube, Direction, Line, Tube


def tube(anchor, direction, radius=1.0):
    return Tube(Line(np.asarray(anchor, dtype=float), Direction.normalized(direction)), radius)


def family(axis, dim, geometries, radius=1.0, weights=None):
    members = tuple(
        FamilyMember(g, 1.0 if weights is None else weights[i])
        for i, g in enumerate(geometries)
    )
    return TubeFamily(axis, dim, members, radius)


def axis_tube_family(axis, dim, anchors, radius=1.0, weights=None):
    tubes = [tube(a, Direction.axis(dim, axis).components, radius) for a in anchors]
    return family(axis, dim, tubes, radius, weights)


def count_midpoint_sums(monkeypatch) -> list:
    """Record the grid size m of every ``evaluator.midpoint_sum`` call."""
    calls = []
    kernel = evaluator.midpoint_sum

    def counted(integrand, lo, h, m, threads=1):
        calls.append(m)
        return kernel(integrand, lo, h, m, threads)

    monkeypatch.setattr(evaluator, "midpoint_sum", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cube2():
    return Cube.centered([0.0, 0.0], 10.0)


@pytest.fixture
def perpendicular_families(cube2):
    f1 = family(0, 2, [tube([0.0, 0.0], [1.0, 0.0])])
    f2 = family(1, 2, [tube([0.0, 0.0], [0.0, 1.0])])
    return [f1, f2]
