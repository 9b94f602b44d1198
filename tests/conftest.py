import numpy as np
import pytest
from hypothesis import strategies as st

from kakeya import evaluator
from kakeya.evaluator import FamilyMember, TubeFamily
from kakeya.geometry import Cap, Cube, Direction, Line, LipschitzCurve


def line_through(anchor, direction):
    """The core line of a tube: its radius is the radius of the family that holds it."""
    return Line(np.asarray(anchor, dtype=float), Direction.normalized(direction))


def family(axis, dim, geometries, radius=1.0, weights=None):
    members = tuple(
        FamilyMember(g, 1.0 if weights is None else weights[i])
        for i, g in enumerate(geometries)
    )
    return TubeFamily(axis, dim, members, radius)


def axis_tube_family(axis, dim, anchors, radius=1.0, weights=None):
    lines = [line_through(a, Direction.axis(dim, axis).components) for a in anchors]
    return family(axis, dim, lines, radius, weights)


def shifted(family: TubeFamily, offsets) -> TubeFamily:
    """The family with each member moved across its axis by a row of ``offsets``."""
    members = []
    for member, off in zip(family.members, offsets):
        g = member.geometry
        off = np.where(np.arange(family.dim) == family.axis, 0.0, off)
        if isinstance(g, Line):
            g = Line(g.anchor + off, g.direction)
        else:
            g = LipschitzCurve(g.axis, g.breakpoints, g.values + np.delete(off, g.axis), g.lip)
        members.append(FamilyMember(g, member.weight))
    return TubeFamily(family.axis, family.dim, tuple(members), family.base_radius)


def count_midpoint_sums(monkeypatch) -> list:
    """Record the grid size m of every ``evaluator.midpoint_sum`` call."""
    calls = []
    kernel = evaluator.midpoint_sum

    def counted(integrand, lo, h, m):
        calls.append(m)
        return kernel(integrand, lo, h, m)

    monkeypatch.setattr(evaluator, "midpoint_sum", counted)
    return calls


@st.composite
def cap_nets(draw):
    """(cap, rho): n = 2..4, a center on an axis or tilted off it (like a
    ``direction_sets`` cap), rho from within 1e-12 of the radius down to 1/6 of it."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    tilt = draw(st.sampled_from([0.0, 0.1, 0.4]))
    axis = Direction.axis(n, draw(st.integers(0, n - 1))).components
    center = Direction.normalized(axis + tilt * rng.normal(size=n))
    big_r = draw(st.sampled_from([1.0 / 30.0, 0.05, 0.1, 0.3]))
    ratio = draw(st.sampled_from([1.0 - 5e-13, 1.0, 1.0 + 5e-13, 1.0 + 2e-12, 1.5, 2.0, 3.3, 6.0]))
    return Cap(center, big_r), big_r / ratio


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cube2():
    return Cube.centered([0.0, 0.0], 10.0)


@pytest.fixture
def perpendicular_families(cube2):
    f1 = family(0, 2, [line_through([0.0, 0.0], [1.0, 0.0])])
    f2 = family(1, 2, [line_through([0.0, 0.0], [0.0, 1.0])])
    return [f1, f2]
