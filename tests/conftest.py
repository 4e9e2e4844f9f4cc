import dataclasses
import math

import pytest

from bandforge import gluing, tri as tri_module
from bandforge.fixtures import fixture_text, load_fixture
from bandforge.gluing import build_equations, newton_solve
from bandforge.tri import CuspInfo


def filled(tri, cusp, m, l):
    """`tri` with cusp `cusp` filled along (m, l), or complete at (0, 0)."""
    cusps = list(tri.cusps)
    cusps[cusp] = CuspInfo(float(m), float(l))
    return dataclasses.replace(tri, cusps=tuple(cusps))


def forget_frames():
    """Empty the per-triangulation frames and the relation eliminations, so
    the next system is built and its rows chosen from nothing."""
    for memo in (tri_module._verdict, gluing._slope_free_rows, gluing._weights, gluing._dropped):
        memo.cache_clear()


def sheared(tri, k):
    """`tri` with each meridian moved to meridian + k longitude: as wide as
    k, and still closed, matched and meeting the longitude once."""
    return dataclasses.replace(tri, tets=tuple(dataclasses.replace(t, peripheral=(
        tuple(x + k * y for x, y in zip(*t.peripheral)), t.peripheral[1]))
        for t in tri.tets))


def box_row(z, r):
    """The box z +- r as a row (re.lo, re.hi, im.lo, im.hi): each corner in
    floats, then one float outward.  A scalar reference for the rows that
    `krawczyk_test` forms with numpy."""
    z = complex(z)
    return (math.nextafter(z.real - r, -math.inf), math.nextafter(z.real + r, math.inf),
            math.nextafter(z.imag - r, -math.inf), math.nextafter(z.imag + r, math.inf))


def meet(a, b):
    """The row of the box a & b, or None when they are disjoint."""
    row = (max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3]))
    return row if row[0] <= row[1] and row[2] <= row[3] else None


def holds(row, z):
    """Whether the box `row` holds the point z."""
    return row[0] <= z.real <= row[1] and row[2] <= z.imag <= row[3]


@pytest.fixture(scope="session")
def tri_a():
    return load_fixture("A")


@pytest.fixture(scope="session")
def tri_b():
    return load_fixture("B")


@pytest.fixture(scope="session")
def text_a():
    return fixture_text("A")


@pytest.fixture(scope="session")
def text_b():
    return fixture_text("B")


@pytest.fixture(scope="session")
def solved_a(tri_a):
    sys_ = build_equations(tri_a)
    return sys_, newton_solve(sys_, [t.shape_hint for t in tri_a.tets])


@pytest.fixture(scope="session")
def solved_b(tri_b):
    sys_ = build_equations(tri_b)
    return sys_, newton_solve(sys_, [t.shape_hint for t in tri_b.tets])
