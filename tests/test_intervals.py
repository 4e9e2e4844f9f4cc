"""The volume enclosure's type (outward rounding, immutability and
membership) and the scalar reference for box rows."""

import math
import random
from fractions import Fraction

import pytest

from bandforge.intervals import RealInterval
from conftest import box_row, holds


# ---------------------------------------------------------------- real


def test_point_constructor_and_repr():
    iv = RealInterval(1.5)
    assert iv.lo == iv.hi == 1.5
    assert iv.width == 0.0
    assert "1.5" in repr(iv)


def test_invalid_intervals_rejected():
    with pytest.raises(ValueError):
        RealInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        RealInterval(math.nan)
    with pytest.raises(ValueError):
        RealInterval(0.0, math.nan)


def test_infinite_endpoints_allowed():
    iv = RealInterval(-math.inf, math.inf)
    assert iv.contains(0.0) and iv.contains(1e300)
    assert iv.width == math.inf


def test_big_integers_rounded_outward():
    n = 2**53 + 1
    assert float(n) != n
    assert RealInterval(n).contains(n)
    assert RealInterval(-n).contains(-n)
    assert RealInterval(n, n + 2).contains(n) and RealInterval(n, n + 2).contains(n + 2)
    # an exactly representable int stays a point
    assert RealInterval(2**60).width == 0.0


def test_immutable():
    iv = RealInterval(0.0, 1.0)
    with pytest.raises(AttributeError):
        iv.lo = 5.0
    with pytest.raises(AttributeError):
        iv.hi = 5.0


def test_set_predicates():
    a = RealInterval(0.0, 1.0)
    assert a.contains(0.0) and a.contains(0.5) and a.contains(1.0)
    assert not a.contains(-1e-300) and not a.contains(1.5)
    assert not a.contains(math.nan)


def test_mid_width_mag():
    iv = RealInterval(-4.0, 2.0)
    assert iv.width == 6.0
    assert RealInterval(-math.inf, 0.0).width == math.inf


# ---------------------------------------------------------- box rows


def test_box_holds_its_exact_corners():
    # z +- r is computed in floats, so each corner must be rounded outward
    rng = random.Random(41)
    for _ in range(4000):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = rng.uniform(1e-12, 1e-3)
        row = box_row(z, r)
        for part, lo, hi in ((z.real, *row[:2]), (z.imag, *row[2:])):
            assert Fraction(lo) <= Fraction(part) - Fraction(r)
            assert Fraction(part) + Fraction(r) <= Fraction(hi)
        assert holds(row, z) and not holds(row, z + 2 * r)


def test_typed_rejections():
    with pytest.raises(TypeError):
        RealInterval("1", "2")
