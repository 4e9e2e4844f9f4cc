"""The certificate's result types: outward rounding, immutability and set
operations."""

import math
import random
from fractions import Fraction

import pytest

from bandforge.intervals import ComplexInterval, RealInterval


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
    assert ComplexInterval(n).re.contains(n)
    assert ComplexInterval(-n).re.contains(-n)
    assert RealInterval(n, n + 2).contains(n) and RealInterval(n, n + 2).contains(n + 2)
    # an exactly representable int stays a point
    assert RealInterval(2**60).width == 0.0


def test_immutable():
    iv = RealInterval(0.0, 1.0)
    with pytest.raises(AttributeError):
        iv.lo = 5.0
    ci = ComplexInterval.point(1j)
    with pytest.raises(AttributeError):
        ci.re = iv


def test_set_predicates():
    a = RealInterval(0.0, 1.0)
    b = RealInterval(0.5, 2.0)
    assert a.intersect(b).lo == 0.5 and a.intersect(b).hi == 1.0
    assert a.intersect(RealInterval(2.0, 3.0)) is None


def test_mid_width_mag():
    iv = RealInterval(-4.0, 2.0)
    assert iv.mid == -1.0
    assert iv.width == 6.0


# ------------------------------------------------------------- complex


def test_complex_constructors():
    p = ComplexInterval.point(2 - 3j)
    assert p.contains(2 - 3j) and p.width == 0.0
    b = ComplexInterval.box(1 + 1j, 0.5)
    assert b.contains(1.4 + 0.6j)
    assert not b.contains(2 + 1j)
    # bare real argument means a real point
    r = ComplexInterval(RealInterval(1.0, 2.0))
    assert r.contains(1.5 + 0j) and not r.contains(1.5 + 0.1j)


def test_box_holds_its_exact_corners():
    # z +- r is computed in floats, so each corner must be rounded outward
    rng = random.Random(41)
    for _ in range(4000):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = rng.uniform(1e-12, 1e-3)
        box = ComplexInterval.box(z, r)
        for part, iv in ((z.real, box.re), (z.imag, box.im)):
            assert Fraction(iv.lo) <= Fraction(part) - Fraction(r)
            assert Fraction(part) + Fraction(r) <= Fraction(iv.hi)


def test_complex_geometry():
    A = ComplexInterval.box(0j, 1.0)
    B = ComplexInterval(RealInterval(0.0, 0.5), RealInterval(0.0, 0.5))
    got = B.intersect(A)
    assert got is not None and got.contains(0.25 + 0.25j)
    assert A.intersect(ComplexInterval.box(5 + 5j, 0.5)) is None
    assert A.mid == 0j
    assert B.width == 0.5


def test_typed_rejections():
    with pytest.raises(TypeError):
        ComplexInterval("1", "2")
