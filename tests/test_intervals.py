"""Containment and domain-error checks for the outward-rounded arithmetic."""

import math
import random

import pytest

from bandforge.intervals import (PI, ComplexInterval, EnclosureDomainError,
                                 RealInterval)


def _rand_interval(rng, span=2.0):
    lo = rng.uniform(-3, 3)
    return RealInterval(lo, lo + rng.uniform(0, span))


def _inside(rng, iv):
    return rng.uniform(iv.lo, iv.hi)


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


def test_zero_times_infinity_is_domain_error():
    with pytest.raises(EnclosureDomainError):
        RealInterval(-math.inf, math.inf) * RealInterval(0.0)
    with pytest.raises(EnclosureDomainError):
        RealInterval(0.0) * RealInterval(1.0, math.inf)


def test_big_integers_rounded_outward():
    n = 2**53 + 1
    assert float(n) != n
    assert ComplexInterval(n).re.contains(n)
    assert ComplexInterval(-n).re.contains(-n)
    assert RealInterval(n, n + 2).contains(n) and RealInterval(n, n + 2).contains(n + 2)
    assert (RealInterval(0.0) + n).contains(n)
    assert (RealInterval(1.0) * n).contains(n)
    # an exactly representable int stays a point
    assert RealInterval(2**60).width == 0.0


def test_immutable():
    iv = RealInterval(0.0, 1.0)
    with pytest.raises(AttributeError):
        iv.lo = 5.0
    ci = ComplexInterval.point(1j)
    with pytest.raises(AttributeError):
        ci.re = iv


def test_real_arithmetic_containment():
    rng = random.Random(17)
    for _ in range(4000):
        a, b = _rand_interval(rng), _rand_interval(rng)
        x, y = _inside(rng, a), _inside(rng, b)
        assert (a + b).contains(x + y)
        assert (a - b).contains(x - y)
        assert (a * b).contains(x * y)
        assert (-a).contains(-x)
        assert a.sqr().contains(x * x)
        assert a.half().contains(0.5 * x)
        assert a.hull(b).contains(x) and a.hull(b).contains(y)
        if not b.contains(0.0):
            assert (a / b).contains(x / y)
        if a.lo >= 0.0:
            assert a.sqrt().contains(math.sqrt(x))
        if a.lo > 0.0:
            assert a.log().contains(math.log(x))


def test_scalar_mixed_dispatch_real():
    a = RealInterval(1.0, 2.0)
    assert (1 + a).contains(2.5)
    assert (a + 1.5).contains(3.0)
    assert (3 - a).contains(1.5)
    assert (2 * a).contains(3.0)
    assert (a * 0.5).contains(0.75)
    assert (a / 2).contains(0.75)


def test_zero_spanning_division_raises():
    a = RealInterval(1.0, 2.0)
    for denom in [RealInterval(-1.0, 1.0), RealInterval(0.0, 2.0),
                  RealInterval(-2.0, 0.0)]:
        with pytest.raises(EnclosureDomainError):
            a / denom


def test_log_and_sqrt_domains():
    with pytest.raises(EnclosureDomainError):
        RealInterval(0.0, 1.0).log()
    with pytest.raises(EnclosureDomainError):
        RealInterval(-1.0, 2.0).log()
    with pytest.raises(EnclosureDomainError):
        RealInterval(-0.5, 1.0).sqrt()
    # closed at zero for sqrt
    assert RealInterval(0.0, 4.0).sqrt().contains(2.0)


def test_sqr_of_sign_spanning_interval():
    iv = RealInterval(-2.0, 1.0).sqr()
    assert iv.lo == 0.0
    assert iv.contains(4.0) and iv.contains(0.25)


def test_pi_constant():
    assert PI.contains(math.pi)
    assert PI.width < 1e-15


def test_sqrt_two_round_trip():
    s = RealInterval(2.0).sqrt()
    assert s.contains(math.sqrt(2.0))
    assert s.sqr().contains(2.0)
    assert s.width < 1e-15


def test_set_predicates():
    a = RealInterval(0.0, 1.0)
    b = RealInterval(0.5, 2.0)
    assert a.intersect(b).lo == 0.5 and a.intersect(b).hi == 1.0
    assert a.intersect(RealInterval(2.0, 3.0)) is None
    assert RealInterval(0.25, 0.75).strictly_inside(a)
    assert not a.strictly_inside(a)  # shared endpoints do not count
    assert not b.strictly_inside(a)


def test_mid_width_mag():
    iv = RealInterval(-4.0, 2.0)
    assert iv.mid == -1.0
    assert iv.width == 6.0
    assert iv.mag == 4.0


# ------------------------------------------------------------- complex


def _rand_box(rng, span=1.0):
    z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return ComplexInterval.box(z, rng.uniform(1e-6, span)), z


def test_complex_constructors():
    p = ComplexInterval.point(2 - 3j)
    assert p.contains(2 - 3j) and p.width == 0.0
    b = ComplexInterval.box(1 + 1j, 0.5)
    assert b.contains(1.4 + 0.6j)
    assert not b.contains(2 + 1j)
    # bare real argument means a real point
    r = ComplexInterval(RealInterval(1.0, 2.0))
    assert r.contains(1.5 + 0j) and not r.contains(1.5 + 0.1j)


def test_complex_arithmetic_containment():
    rng = random.Random(23)
    for _ in range(3000):
        A, za = _rand_box(rng)
        B, zb = _rand_box(rng)
        assert (A + B).contains(za + zb)
        assert (A - B).contains(za - zb)
        assert (A * B).contains(za * zb)
        assert (-A).contains(-za)
        assert A.one_minus().contains(1 - za)
        assert A.abs_sqr().contains(abs(za) ** 2)
        assert A.scale(1.75).contains(1.75 * za)
        d = B.abs_sqr()
        if d.lo > 0.0:
            assert B.recip().contains(1 / zb)
            assert (A / B).contains(za / zb)
        om = A.one_minus().abs_sqr()
        if om.lo > 0.0:
            assert A.recip_one_minus().contains(1 / (1 - za))


def test_complex_log_containment():
    rng = random.Random(29)
    checked = 0
    while checked < 500:
        A, za = _rand_box(rng, span=0.3)
        if not (A.re.lo > 0.0 or A.im.lo > 0.0 or A.im.hi < 0.0):
            continue
        w = A.log()
        zl = complex(math.log(abs(za)), math.atan2(za.imag, za.real))
        assert w.contains(zl)
        assert A.arg().contains(math.atan2(za.imag, za.real))
        checked += 1


def test_complex_mixed_dispatch():
    A = ComplexInterval.box(1 + 2j, 0.25)
    r = RealInterval(2.0, 3.0)
    assert (r * A).contains(2.5 * (1 + 2j))
    assert (A * r).contains(2.5 * (1 + 2j))
    assert ((1 - 1j) * A).contains((1 - 1j) * (1 + 2j))
    assert (2 * A).contains(2 + 4j)
    assert (0.5 - A).contains(0.5 - (1 + 2j))
    assert (r + A).contains(3.5 + 2j)
    assert (A / 2).contains(0.5 + 1j)
    assert (A - 1j).contains(1 + 1j)


def test_recip_touching_zero_raises():
    with pytest.raises(EnclosureDomainError):
        ComplexInterval.box(0.0 + 0.0j, 0.1).recip()
    with pytest.raises(EnclosureDomainError):
        ComplexInterval.box(1 + 0j, 0.5).one_minus().recip()


def test_arg_touching_cut_raises():
    # box straddling the negative real axis
    with pytest.raises(EnclosureDomainError):
        ComplexInterval.box(-1 + 0j, 0.1).arg()
    # box around the origin
    with pytest.raises(EnclosureDomainError):
        ComplexInterval.box(0j, 0.1).log()
    # safely in the upper half-plane, even with re < 0
    assert ComplexInterval.box(-1 + 1j, 0.1).arg().contains(math.atan2(1, -1))


def test_complex_geometry():
    A = ComplexInterval.box(0j, 1.0)
    B = ComplexInterval.box(0.25 + 0.25j, 0.25)
    assert B.strictly_inside(A)
    assert not A.strictly_inside(B)
    got = B.intersect(A)
    assert got is not None and got.contains(0.25 + 0.25j)
    assert A.intersect(ComplexInterval.box(5 + 5j, 0.5)) is None
    assert A.mid == 0j
    assert B.width == 0.5
    assert A.mag >= math.sqrt(2.0)


def test_typed_rejections():
    with pytest.raises(TypeError):
        ComplexInterval("1", "2")
    assert RealInterval(0.0, 1.0).__add__("x") is NotImplemented
