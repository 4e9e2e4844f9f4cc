"""Rectangular interval arithmetic with outward rounding, for the
certificate's boxes and volume enclosure and, in the tests, an independent
oracle; the Krawczyk operator and the volume run in ball arithmetic (`_ball`).

Every endpoint operation is widened by one step of math.nextafter, so
results enclose the exact real (resp. complex rectangular) image.
Library transcendentals (log, atan2) are widened by two steps, allowing
for their sub-ulp but not exactly rounded results.  Exact endpoints that
no float equals (ints above 2**53, fractions) are rounded outward, and a
product that would need 0 * inf raises EnclosureDomainError.  No hardware
rounding modes are touched; all values are immutable.

ComplexInterval is the axis-aligned rectangle re x im.  Division and
logarithm require the rectangle to exclude the singularity: division
needs 0 outside the box, log needs the box to avoid the branch cut
(re > 0, or the box strictly above or strictly below the real axis).
"""

from __future__ import annotations

import math

__all__ = ["RealInterval", "ComplexInterval", "PI", "EnclosureDomainError"]

_INF = math.inf


class EnclosureDomainError(ArithmeticError):
    """An interval operation's enclosure touches a singularity or cut."""


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class RealInterval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        if not (lo <= hi):  # also rejects NaN
            raise ValueError(f"bad interval [{lo}, {hi}]")
        flo, fhi = float(lo), float(hi)
        # exact endpoints that no float equals (big ints, fractions)
        if flo > lo:
            flo = _dn(flo)
        if fhi < hi:
            fhi = _up(fhi)
        object.__setattr__(self, "lo", flo)
        object.__setattr__(self, "hi", fhi)

    def __setattr__(self, *a):
        raise AttributeError("RealInterval is immutable")

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"

    # arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        return RealInterval(_dn(self.lo + other.lo), _up(self.hi + other.hi))

    __radd__ = __add__

    def __neg__(self):
        return RealInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        a, b = self.lo * other.lo, self.lo * other.hi
        c, d = self.hi * other.lo, self.hi * other.hi
        if a != a or b != b or c != c or d != d:
            raise EnclosureDomainError(f"product {self} * {other} has 0 * inf")
        return RealInterval(_dn(min(a, b, c, d)), _up(max(a, b, c, d)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        if other.lo <= 0.0 <= other.hi:
            raise EnclosureDomainError(f"division by {other} touching zero")
        cands = (self.lo / other.lo, self.lo / other.hi,
                 self.hi / other.lo, self.hi / other.hi)
        return RealInterval(_dn(min(cands)), _up(max(cands)))

    def sqr(self):
        if self.lo >= 0.0:
            return RealInterval(_dn(self.lo * self.lo), _up(self.hi * self.hi))
        if self.hi <= 0.0:
            return RealInterval(_dn(self.hi * self.hi), _up(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return RealInterval(0.0, _up(m * m))

    def sqrt(self):
        if self.lo < 0.0:
            raise EnclosureDomainError(f"sqrt of {self}")
        return RealInterval(_dn(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))

    def log(self):
        if self.lo <= 0.0:
            raise EnclosureDomainError(f"log of {self} touching zero")
        return RealInterval(_dn(_dn(math.log(self.lo))),
                            _up(_up(math.log(self.hi))))

    def half(self):
        # exact: binary scaling never rounds
        return RealInterval(0.5 * self.lo, 0.5 * self.hi)

    # set predicates ---------------------------------------------------
    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def strictly_inside(self, other) -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def intersect(self, other):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return RealInterval(lo, hi) if lo <= hi else None

    def hull(self, other):
        return RealInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mag(self) -> float:
        return max(abs(self.lo), abs(self.hi))


def _coerce_real(x):
    if isinstance(x, RealInterval):
        return x
    if isinstance(x, (int, float)):
        return RealInterval(x)
    return None


def _as_real(x):
    out = _coerce_real(x)
    if out is None:
        raise TypeError(f"cannot treat {type(x).__name__} as RealInterval")
    return out


PI = RealInterval(_dn(math.pi), _up(math.pi))


class ComplexInterval:
    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        if im is None:
            im = RealInterval(0.0)
        object.__setattr__(self, "re", _as_real(re))
        object.__setattr__(self, "im", _as_real(im))

    def __setattr__(self, *a):
        raise AttributeError("ComplexInterval is immutable")

    @classmethod
    def point(cls, z: complex):
        z = complex(z)
        return cls(RealInterval(z.real), RealInterval(z.imag))

    @classmethod
    def box(cls, z: complex, radius: float):
        z = complex(z)
        return cls(RealInterval(z.real - radius, z.real + radius),
                   RealInterval(z.imag - radius, z.imag + radius))

    def __repr__(self):
        return f"({self.re} + {self.im} i)"

    def __add__(self, other):
        other = _as_complex(other)
        return ComplexInterval(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_as_complex(other))

    def __rsub__(self, other):
        return _as_complex(other) + (-self)

    def __mul__(self, other):
        other = _as_complex(other)
        return ComplexInterval(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def scale(self, c: float):
        """Multiply by an exact scalar constant."""
        return ComplexInterval(self.re * c, self.im * c)

    def recip(self):
        d = self.re.sqr() + self.im.sqr()
        if d.lo <= 0.0:
            raise EnclosureDomainError(f"reciprocal of {self} touching zero")
        return ComplexInterval(self.re / d, -self.im / d)

    def __truediv__(self, other):
        return self * _as_complex(other).recip()

    def one_minus(self):
        return ComplexInterval(1.0 - self.re, -self.im)

    def recip_one_minus(self):
        """The shape companion map z -> 1/(1 - z)."""
        return self.one_minus().recip()

    def abs_sqr(self) -> RealInterval:
        return self.re.sqr() + self.im.sqr()

    def arg(self) -> RealInterval:
        """Principal argument; the rectangle must avoid the branch cut."""
        if not (self.re.lo > 0.0 or self.im.lo > 0.0 or self.im.hi < 0.0):
            raise EnclosureDomainError(f"argument of {self} touching the cut")
        corners = [math.atan2(y, x)
                   for y in (self.im.lo, self.im.hi)
                   for x in (self.re.lo, self.re.hi)]
        return RealInterval(_dn(_dn(min(corners))), _up(_up(max(corners))))

    def log(self):
        """Principal log: log|z| + i arg z on a cut-avoiding rectangle."""
        return ComplexInterval(self.abs_sqr().log().half(), self.arg())

    # geometry ---------------------------------------------------------
    def contains(self, z: complex) -> bool:
        z = complex(z)
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def strictly_inside(self, other) -> bool:
        return (self.re.strictly_inside(other.re)
                and self.im.strictly_inside(other.im))

    def intersect(self, other):
        re = self.re.intersect(other.re)
        im = self.im.intersect(other.im)
        return ComplexInterval(re, im) if re is not None and im is not None else None

    @property
    def mid(self) -> complex:
        return complex(self.re.mid, self.im.mid)

    @property
    def width(self) -> float:
        return max(self.re.width, self.im.width)

    @property
    def mag(self) -> float:
        # upper bound of |z| over the rectangle
        return _up(math.hypot(self.re.mag, self.im.mag))


def _as_complex(z):
    if isinstance(z, ComplexInterval):
        return z
    if isinstance(z, (int, float, RealInterval)):
        return ComplexInterval(_as_real(z), RealInterval(0.0))
    if isinstance(z, complex):
        return ComplexInterval.point(z)
    raise TypeError(f"cannot treat {type(z).__name__} as ComplexInterval")
