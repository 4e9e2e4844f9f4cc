"""The certificate's result types: outward-rounded real intervals and
complex rectangles, with set operations but no arithmetic.

The Krawczyk operator and the volume run in ball arithmetic (`_ball`);
their results are reported here, as the shape boxes and the volume
enclosure of a `Certificate`.  Exact endpoints that no float equals (ints
above 2**53, fractions) are rounded outward, so a box always holds the
exact values it was built from.  No hardware rounding modes are touched;
all values are immutable.

ComplexInterval is the axis-aligned rectangle re x im.
"""

from __future__ import annotations

import math

__all__ = ["RealInterval", "ComplexInterval", "EnclosureDomainError"]

_INF = math.inf


class EnclosureDomainError(ArithmeticError):
    """The volume enclosure cannot be given: a shape's disc reaches 0 or 1,
    leaves the dilogarithm series' domain, or overflows."""


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

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersect(self, other):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return RealInterval(lo, hi) if lo <= hi else None

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _as_real(x):
    if isinstance(x, RealInterval):
        return x
    if isinstance(x, (int, float)):
        return RealInterval(x)
    raise TypeError(f"cannot treat {type(x).__name__} as RealInterval")


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
        """The rectangle z +- radius on both axes, corners rounded outward."""
        z = complex(z)
        return cls(RealInterval(_dn(z.real - radius), _up(z.real + radius)),
                   RealInterval(_dn(z.imag - radius), _up(z.imag + radius)))

    def __repr__(self):
        return f"({self.re} + {self.im} i)"

    def contains(self, z: complex) -> bool:
        z = complex(z)
        return self.re.contains(z.real) and self.im.contains(z.imag)

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
