"""The certificate's volume enclosure: an outward-rounded, immutable real
interval, and the error for a volume that cannot be enclosed.

The Krawczyk operator and the volume run in ball arithmetic (`_ball`).  A
shape box is not an object: it is the row (re.lo, re.hi, im.lo, im.hi) of
floats that `krawczyk_test` computes, `Certificate.enclosures` holds and
`dilog.interval_volume` reads.  Exact endpoints that no float equals (ints
above 2**53, fractions) are rounded outward, so an interval always holds
the exact values it was built from.  No hardware rounding modes are touched.
"""

from __future__ import annotations

import math

__all__ = ["RealInterval", "EnclosureDomainError"]

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

    @property
    def width(self) -> float:
        return self.hi - self.lo
