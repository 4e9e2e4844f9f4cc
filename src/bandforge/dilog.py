"""Bloch-Wigner dilogarithm and hyperbolic volume, in floats and intervals.

D(z) = Im(Li2(z)) + arg(1 - z) * log|z| is the volume of the ideal
tetrahedron with shape z (positive on the upper half-plane, zero on the
reals, D(conj z) = -D(z)).  The volume of a solved triangulation is the
sum of D over its shapes.

This module is the one home of the Li2 (Bernoulli/Debye) series in
w = -log(1 - z):

    Li2(z) = sum_{k >= 0} B_k / (k+1)! * w^(k+1),   |w| < 2*pi,

which converges geometrically with ratio |w| / (2*pi).  The float D
(`bloch_wigner`) and the interval D of certified volumes
(`bloch_wigner_interval`) share one range reduction (the identities
D(z) = -D(1/z) = -D(1-z), chosen at the point or box midpoint and applied
to boxes with outward-rounded `recip()` / `one_minus()`), one truncation
rule (the term count from a bound on |w|, whose rigorous tail bound the
interval path adds as +-tail) and one exact table of the rationals
B_k/(k+1)!.  The table and its float and interval roundings are built on
first use, never at import.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction as _Q

from .intervals import ComplexInterval, EnclosureDomainError, RealInterval, _dn, _up

__all__ = ["bloch_wigner", "volume", "li2_series_coefficients",
           "bloch_wigner_interval", "interval_volume"]

_SERIES_LEN = 122        # coefficients B_k/(k+1)!, k = 0..121
_W_SAFE = 3.9            # range-reduction target for |w|; ratio 3.9/(2 pi) = 0.62
_W_MAX = 6.0             # largest |w| bound the series is summed at
_TWO_PI_DN = 6.283185    # strictly below 2 pi: rho / _TWO_PI_DN bounds rho / (2 pi)
_TAIL_TOL = 2.0 ** -60   # truncation target for the series tail


@functools.cache
def li2_series_coefficients() -> tuple:
    """Exact rationals B_k/(k+1)! for the w-series of Li2, built once.

    B_m comes from the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0.
    """
    bern, coeffs, fact = [], [], 1
    for m in range(_SERIES_LEN):
        acc, binom = _Q(0), 1
        for j in range(m):
            acc += binom * bern[j]
            binom = binom * (m + 1 - j) // (j + 1)
        bern.append(-acc / binom if m else _Q(1))
        fact *= m + 1
        coeffs.append(bern[m] / fact)
    return tuple(coeffs)


@functools.cache
def _coefficient_table(kind) -> tuple:
    """The exact table as floats, or as RealIntervals rounded outward."""
    return tuple(kind(c) for c in li2_series_coefficients())


def _series_terms(rho: float):
    """Term count K and an upper bound on the series tail beyond it, |w| <= rho.

    Even-index coefficients satisfy |B_2n|/(2n+1)! <= 4 (2 pi)^(-2n) and the
    odd ones beyond k = 1 vanish, so for even K the omitted terms are
    dominated by 4 rho t^K (1 + t^2 + ...) with t = rho / (2 pi).  K is the
    least even count whose bound is below _TAIL_TOL, capped at the table.
    """
    if not rho < _W_MAX:
        raise EnclosureDomainError(
            f"|log(1-z)| bound {rho:.3f} outside the series domain")
    t = _up(rho / _TWO_PI_DN)
    t2 = _up(t * t)
    terms, tail = 2, _up(_up(4.0 * _up(rho * t2)) / _dn(1.0 - t2))
    while tail > _TAIL_TOL and terms < _SERIES_LEN:
        terms, tail = terms + 2, _up(tail * t2)
    return terms, tail


def _li2_series(w, coeffs, terms):
    """sum_{k < terms} coeffs[k] w^(k+1), for complex or ComplexInterval w."""
    w2 = w * w
    acc, wp = w + coeffs[1] * w2, w
    for k in range(2, terms, 2):
        wp = wp * w2
        acc = acc + coeffs[k] * wp
    return acc


def _moves(z: complex, error) -> tuple:
    """Moves "recip" (z -> 1/z) and "one_minus" (z -> 1 - z) into |w| <= _W_SAFE.

    Each move takes the image with the smaller |w| and flips the sign of D.
    A point that two moves do not carry there raises `error`.
    """
    moves = ()
    while z != 1 and len(moves) < 3:
        if abs(cmath.log(1 - z)) <= _W_SAFE:
            return moves
        alt = 1 / z
        if abs(cmath.log(1 - alt)) < abs(cmath.log(z)):
            z, moves = alt, moves + ("recip",)
        else:
            z, moves = 1 - z, moves + ("one_minus",)
    raise error(f"{z} cannot be moved into the series domain")


def bloch_wigner(z: complex) -> float:
    """D(z), accurate to about 1e-13 absolute away from 0, 1, infinity."""
    z = complex(z)
    if z.imag == 0.0:
        return 0.0  # D vanishes identically on the real line
    moves = _moves(z, ValueError)
    for move in moves:
        z = 1 / z if move == "recip" else 1 - z
    w = -cmath.log(1 - z)
    li2 = _li2_series(w, _coefficient_table(float), _series_terms(abs(w))[0])
    d = li2.imag + cmath.phase(1 - z) * math.log(abs(z))
    return -d if len(moves) % 2 else d


def volume(shapes) -> float:
    """Sum of D over a shape vector."""
    return float(sum(bloch_wigner(z) for z in shapes))


def bloch_wigner_interval(z: ComplexInterval) -> RealInterval:
    """Enclosure of D over a rectangle away from 0, 1 and the cut (1, inf)."""
    moves = _moves(z.mid, EnclosureDomainError)
    for move in moves:
        z = z.recip() if move == "recip" else z.one_minus()
    log_one_minus = z.one_minus().log()
    w = -log_one_minus
    terms, tail = _series_terms(w.mag)
    li2 = _li2_series(w, _coefficient_table(RealInterval), terms)
    d = (li2.im + RealInterval(-tail, tail)
         + log_one_minus.im * z.abs_sqr().log().half())
    return -d if len(moves) % 2 else d


def interval_volume(enclosures) -> RealInterval:
    """Enclosure of the volume: the interval sum of D over shape boxes."""
    return sum((bloch_wigner_interval(e) for e in enclosures), RealInterval(0.0))
