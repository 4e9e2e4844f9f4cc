"""Bloch-Wigner dilogarithm and hyperbolic volume.

D(z) = Im(Li2(z)) + arg(1 - z) * log|z| is the volume of the ideal
tetrahedron with shape z (positive on the upper half-plane, zero on the
reals, D(conj z) = -D(z)).  The volume of a solved triangulation is the
sum of D over its shapes.

Li2 is evaluated through the Bernoulli (Debye) series in
w = -log(1 - z):

    Li2(z) = sum_{k >= 0} B_k / (k+1)! * w^(k+1),   |w| < 2*pi,

which converges geometrically with ratio |w| / (2*pi).  Arguments whose
w lies outside a safe disk are first moved by the exact identities
D(z) = -D(1/z) = -D(1-z).  The Bernoulli coefficients are generated
exactly as rationals, once per process, and the same table also feeds the
interval version used for certified volume enclosures (see krawczyk
module).
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction as _Q

__all__ = ["bloch_wigner", "volume", "li2_series_coefficients"]

_SERIES_LEN = 121   # coefficients B_k/(k+1)!, k = 0..120
_W_SAFE = 3.9       # direct-series cutoff for |w|; ratio 3.9/(2 pi) = 0.62


def _bernoulli_fractions(count):
    """B_0 .. B_{count-1} via the defining recurrence, exact."""
    out = [_Q(1)]
    for m in range(1, count):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0
        acc = _Q(0)
        binom = 1
        for j in range(m):
            acc += binom * out[j]
            binom = binom * (m + 1 - j) // (j + 1)
        out.append(-acc / binom)
    return out


@functools.cache
def li2_series_coefficients() -> tuple:
    """Exact rationals B_k/(k+1)! for the w-series of Li2, built once."""
    bern = _bernoulli_fractions(_SERIES_LEN)
    fact = _Q(1)
    coeffs = []
    for k, b in enumerate(bern):
        fact *= (k + 1)
        coeffs.append(b / fact)
    return tuple(coeffs)


_COEFFS = [float(c) for c in li2_series_coefficients()]


def _li2_from_w(w):
    """Li2(z) where w = -log(1 - z); requires |w| below the safe cutoff."""
    acc = 0j
    wp = w
    for k, c in enumerate(_COEFFS):
        if c != 0.0:
            term = c * wp
            acc += term
            if k > 2 and abs(term) < 1e-18 * (1.0 + abs(acc)):
                break
        wp *= w
    return acc


def bloch_wigner(z: complex) -> float:
    """D(z), accurate to about 1e-13 absolute away from 0, 1, infinity."""
    z = complex(z)
    if z.imag == 0.0:
        return 0.0  # D vanishes identically on the real line
    sign = 1.0
    for _ in range(3):
        w = -cmath.log(1 - z)
        if abs(w) <= _W_SAFE:
            li2 = _li2_from_w(w)
            return sign * (li2.imag + cmath.phase(1 - z) * math.log(abs(z)))
        # move into the fast-convergence disk; both identities flip the sign
        alt = 1 / z
        if abs(cmath.log(1 - alt)) < abs(cmath.log(z)):
            z = alt
        else:
            z = 1 - z
        sign = -sign
    raise ValueError("argument cannot be moved into the series domain")


def volume(shapes) -> float:
    """Sum of D over a shape vector."""
    return float(sum(bloch_wigner(z) for z in shapes))
