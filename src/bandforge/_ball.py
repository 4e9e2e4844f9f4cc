"""Rounding rules for midpoint-radius ("ball") arithmetic on numpy arrays.

A ball is a centre array plus a radius array; the radius bounds the
enclosure plus every rounding made in computing its centre.  The Krawczyk
operator (`krawczyk._operator`) and the Bloch-Wigner kernel
(`dilog._ball_bloch_wigner`) follow one rule, with the rounding mode
untouched (Rump, "Fast and parallel interval arithmetic", BIT 39, 1999):
a radius is a sum of non-negative terms, summed in round-to-nearest and
bounded once by `_bound`.  A term counts a rounding per operation on it
(division by a lower bound included) and two per modulus (hypot, within
one ulp).  An underflow loses eta/2 per rounding and is not
multiplied by more than 1 afterwards, unless it lands in a sum of at least
2^-1000, of which it is below u: one rounding more.  So the operands of a
product that would magnify one are raised to _TINY, which keeps subnormals,
about 60 times slower, out of the matmuls too.  Lower bounds (lo, gap) are
stepped one float down, and the ends of boxes one float outward.
"""

from __future__ import annotations

import numpy as np

_U = 2.0 ** -53           # unit roundoff of round-to-nearest doubles
_ETA = 2.0 ** -1074       # smallest subnormal: twice the error of an underflow
_TINY = 2.0 ** -500       # discs keep this far from 0 and 1, so |v|^2 stays normal


def _dn(x):
    """Lower bound of a correctly rounded positive result: the float below."""
    return np.nextafter(x, -np.inf)


def _gamma(k):
    """Upper bound on gamma_k = k u / (1 - k u), for k u < 0.009."""
    return 1.01 * k * _U


def _bound(r, m):
    """Upper bound on the exact sum that r holds, given at most m >= 1
    roundings on each term and at most m eta lost to underflow in all.

    That sum is at most r (1 - u)^-m + m eta; the float of 1 + 2 gamma_(m+1)
    is above (1 + gamma_m)(1 - u)^-2 and so covers the two last roundings,
    and a subnormal r + 2 m eta is exact, with r gamma_m < 0.51 m eta.
    """
    return (r + 2 * m * _ETA) * (1.0 + 2.0 * _gamma(m + 1))


def _log_rad(L):
    """Error bound of L = np.log(v), for v exact or within u |v| of its target.

    The log is allowed 4 ulps per part and the rounding of v another u:
    8 u (1 + |Re| + |Im|) bounds both.
    """
    return _bound(8 * _U * (1.0 + np.abs(L.real) + np.abs(L.imag)), 3)


def _discs(z, rho):
    """The discs of radius rho around z and 1 - z, and lower bounds on |.|.

    Returns (v, rv, lo, gap): v = (z, fl(1 - z)); fl(1 - z) is within
    u |Re| of 1 - z, so the discs |x - v| <= rv hold both; lo <= |v|, and
    gap <= |x| for every x in the discs.
    """
    v = np.array([z, 1 - z])
    rv = np.array([rho, _bound(rho + _U * np.abs(v[1].real), 2)])
    lo = _dn(_dn(np.abs(v)))
    return v, rv, lo, _dn(lo - rv)


def _recip(v, rv, lo, gap, k=5):
    """Ball of 1/x on the discs |x - v| <= rv, given lo <= |v| and gap <= |x|.

    |1/x - 1/v| <= rv / (|v| (|v| - rv)), and fl(1/v) = conj(v) / |v|^2
    takes four roundings per part: gamma_5 |fl(1/v)| more, or gamma_k for
    a caller that rounds it k - 5 more times.  Callers keep gap > _TINY.
    """
    c = v.conj() * (1.0 / (v.real * v.real + v.imag * v.imag))
    return c, _bound(rv / (lo * gap) + _gamma(k) * np.abs(c), 4)


def _ball_sum(c, r):
    """Centre and radius of a ball holding every sum of points of the real
    balls c_j +- r_j: a sum in any order is within gamma_n sum |c| of the
    exact one, and the radius takes n + 1 roundings per term."""
    n = len(c)
    return np.sum(c), _bound(np.sum(r) + _gamma(n) * np.sum(np.abs(c)), n + 1)
