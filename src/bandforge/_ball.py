"""Rounding rules for midpoint-radius ("ball") arithmetic on numpy arrays.

A ball is a centre array plus a radius array.  A radius bounds the
enclosure plus every rounding made in computing its centre, and is itself
computed with every operation stepped one float up, or, for a sum of
non-negative bounds with m roundings on its longest chain, scaled by
1 + 2 gamma_m at the end.  Rounding is bounded
a priori, in round-to-nearest, without touching the rounding mode (Rump,
"Fast and parallel interval arithmetic", BIT 39, 1999).  The Krawczyk
operator (`krawczyk._operator`) and the Bloch-Wigner kernel
(`dilog._ball_bloch_wigner`) share these rules.  A product of bounds
(`krawczyk._matmul_up`) raises its radius operand to at least _TINY, still
a bound, as _up(0) = 2^-1074 where the Jacobian is structurally zero and
subnormal operands slow a matmul about 60 times; a floor in _up, on every
rounding, would cost what it saves.
"""

from __future__ import annotations

import numpy as np

_U = 2.0 ** -53           # unit roundoff of round-to-nearest doubles
_ETA = 2.0 ** -1074       # smallest subnormal: twice the error of an underflow
_TINY = 2.0 ** -500       # discs keep this far from 0 and 1, so |v|^2 stays normal


def _up(x):
    """Upper bound of a correctly rounded non-negative result: the next float."""
    return np.nextafter(x, np.inf)


def _dn(x):
    return np.nextafter(x, -np.inf)


def _gamma(k):
    """Upper bound on gamma_k = k u / (1 - k u), for k u < 0.009."""
    return 1.01 * k * _U


def _mag(x):
    """Upper bound on |x|: np.abs (hypot for complex) is within one ulp."""
    return _up(_up(np.abs(x)))


def _log_rad(L):
    """Error bound of L = np.log(v), for v exact or within u |v| of its target.

    The log is allowed 4 ulps per part and the rounding of v another u:
    8 u (1 + |Re| + |Im|) bounds both.
    """
    return _up(8 * _U * _up(_up(1.0 + np.abs(L.real)) + np.abs(L.imag)))


def _discs(z, rho):
    """The discs of radius rho around z and 1 - z, and lower bounds on |.|.

    Returns (v, rv, lo, gap): v = (z, fl(1 - z)); fl(1 - z) is within
    u |Re| of 1 - z, so the discs |x - v| <= rv hold both; lo <= |v|, and
    gap <= |x| for every x in the discs.
    """
    v = np.stack([z, 1 - z])
    rv = np.stack([rho, _up(rho + _up(_U * np.abs(v[1].real)))])
    lo = _dn(_dn(np.abs(v)))
    return v, rv, lo, _dn(lo - rv)


def _recip(v, rv, lo, gap):
    """Ball of 1/x on the discs |x - v| <= rv, given lo <= |v| and gap <= |x|.

    |1/x - 1/v| <= rv / (|v| (|v| - rv)), and fl(1/v) = conj(v) / |v|^2
    takes four roundings per part: gamma_5 |fl(1/v)| more.
    """
    c = v.conj() * (1.0 / (v.real * v.real + v.imag * v.imag))
    return c, _up(_up(rv / _dn(lo * gap)) + _up(_gamma(5) * _mag(c)))
