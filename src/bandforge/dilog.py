"""Bloch-Wigner dilogarithm and hyperbolic volume: a float path and a ball kernel.

D(z) = Im(Li2(z)) + arg(1 - z) * log|z| is the volume of the ideal
tetrahedron with shape z (positive on the upper half-plane, zero on the
reals, D(conj z) = -D(z)).  The volume of a solved triangulation is the
sum of D over its shapes.

This module is the one home of the Li2 (Bernoulli/Debye) series in
w = -log(1 - z):

    Li2(z) = sum_{k >= 0} B_k / (k+1)! * w^(k+1),   |w| < 2*pi,

which converges geometrically with ratio |w| / (2*pi).  The certified
volume, `interval_volume` over rows of box ends, is an `Enclosure` of two
floats from one vectorized numpy kernel, `_ball_bloch_wigner`: D at every
disc centre in ball arithmetic (rounding rules in `_ball`), plus a
mean-value term over the disc.  Only they import numpy and `_ball`; a box
they cannot enclose raises `EnclosureDomainError`.  The float D
(`bloch_wigner`, `volume`), plain Python, is the independent cross-check
that `certify_hyperbolic` runs against that enclosure.  Both share one
range reduction (the identities D(z) = -D(1/z) = -D(1-z), chosen at the
point or disc centre by `_moves`), one truncation rule (the term count
from a bound on |w|, with a rigorous tail bound) and one exact table of
the rationals B_k/(k+1)!.  The table comes from integer tangent numbers
on first use (about 1 ms), never at import, and is rounded to floats; the
`Fraction` view is built only by `li2_series_coefficients`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import NamedTuple

__all__ = ["bloch_wigner", "volume", "li2_series_coefficients",
           "interval_volume", "Enclosure", "EnclosureDomainError"]

_SERIES_LEN = 122        # coefficients B_k/(k+1)!, k = 0..121
_W_SAFE = 3.9            # range-reduction target for |w|; ratio 3.9/(2 pi) = 0.62
_W_MAX = 6.0             # largest |w| bound the series is summed at
_TWO_PI_DN = 6.283185    # strictly below 2 pi: rho / _TWO_PI_DN bounds rho / (2 pi)
_TAIL_TOL = 2.0 ** -60   # truncation target for the series tail
_RECIP, _ONE_MINUS = 1, 2    # the moves of `_moves`; 0 stays


class EnclosureDomainError(ArithmeticError):
    """No volume enclosure: a disc reaches 0 or 1, leaves the series domain
    or overflows."""


class Enclosure(NamedTuple):
    """The certified volume [lo, hi]: two floats, immutable."""
    lo: float
    hi: float

    width = property(lambda self: self.hi - self.lo)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _up(x: float) -> float:
    """Upper bound of a correctly rounded result: the float above."""
    return math.nextafter(x, math.inf)


@functools.cache
def _coefficient_pairs() -> tuple:
    """(numerator, denominator) of each B_k/(k+1)!, k < _SERIES_LEN.

    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) with the tangent numbers T_j
    from the integer recurrence of Brent and Harvey (arXiv:1108.0286).
    """
    n = _SERIES_LEN // 2
    t = [0] + [math.factorial(k) for k in range(n - 1)]     # t[j] -> T_j
    for k in range(2, n):
        for j in range(k, n):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    pairs, fact = [(1, 1), (-1, 4)], 1      # B_0 = 1, B_1 = -1/2
    for j in range(1, n):                   # B_2j, then B_2j+1 = 0
        fact, four = fact * 2 * j * (2 * j + 1), 4 ** j
        pairs += [((-1) ** (j - 1) * 2 * j * t[j], four * (four - 1) * fact),
                  (0, 1)]
    return tuple(pairs)


@functools.cache
def li2_series_coefficients() -> tuple:
    """Exact rationals B_k/(k+1)! for the w-series of Li2, built once."""
    from fractions import Fraction
    return tuple(Fraction(a, b) for a, b in _coefficient_pairs())


@functools.cache
def _coefficient_table() -> tuple:
    """The exact table rounded to floats: int / int rounds correctly."""
    return tuple(a / b for a, b in _coefficient_pairs())


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
    tail = _up(_up(4.0 * _up(rho * t2)) / math.nextafter(1.0 - t2, -math.inf))
    terms = 2
    while tail > _TAIL_TOL and terms < _SERIES_LEN:
        terms, tail = terms + 2, _up(tail * t2)
    return terms, tail


def _li2_series(w, coeffs, terms):
    """sum_{k < terms} coeffs[k] w^(k+1), for complex w."""
    w2 = w * w
    acc, wp = w + coeffs[1] * w2, w
    for k in range(2, terms, 2):
        wp = wp * w2
        acc = acc + coeffs[k] * wp
    return acc


def _moves(z: complex, error) -> tuple:
    """Moves _RECIP (z -> 1/z) and _ONE_MINUS (z -> 1 - z) into |w| <= _W_SAFE.

    Each move takes the image with the smaller |w| and flips the sign of D.
    A point that two moves do not carry there raises `error`.
    """
    moves = ()
    while z != 1 and len(moves) < 3:
        if abs(cmath.log(1 - z)) <= _W_SAFE:
            return moves
        alt = 1 / z
        if abs(cmath.log(1 - alt)) < abs(cmath.log(z)):
            z, moves = alt, moves + (_RECIP,)
        else:
            z, moves = 1 - z, moves + (_ONE_MINUS,)
    raise error(f"{z} cannot be moved into the series domain")


def bloch_wigner(z: complex) -> float:
    """D(z), accurate to about 1e-13 absolute away from 0, 1, infinity."""
    z = complex(z)
    if z.imag == 0.0:
        return 0.0  # D vanishes identically on the real line
    moves = _moves(z, ValueError)
    for move in moves:
        z = 1 / z if move == _RECIP else 1 - z
    w = -cmath.log(1 - z)
    li2 = _li2_series(w, _coefficient_table(), _series_terms(abs(w))[0])
    d = li2.imag + cmath.phase(1 - z) * math.log(abs(z))
    return -d if len(moves) % 2 else d


def volume(shapes) -> float:
    """Sum of D over a shape vector."""
    return float(sum(bloch_wigner(z) for z in shapes))


def _ball_bloch_wigner(c, rho):
    """Centres and radii of balls holding D on the discs |z - c_j| <= rho_j.

    The moves picked at each centre carry its disc to one around p with
    |w| <= _W_SAFE, each flipping the sign of D (1 - z onto the disc
    around fl(1 - c), 1/z into the disc of `_ball._recip`).  D(p) sums the
    series in powers of w^2.  D on the disc is within rho sup |grad D| of
    D(p): dD = log|z| d arg(1 - z) - log|1 - z| d arg z gives
    |grad D| <= |log|z|| / |1 - z| + |log|1 - z|| / |z|, and D is
    real-analytic off 0 and 1, so no branch cut enters.  A disc that
    reaches 0 or 1 raises EnclosureDomainError.  Runs under
    np.errstate(over=, invalid=, divide="raise").
    """
    import numpy as np
    from ._ball import _TINY, _bound, _discs, _gamma, _log_rad, _recip
    plans = [_moves(z, EnclosureDomainError) for z in c.tolist()]
    sign = np.ones(len(c))
    for step in itertools.count():
        v, rv, lo, gap = _discs(c, rho)
        bad = np.flatnonzero(~(gap.min(axis=0) > _TINY))
        if bad.size:
            raise EnclosureDomainError(f"the disc of radius {rho[bad[0]]:.3g} "
                                       f"around {c[bad[0]]} reaches 0 or 1")
        move = np.array([p[step] if step < len(p) else 0 for p in plans], int)
        if not move.any():
            break
        recip, recip_rad = _recip(v[0], rv[0], lo[0], gap[0])
        c = np.choose(move, (c, recip, v[1]))
        rho = np.choose(move, (rho, recip_rad, rv[1]))
        sign = np.where(move, -sign, sign)

    # D(p) = Im F(w) + arg(1 - p) log|p| with L = (log p, log fl(1 - p)),
    # w = -L[1] and F(w) = w E(w^2) - w^2 / 4 the Li2 series, E(x) =
    # sum_j a_2j x^j, a_0 = 1
    L = np.log(v)
    L_rad = _log_rad(L)
    w = -L[1]
    W, X, t = _series_bounds(w, L_rad[1])
    terms, tail = _series_terms(float(np.max(W, initial=0.0)))
    # E(x) at x = fl(w^2): x^j, j < N = terms / 2, by one cumulative product
    x, N = w * w, terms // 2
    P = np.cumprod(x[:, None].repeat(N - 1, axis=1), axis=1)
    E = 1.0 + P @ np.array(_coefficient_table()[2:terms:2])
    ab = L[1].imag * L[0].real
    centre = (w * E - 0.25 * x).imag + ab
    # G(X) = sum_j |a_2j| X^j <= 1 + 4 t / (1 - t) and G'(X) <= 4 (2 pi)^-2 /
    # (1 - t)^2 at X = W^2, t < 0.92, as a_0 = 1 and |a_2j| <= 4 (2 pi)^-2j
    # (`_series_terms`)
    s = 1.0 / (1.0 - t)                      # two roundings, as t is a bound
    G, dG = 1.0 + 4.0 * t * s, 4.0 / _TWO_PI_DN ** 2 * s * s

    # |log t| <= max(-log gap, log hi) for gap <= t <= hi, up to the allowance
    logs = np.log(np.array([gap, _bound(np.abs(v) + rv, 3)]))
    sup_log = np.maximum(-logs[0], logs[1]) + _log_rad(logs).max(axis=0)
    grad = sup_log[0] / gap[1] + sup_log[1] / gap[0]
    # Term j of fl(F) carries gamma_(6j+N+5) (x and its j - 1 products, the
    # table's rounding, the product and sum of the matrix product, 1 +, the
    # product by w, the subtraction): in all u (6 W X G'(X) + (N + 5) F+(W)),
    # F+(W) = W G(X) + X / 4.  The error of w moves F by at most |w - fl(w)|
    # (G(X) + 2 X G'(X) + W / 2), and _TINY covers the centre's underflows.
    # The first term of the radius carries 19 roundings, the most.
    rad = (_gamma(1) * (6 * W * X * dG + (N + 5) * (W * G + 0.25 * X)) + tail
           + L_rad[1] * (G + 2 * X * dG + 0.5 * W)
           + np.abs(L[1].imag) * L_rad[0]
           + L_rad[1] * (np.abs(L[0].real) + L_rad[0])
           + _gamma(1) * (np.abs(ab) + np.abs(centre)) + rv[0] * grad + _TINY)
    return sign * centre, _bound(rad, 19)


def _series_bounds(w, w_rad):
    """W >= |w| + w_rad, so |w| and |fl(w)| are <= W when fl(w) is within
    w_rad of w; X = fl(W^2), and t >= W^2 / (2 pi)^2, as the float
    _TWO_PI_DN^2 is below (2 pi)^2."""
    from ._ball import _bound
    W = _bound(abs(w) + w_rad, 3)
    X = W * W
    return W, X, _bound(X / _TWO_PI_DN ** 2, 2)


def interval_volume(rows) -> Enclosure:
    """Enclosure of the volume: the sum of D over shape boxes.

    `rows` is n x 4, one box (re.lo, re.hi, im.lo, im.hi) per row, as
    `Certificate.enclosures` and its JSON hold them.  Each reaches the
    kernel as a disc: its centre, and a bound on its half-diagonal.  Input
    that is not such rows, a row with NaN or lo > hi, or an int entry of
    modulus above 2^53 (no float holds it) is a ValueError.
    """
    import numpy as np
    from ._ball import _ball_sum, _bound
    ends = np.asarray(rows)         # ragged rows raise ValueError here
    if ends.dtype.kind not in "fiu" or ends.ndim != 2 or ends.shape[1] != 4:
        raise ValueError(f"boxes are not n x 4 rows of reals: {ends.dtype} "
                         f"{ends.shape}")
    # asarray reads an int above 2^53 as the nearest float, not outward
    big = [] if ends is rows and ends.dtype.kind == "f" else [
        (i, int(x)) for i, row in enumerate(rows) for x in row
        if isinstance(x, (int, np.integer)) and abs(int(x)) > 2 ** 53]
    if big:
        raise ValueError(f"box {big[0][0]} has the entry {big[0][1]}, of "
                         "modulus above 2^53, which floats do not hold")
    ends = ends.T.astype(float, copy=False)
    lo, hi = ends[0::2], ends[1::2]
    bad = np.flatnonzero(~(lo <= hi).all(axis=0))      # also NaN
    if bad.size:
        raise ValueError(f"box {bad[0]} {ends[:, bad[0]].tolist()} has NaN "
                         f"or lo > hi")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            mid = 0.5 * (lo + hi)
            half = _bound(np.hypot(*np.maximum(hi - mid, mid - lo)), 3)
            total, err = _ball_sum(*_ball_bloch_wigner(mid[0] + 1j * mid[1], half))
    except FloatingPointError as exc:
        raise EnclosureDomainError(f"ball arithmetic overflowed: {exc}") from None
    return Enclosure(math.nextafter(total - err, -math.inf), _up(total + err))
