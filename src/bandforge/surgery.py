"""Slope arithmetic and lens-space bookkeeping.

Slopes p/q are projective coprime pairs, (p, q) ~ (-p, -q), with 1/0 the
meridian.  L(p, q) is stored with q reduced mod p into (0, p) when p > 0.
Oriented equivalence of lens spaces is q' = q or q*q' = 1 (mod p)
(orientation-preserving homeomorphism); unoriented equivalence also allows
q' = -q or q*q' = -1 (mod p).  The mirror of L(p, q) is L(p, p - q).
"""

from __future__ import annotations

from math import gcd

from .tangle import (TwoBridge, _Pair, is_unlinking_number_one,
                     normalize_two_bridge)


class Slope(_Pair):
    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise ValueError("slope 0/0 is not a curve")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"slope {self.p}/{self.q} not coprime")
        # canonical projective representative: p > 0, or p = 0 and q > 0
        if self.p < 0 or (self.p == 0 and self.q < 0):
            self.__dict__.update(p=-self.p, q=-self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"


class LensSpace(_Pair):
    def __post_init__(self):
        if self.p < 0:
            raise ValueError(f"L({self.p},{self.q}): p must be nonnegative")
        if self.p > 0 and not 0 < self.q < self.p:
            raise ValueError(f"L({self.p},{self.q}): q must lie in (0, p)")
        if gcd(self.p, abs(self.q)) != 1:
            raise ValueError(f"L({self.p},{self.q}): p, q not coprime")

    def __str__(self):
        return f"L({self.p},{self.q})"


def normalize_lens(p: int, q: int) -> LensSpace:
    """Reduce L(p, q) mod p; accepts negative q as written in the wild."""
    if p < 0:
        p, q = -p, -q
    return LensSpace(p, q % p if p else q)


def slope_distance(a: Slope, b: Slope) -> int:
    """Geometric intersection number |a.p*b.q - b.p*a.q|."""
    return abs(a.p * b.q - b.p * a.q)


def amphicheiral_pair_distance(s: Slope) -> int:
    """Distance between the slopes p/q and -p/q; always 2|pq|."""
    if s.p == 0 or s.q == 0:
        raise ValueError(f"slope {s}: need both p and q nonzero")
    return slope_distance(s, Slope(-s.p, s.q))


def lens_equivalent(a: LensSpace, b: LensSpace, oriented: bool = True) -> bool:
    """Homeomorphism test for lens spaces.

    oriented=True demands an orientation-preserving homeomorphism
    (q' = q or qq' = 1 mod p); oriented=False also accepts the mirror
    relations q' = -q and qq' = -1 mod p.
    """
    if a.p != b.p:
        return False
    p = a.p
    if p == 0:
        return True
    same = b.q % p == a.q % p or (a.q * b.q) % p == 1
    if oriented or same:
        return same
    return (a.q + b.q) % p == 0 or (a.q * b.q) % p == p - 1


def lens_mirror(a: LensSpace) -> LensSpace:
    """Orientation reversal: L(p, q) -> L(p, p - q)."""
    if a.p == 0:
        return a
    return LensSpace(a.p, a.p - a.q)


def double_branched_cover(tb: TwoBridge) -> LensSpace:
    """The double cover of the 3-sphere branched over S(p, q) is L(p, q)."""
    return LensSpace(tb.p, tb.q)


def matignon_family(m: int, n: int) -> tuple:
    """The pair (L(2m^2, 2mn-1), S(2m^2, 2mn-1)) for coprime m, n with 2n <= m.

    Checks that the link admits an unlinking-number-one witness; the lens
    space is its double branched cover by construction.
    """
    if m <= 0 or n <= 0:
        raise ValueError(f"(m, n) = ({m}, {n}): need positive integers")
    if gcd(m, n) != 1:
        raise ValueError(f"(m, n) = ({m}, {n}): need gcd(m, n) = 1")
    if 2 * n > m:
        raise ValueError(f"(m, n) = ({m}, {n}): need 2n <= m")
    p, q = 2 * m * m, 2 * m * n - 1
    lens = normalize_lens(p, q)
    link = normalize_two_bridge(p, q)
    if is_unlinking_number_one(link) is None:
        raise RuntimeError(f"{link} has no unlinking-number-one witness")
    return (lens, link)


def bhw_example_report() -> list:
    """Consistency checks for the distance-one lens pair L(49,-19), L(49,-18).

    Returns a list of (name, passed, detail) triples; every check is
    expected to pass.
    """
    checks = []

    lhs = normalize_lens(49, -19)
    checks.append(("normalize L(49,-19)", lhs == LensSpace(49, 30), str(lhs)))

    mirrored = lens_mirror(lhs)
    partner = normalize_lens(49, -18)
    ok = lens_equivalent(mirrored, partner, oriented=True)
    checks.append(
        ("mirror is L(49,-18) oriented",
         mirrored == LensSpace(49, 19) and ok,
         f"{mirrored} ~ {partner}"))

    d = slope_distance(Slope(19, 1), Slope(18, 1))
    checks.append(("slope distance 19 vs 18", d == 1, f"distance {d}"))

    knot = normalize_two_bridge(49, -19)
    checks.append(("S(49,-19) normalizes", knot == TwoBridge(49, 30), str(knot)))

    return checks
