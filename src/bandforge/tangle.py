"""Continued-fraction and two-bridge arithmetic.

Conventions used throughout:

* A Conway form C(a_0, ..., a_k) is a nonempty list of nonzero integers,
  evaluated right to left as

      x = a_0 + 1/(a_1 + 1/(... + 1/a_k)).

  Evaluation is done with the integer recurrence (p, q) <- (a*p + q, p)
  starting from (a_k, 1), so the formal value 1/0 propagates without any
  division and the result is always in lowest terms.

* S(p, q) denotes the two-bridge link with 0 < q < p, gcd(p, q) = 1.
  Two normalized pairs describe the same unoriented link iff p = p' and
  q' = q or q*q' = 1 (mod p).  Mirrors are NOT identified: the mirror of
  S(p, q) is S(p, p - q).

* Knot signatures follow the convention sigma(S(5,1)) = -4, i.e. the
  torus knot T(2, 2k+1) = S(2k+1, 1) has signature -2k.

`Fraction`, `TwoBridge`, `Slope` and `LensSpace` share `_Pair`, written out
as a frozen dataclass would be, not a namedtuple (which equals tuples), as
`dataclasses` costs a cold integer command ~10% (~10 ms on CPython 3.11).
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import index

ConwayForm = tuple  # tuple of nonzero ints


class _Pair:
    """Immutable (p, q), equal within one class; checked by `__post_init__`."""

    __match_args__ = ("p", "q")

    def __init__(self, p: int, q: int):
        self.__dict__.update(p=p, q=q)
        self.__post_init__()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p!r}, q={self.q!r})"


class Fraction(_Pair):
    """Reduced fraction p/q; (1, 0) encodes the formal value 1/0."""

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise ValueError("fraction 0/0 is not a value")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"fraction {self.p}/{self.q} not reduced")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            raise ValueError(f"fraction {self.p}/{self.q} not sign-normalized")

    def __str__(self):
        return f"{self.p}/{self.q}"


class TwoBridge(_Pair):
    """Normalized Schubert pair S(p, q) with 0 < q < p, gcd(p, q) = 1."""

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"S({self.p},{self.q}): p must be >= 2")
        if not 0 < self.q < self.p:
            raise ValueError(f"S({self.p},{self.q}): q must lie in (0, p)")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"S({self.p},{self.q}): p, q not coprime")

    def __str__(self):
        return f"S({self.p},{self.q})"


def check_conway(cf) -> ConwayForm:
    """Validate and freeze a Conway form (nonempty, all entries nonzero)."""
    try:
        entries = tuple(index(a) for a in cf)
    except TypeError:
        raise ValueError(f"Conway form {list(cf)} has a non-integer entry") from None
    if not entries:
        raise ValueError("Conway form must be nonempty")
    if any(a == 0 for a in entries):
        raise ValueError(f"Conway form {list(entries)} has a zero entry")
    return entries


def eval_conway(cf) -> Fraction:
    """Evaluate C(a_0, ..., a_k) to a reduced fraction.

    Right-to-left nesting: x = a_0 + 1/(a_1 + 1/(... + 1/a_k)).  Internal
    zeros propagate projectively, so e.g. C(1, 1, -1) evaluates to 1/0.
    """
    entries = check_conway(cf)
    p, q = entries[-1], 1
    for a in reversed(entries[:-1]):
        p, q = a * p + q, p
    # the recurrence keeps gcd(p, q) = 1, so the sign fix sends q = 0 to 1/0
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return Fraction(p, q)


def conway_expand(p: int, q: int) -> ConwayForm:
    """Inverse of eval_conway up to two-bridge equivalence.

    Reduces the fraction, normalizes q mod p into (0, p), then runs the
    nearest-integer continued fraction (ties rounded away from zero).
    The output evaluates to normalize_two_bridge(p, q) exactly.
    """
    g = gcd(abs(p), abs(q))
    if g > 1:
        p, q = p // g, q // g
    tb = normalize_two_bridge(p, q)
    num, den = tb.p, tb.q
    entries = []
    while True:
        # nearest integer to num/den, ties away from zero; den > 0 here
        a = (2 * num + den) // (2 * den) if num >= 0 else -((-2 * num + den) // (2 * den))
        entries.append(a)
        r_num, r_den = num - a * den, den  # remainder, |r| <= 1/2
        if r_num == 0:
            break
        num, den = r_den, r_num  # x <- 1/r
        if den < 0:
            num, den = -num, -den
    return check_conway(entries)


def normalize_two_bridge(p: int, q: int) -> TwoBridge:
    """Reduce S(p, q) to the canonical representative with q in (0, p).

    Negative p flips both signs first (p/q and -p/-q present the same link).
    """
    if p < 0:
        p, q = -p, -q
    return TwoBridge(p, q % p if p > 1 else q)


def two_bridge_from_fraction(fr: Fraction) -> TwoBridge:
    """Interpret a Conway-form value as a two-bridge link.

    |p| < 2 or the formal 1/0 has no two-bridge meaning; signs are left
    to `normalize_two_bridge`.
    """
    if fr.q == 0 or abs(fr.p) < 2:
        raise ValueError(f"fraction {fr} does not define a two-bridge link")
    return normalize_two_bridge(fr.p, fr.q)


def two_bridge_equivalent(a: TwoBridge, b: TwoBridge) -> bool:
    """Unoriented two-bridge equivalence: same p and q' = q or qq' = 1 mod p."""
    return a.p == b.p and (a.q == b.q or (a.q * b.q) % a.p == 1)


def mirror_two_bridge(tb: TwoBridge) -> TwoBridge:
    """Mirror image: S(p, q) -> S(p, p - q)."""
    return TwoBridge(tb.p, tb.p - tb.q)


def is_unlinking_number_one(tb: TwoBridge) -> tuple | None:
    """Witness (n, m) with tb equivalent to S(2n^2, 2nm+1) or S(2n^2, 2nm-1).

    Only two-component links (p even) qualify; returns None when p is not
    twice a square or no m in [1, n] coprime to n works.  The pairs
    equivalent to tb are r = q and r = q^-1 mod p, so m is read off
    r -+ 1 = 2nm, and the least such m is returned.
    """
    if tb.p % 2 != 0:
        raise ValueError(f"{tb}: unlinking classification needs p even (a link)")
    n = isqrt(tb.p // 2)
    if 2 * n * n != tb.p:
        return None
    ms = [m for r in (tb.q, pow(tb.q, -1, tb.p))
          for m, rest in (divmod(r - 1, 2 * n), divmod(r + 1, 2 * n))
          if not rest and 1 <= m <= n and gcd(m, n) == 1]
    return (n, min(ms)) if ms else None


def cosmetic_band_partner(cf) -> ConwayForm:
    """Flip the middle entry of an antisymmetric +-2 palindrome.

    The input must have odd length 2k+3 with shape
    (a_0, ..., a_k, +-2, -a_k, ..., -a_0); k = -1 (the bare form [+-2])
    is allowed.  Output is the same form with the middle entry negated.
    """
    entries = check_conway(cf)
    if len(entries) % 2 == 0:
        raise ValueError(f"{list(entries)}: palindrome must have odd length")
    mid = len(entries) // 2
    if abs(entries[mid]) != 2:
        raise ValueError(f"{list(entries)}: middle entry must be +-2")
    for i in range(mid):
        if entries[i] != -entries[-1 - i]:
            raise ValueError(
                f"{list(entries)}: entries {i} and {len(entries)-1-i} "
                "are not antisymmetric")
    return entries[:mid] + (-entries[mid],) + entries[mid + 1:]


def verify_chirally_cosmetic(cf) -> bool:
    """Does flipping the middle +-2 yield the mirror of the original link?

    Degenerate palindromes evaluating to 0/1 denote the two-component
    unlink, which is its own mirror; both members of such a pair must
    evaluate to 0.
    """
    entries = check_conway(cf)
    fr = eval_conway(entries)
    fr_partner = eval_conway(cosmetic_band_partner(entries))
    if fr.p == 0 or fr_partner.p == 0:
        return fr.p == 0 and fr_partner.p == 0
    tb = two_bridge_from_fraction(fr)
    partner = two_bridge_from_fraction(fr_partner)
    return two_bridge_equivalent(partner, mirror_two_bridge(tb))


def _floor_sum(n: int, m: int, a: int) -> int:
    """sum(a*i // m for i in range(n)) for n, m >= 1, a >= 0: a Euclid-style
    reduction that takes whole parts, then swaps the axes (O(log m) steps)."""
    total, b = 0, 0
    while True:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


def signature_two_bridge(tb: TwoBridge) -> int:
    """Signature of the two-bridge knot S(p, q), p odd, in O(log p).

    Murasugi: sigma = -sum_{i=1}^{p-1} (-1)^floor(iq/p), q made odd by
    adding p.  As (-1)^f = 1 - 2(f - 2 floor(f/2)), that sum is
    (p - 1) - 2(F(p) - 2F(2p)) with F(m) = sum_{i<p} floor(iq/m).
    """
    if tb.p % 2 == 0:
        raise ValueError(f"{tb}: signature needs p odd (a knot)")
    p, q = tb.p, tb.q if tb.q % 2 else tb.q + tb.p
    return 2 * (_floor_sum(p, p, q) - 2 * _floor_sum(p, 2 * p, q)) - (p - 1)


def four_move_signature_obstruction(a: TwoBridge, b: TwoBridge) -> bool:
    """True iff |sigma(a) - sigma(b)| > 4, so no single 4-move relates them."""
    return abs(signature_two_bridge(a) - signature_two_bridge(b)) > 4
