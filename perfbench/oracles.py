"""Independent answers for the `cli-cold` checks, in plain integer arithmetic.

Nothing here imports the package under test: each function recomputes
from first principles what a command's report must say, so a fast wrong
answer is caught rather than timed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def conway_value(entries):
    """(p, q) of a0 + 1/(a1 + 1/(... + 1/ak)) with q >= 0; (1, 0) is 1/0."""
    value = Fraction(entries[-1])
    for a in reversed(entries[:-1]):
        if value is None:          # a + 1/inf = a
            value = Fraction(a)
        elif value == 0:           # a + 1/0 = inf
            value = None
        else:
            value = a + 1 / value
    if value is None:
        return (1, 0)
    return (value.numerator, value.denominator)


def schubert(p, q):
    """Normalized S(p, q) as (p, q mod p), or None when p/q names no link."""
    if p < 0:
        p, q = -p, -q
    if p < 2 or q == 0 or gcd(p, abs(q)) != 1:
        return None
    return (p, q % p)


def same_two_bridge(p, q, q2):
    """Schubert: S(p, q) = S(p, q2) as unoriented links iff q2 = q^(+-1) mod p."""
    return (q - q2) % p == 0 or (q * q2 - 1) % p == 0


def murasugi_signature(p, q):
    """sigma(S(p, q)) = -sum_{i=1}^{p-1} (-1)^floor(i q'/p), q' odd, q' = q mod p.

    Murasugi's closed form; the convention gives sigma(S(5, 1)) = -4.
    Any odd representative works: changing q' by 2p adds 2i to each floor.
    """
    qq = q if q % 2 else q + p
    return -sum(1 if (i * qq // p) % 2 == 0 else -1 for i in range(1, p))


def lens_equal(p, q, q2, oriented):
    """Reidemeister-Brody: L(p, q) = L(p, q2) iff q2 = +-q^(+-1) mod p.

    Orientation-preserving homeomorphisms allow only the + sign.
    """
    if (q2 - q) % p == 0 or (q * q2 - 1) % p == 0:
        return True
    if oriented:
        return False
    return (q2 + q) % p == 0 or (q * q2 + 1) % p == 0


def tri_header(text):
    """Name, header volume, cusp fillings and tetrahedron count of a .tri text."""
    tokens = text.split()
    name, volume = tokens[0], float(tokens[2])
    pos = 5 if tokens[4] == "CS_unknown" else 6
    cusp_count = int(tokens[pos])
    pos += 2
    fillings = []
    for _ in range(cusp_count):
        m, l = int(float(tokens[pos + 1])), int(float(tokens[pos + 2]))
        fillings.append(None if (m, l) == (0, 0) else [m, l])
        pos += 3
    return {"name": name, "volume": volume, "fillings": fillings,
            "tet_count": int(tokens[pos])}
