"""Exact two-bridge calculus: continued fractions, normal forms, signatures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandforge import tangle
from bandforge.tangle import (Fraction, TwoBridge, check_conway,
                              conway_expand, cosmetic_band_partner,
                              eval_conway, four_move_signature_obstruction,
                              is_unlinking_number_one, mirror_two_bridge,
                              normalize_two_bridge, signature_two_bridge,
                              two_bridge_equivalent, two_bridge_from_fraction,
                              verify_chirally_cosmetic)

nonzero_entries = st.lists(
    st.integers(min_value=-6, max_value=6).filter(lambda a: a != 0),
    min_size=1, max_size=6).map(tuple)


# ------------------------------------------------------------ Conway forms

def test_eval_conway_worked_examples():
    assert eval_conway((3, 2, -3)) == Fraction(18, 5)
    assert eval_conway((4, -3, 2)) == Fraction(18, 5)
    assert eval_conway((2,)) == Fraction(2, 1)
    assert eval_conway((-2,)) == Fraction(-2, 1)
    # 2 + 1/(3 + 1/2) = 16/7
    assert eval_conway((2, 3, 2)) == Fraction(16, 7)


def test_eval_conway_can_reach_infinity():
    # the tail 1 + 1/(-1) vanishes, so the head lands on 1/0
    assert eval_conway((1, 1, -1)) == Fraction(1, 0)


def test_check_conway_rejects_garbage():
    with pytest.raises(ValueError):
        check_conway(())
    with pytest.raises(ValueError):
        check_conway((3, 0, 2))
    with pytest.raises(ValueError):
        check_conway((3, 1.5))


def test_conway_expand_example():
    assert conway_expand(18, 5) == (4, -3, 2)


def test_conway_expand_reduces_first():
    # a fraction is its reduced form
    assert conway_expand(36, 10) == conway_expand(18, 5)
    assert conway_expand(18, -13) == conway_expand(18, 5)


@given(nonzero_entries)
@settings(max_examples=300, deadline=None)
def test_expand_round_trip(cf):
    fr = eval_conway(cf)
    if fr.q == 0 or abs(fr.p) < 2:
        return
    tb = normalize_two_bridge(fr.p, fr.q)
    back = eval_conway(conway_expand(fr.p, fr.q))
    assert (back.p, back.q) == (tb.p, tb.q)


@given(nonzero_entries)
@settings(max_examples=300, deadline=None)
def test_expand_produces_valid_form(cf):
    fr = eval_conway(cf)
    if fr.q == 0 or abs(fr.p) < 2:
        return
    out = conway_expand(fr.p, fr.q)
    check_conway(out)
    # after the head, nearest-integer remainders satisfy |1/r| >= 2
    assert all(abs(a) >= 2 for a in out[1:])


# ------------------------------------------------------------ normal forms

def test_normalize_two_bridge():
    assert normalize_two_bridge(49, -19) == TwoBridge(49, 30)
    assert normalize_two_bridge(18, 5) == TwoBridge(18, 5)
    # -18/5 = 18/-5, so the normal form is S(18, 13)
    assert normalize_two_bridge(-18, 5) == TwoBridge(18, 13)
    tb = normalize_two_bridge(18, 23)
    assert tb == TwoBridge(18, 5)


def test_normalize_rejects_degenerate():
    # TwoBridge holds the rules: p >= 2, q not 0 mod p, p and q coprime
    for p, q in [(0, 1), (1, 3), (-1, 3), (4, 2), (4, 8), (6, -4), (5, 0),
                 (5, 10)]:
        with pytest.raises(ValueError):
            normalize_two_bridge(p, q)


def test_two_bridge_from_fraction_matches_normalize():
    assert two_bridge_from_fraction(Fraction(-49, 19)) == TwoBridge(49, 30)
    assert two_bridge_from_fraction(Fraction(-18, 5)) == TwoBridge(18, 13)
    for fr in (Fraction(1, 0), Fraction(0, 1), Fraction(-1, 3), Fraction(1, 3)):
        with pytest.raises(ValueError):
            two_bridge_from_fraction(fr)


def test_equivalence_inverse_rule():
    # q q' = 1 mod p identifies the same link
    assert two_bridge_equivalent(TwoBridge(5, 2), TwoBridge(5, 3))
    assert two_bridge_equivalent(TwoBridge(18, 5), TwoBridge(18, 11))
    assert not two_bridge_equivalent(TwoBridge(18, 5), TwoBridge(18, 7))
    assert not two_bridge_equivalent(TwoBridge(18, 5), TwoBridge(20, 3))


def test_equivalence_does_not_identify_mirrors():
    tb = TwoBridge(18, 5)
    assert not two_bridge_equivalent(tb, mirror_two_bridge(tb))


def test_mirror():
    assert mirror_two_bridge(TwoBridge(18, 5)) == TwoBridge(18, 13)
    tb = TwoBridge(49, 30)
    assert mirror_two_bridge(mirror_two_bridge(tb)) == tb


# ------------------------------------------------------------ bandings

def test_unlinking_number_one_witness():
    assert is_unlinking_number_one(TwoBridge(18, 5)) == (3, 1)
    assert is_unlinking_number_one(TwoBridge(8, 3)) == (2, 1)
    # even numerator but not twice a square
    assert is_unlinking_number_one(TwoBridge(12, 5)) is None
    # 2n^2 but no admissible m: S(8, 1) is the (2,8) torus link
    assert is_unlinking_number_one(TwoBridge(8, 1)) is None


def test_unlinking_classification_rejects_knots():
    with pytest.raises(ValueError):
        is_unlinking_number_one(TwoBridge(5, 1))
    with pytest.raises(ValueError):
        is_unlinking_number_one(TwoBridge(49, 30))


def test_unlinking_witness_reconstructs_the_link():
    for p, q in [(18, 5), (8, 3), (32, 7), (50, 9)]:
        witness = is_unlinking_number_one(TwoBridge(p, q))
        if witness is None:
            continue
        n, m = witness
        assert p == 2 * n * n
        candidates = {normalize_two_bridge(2 * n * n, 2 * n * m - 1),
                      normalize_two_bridge(2 * n * n, 2 * n * m + 1)}
        assert any(two_bridge_equivalent(TwoBridge(p, q), c)
                   for c in candidates)


def _witness_by_search(tb):
    """The former search over m in [1, n], kept as the reference."""
    n = math.isqrt(tb.p // 2)
    if 2 * n * n != tb.p:
        return None
    for m in range(1, n + 1):
        if math.gcd(m, n) != 1:
            continue
        for sign in (1, -1):
            q = 2 * n * m + sign
            if 0 < q < tb.p and two_bridge_equivalent(tb, TwoBridge(tb.p, q)):
                return (n, m)
    return None


def test_unlinking_witness_matches_the_search():
    for n in range(1, 31):
        p = 2 * n * n
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                tb = TwoBridge(p, q)
                assert is_unlinking_number_one(tb) == _witness_by_search(tb)


def test_unlinking_witness_at_huge_p():
    n = 10 ** 30
    p = 2 * n * n
    for q in (2 * n * 7 + 1, 2 * n * 7 - 1, pow(2 * n * 7 + 1, -1, p)):
        assert is_unlinking_number_one(TwoBridge(p, q)) == (n, 7)
    assert is_unlinking_number_one(TwoBridge(p, 3)) is None


def test_cosmetic_band_partner():
    assert cosmetic_band_partner((3, 2, -3)) == (3, -2, -3)
    assert cosmetic_band_partner((3, -2, -3)) == (3, 2, -3)
    assert cosmetic_band_partner((2,)) == (-2,)


def test_cosmetic_band_partner_rejects_bad_shape():
    with pytest.raises(ValueError):
        cosmetic_band_partner((3, 2))          # even length
    with pytest.raises(ValueError):
        cosmetic_band_partner((3, 4, -3))      # middle not +-2
    with pytest.raises(ValueError):
        cosmetic_band_partner((3, 2, 3))       # flanks not antisymmetric


def test_verify_chirally_cosmetic():
    assert verify_chirally_cosmetic((3, 2, -3))
    assert verify_chirally_cosmetic((4, 1, -2, -1, -4))
    # degenerate palindrome: both members evaluate to the two-component unlink
    assert eval_conway((-1, 1, 2, -1, 1)).p == 0
    assert verify_chirally_cosmetic((-1, 1, 2, -1, 1))


@given(st.lists(st.integers(min_value=-4, max_value=4).filter(bool),
                min_size=0, max_size=4),
       st.sampled_from([2, -2]))
@settings(max_examples=300, deadline=None)
def test_palindrome_partner_is_mirror(flank, middle):
    cf = tuple(flank) + (middle,) + tuple(-a for a in reversed(flank))
    fr = eval_conway(cf)
    assert verify_chirally_cosmetic(cf)
    p = abs(fr.p)
    n = math.isqrt(p // 2)
    assert 2 * n * n == p  # numerator is twice a square (n = 0: the unlink)


# ------------------------------------------------------------ signatures

def test_signature_anchors():
    assert signature_two_bridge(TwoBridge(5, 1)) == -4
    assert signature_two_bridge(TwoBridge(5, 4)) == 4
    # figure-eight is amphicheiral
    assert signature_two_bridge(TwoBridge(5, 2)) == 0
    assert signature_two_bridge(TwoBridge(3, 1)) == -2


def test_signature_torus_family():
    # S(2k+1, 1) is the (2, 2k+1) torus knot with signature -2k
    for k in range(1, 16):
        assert signature_two_bridge(TwoBridge(2 * k + 1, 1)) == -2 * k


def test_signature_rejects_links():
    # the formula is for knots (p odd); two-component links are out of scope
    with pytest.raises(ValueError):
        signature_two_bridge(TwoBridge(2, 1))
    with pytest.raises(ValueError):
        signature_two_bridge(TwoBridge(18, 5))


@pytest.mark.parametrize("p", range(3, 60, 2))
def test_signature_is_an_invariant(p):
    for q in range(1, p):
        if math.gcd(p, q) != 1:
            continue
        tb = TwoBridge(p, q)
        s = signature_two_bridge(tb)
        qinv = pow(q, -1, p)
        assert signature_two_bridge(TwoBridge(p, qinv)) == s
        assert signature_two_bridge(mirror_two_bridge(tb)) == -s


def test_four_move_obstruction():
    assert four_move_signature_obstruction(TwoBridge(5, 1), TwoBridge(5, 4))
    # signature gap 4 is not an obstruction
    assert not four_move_signature_obstruction(TwoBridge(5, 1),
                                               TwoBridge(5, 2))
    assert not four_move_signature_obstruction(TwoBridge(5, 1),
                                               TwoBridge(5, 1))


def _signature_by_expansion(tb):
    """The former all-even continued fraction and Jacobi count, kept as
    the reference: the expansion [c_1, ..., c_n] of p/q' (q' the even
    representative of q in (-p, p)) under v = c - 1/w is the diagonal of a
    tridiagonal form with off-diagonal 1, whose signature is counted from
    the signs of its leading principal minors."""
    num, den, cs = tb.p, tb.q if tb.q % 2 == 0 else tb.q - tb.p, []
    while True:
        if den < 0:
            num, den = -num, -den
        c = 2 * ((num + den) // (2 * den))      # the nearest even integer
        cs.append(c)
        if c * den == num:
            break
        num, den = den, c * den - num
    assert all(c != 0 and c % 2 == 0 for c in cs) and len(cs) % 2 == 0
    d_prev, d, sig = 1, cs[0], 1 if cs[0] > 0 else -1
    for c in cs[1:]:
        d_prev, d = d, c * d - d_prev
        sig += 1 if d_prev * d > 0 else -1
    assert abs(d) == tb.p
    return sig


def test_signature_matches_even_expansion():
    pairs = [(p, q) for p in range(3, 400, 2) for q in range(1, p)
             if math.gcd(p, q) == 1]
    assert len(pairs) == 32364
    for p, q in pairs:
        tb = TwoBridge(p, q)
        assert signature_two_bridge(tb) == _signature_by_expansion(tb), tb


def test_signature_at_huge_p():
    assert signature_two_bridge(TwoBridge(10 ** 30 + 1, 1)) == -10 ** 30
    p = 10 ** 30 + 1
    assert (signature_two_bridge(TwoBridge(p, 7))
            == -signature_two_bridge(TwoBridge(p, p - 7)))
    assert four_move_signature_obstruction(TwoBridge(p, 1), TwoBridge(p, 3))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 3000))
def test_floor_sum_matches_the_sum(n, m, a):
    assert tangle._floor_sum(n, m, a) == sum(a * i // m for i in range(n))
