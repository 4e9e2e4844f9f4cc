"""Slopes, lens spaces, and the double-branched-cover dictionary."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandforge import surgery
from bandforge.surgery import (LensSpace, Slope, amphicheiral_pair_distance,
                               bhw_example_report, double_branched_cover,
                               lens_equivalent, lens_mirror, matignon_family,
                               normalize_lens, slope_distance)
from bandforge.tangle import TwoBridge, normalize_two_bridge


# ------------------------------------------------------------ slopes

def test_slope_normalization():
    assert Slope(19, 1) == Slope(-19, -1)
    assert Slope(1, 0) == Slope(-1, 0)
    assert Slope(0, 1) == Slope(0, -1)


def test_slope_rejects_noncoprime_and_zero():
    with pytest.raises(ValueError):
        Slope(4, 2)
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_slope_distance_examples():
    assert slope_distance(Slope(19, 1), Slope(18, 1)) == 1
    assert slope_distance(Slope(1, 0), Slope(3, 1)) == 1
    assert slope_distance(Slope(1, 0), Slope(1, 0)) == 0
    assert slope_distance(Slope(2, 3), Slope(3, 5)) == 1


coprime_pairs = st.tuples(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
).filter(lambda t: t != (0, 0) and math.gcd(*t) == 1)


@given(coprime_pairs, coprime_pairs)
@settings(max_examples=200, deadline=None)
def test_slope_distance_symmetric(a, b):
    sa, sb = Slope(*a), Slope(*b)
    assert slope_distance(sa, sb) == slope_distance(sb, sa)
    assert slope_distance(sa, sa) == 0


def test_amphicheiral_pair_distance():
    # distance between p/q and its reflection -p/q is 2|pq|
    assert amphicheiral_pair_distance(Slope(2, 1)) == 4
    assert amphicheiral_pair_distance(Slope(3, 2)) == 12
    with pytest.raises(ValueError):
        amphicheiral_pair_distance(Slope(1, 0))
    with pytest.raises(ValueError):
        amphicheiral_pair_distance(Slope(0, 1))


# ------------------------------------------------------------ lens spaces

def test_normalize_lens():
    assert normalize_lens(49, -19) == LensSpace(49, 30)
    assert normalize_lens(49, 30) == LensSpace(49, 30)
    assert normalize_lens(-49, 19) == LensSpace(49, 30)
    assert normalize_lens(7, 9) == LensSpace(7, 2)


def test_normalize_lens_leaves_the_rules_to_lens_space():
    assert normalize_lens(0, 1) == LensSpace(0, 1)
    assert normalize_lens(0, -1) == LensSpace(0, -1)
    # q must be a unit mod p: 0 mod p, or a common factor, is no lens space
    for p, q in [(0, 0), (0, 5), (7, 0), (7, -14), (6, 3), (-6, 4)]:
        with pytest.raises(ValueError):
            normalize_lens(p, q)


def test_lens_equivalent_oriented():
    # q' = q or q q' = 1 mod p preserves orientation
    assert lens_equivalent(LensSpace(7, 2), LensSpace(7, 4))
    assert not lens_equivalent(LensSpace(7, 2), LensSpace(7, 3))
    assert not lens_equivalent(LensSpace(7, 2), LensSpace(5, 2))


def test_lens_equivalent_unoriented():
    # L(7,2) and L(7,3) = -L(7,2) differ only by orientation
    assert lens_equivalent(LensSpace(7, 2), LensSpace(7, 3), oriented=False)
    assert not lens_equivalent(LensSpace(7, 1), LensSpace(7, 2),
                               oriented=False)


def test_lens_mirror():
    assert lens_mirror(LensSpace(49, 19)) == LensSpace(49, 30)
    m = lens_mirror(LensSpace(7, 2))
    assert m == LensSpace(7, 5)
    assert lens_mirror(m) == LensSpace(7, 2)


@given(st.integers(min_value=2, max_value=60))
@settings(max_examples=60, deadline=None)
def test_lens_mirror_is_an_involution(p):
    for q in range(1, p):
        if math.gcd(p, q) != 1:
            continue
        a = LensSpace(p, q)
        assert lens_mirror(lens_mirror(a)) == a
        assert lens_equivalent(a, lens_mirror(a), oriented=False)


# ------------------------------------------------------------ covers

def test_double_branched_cover():
    assert double_branched_cover(TwoBridge(18, 5)) == LensSpace(18, 5)
    assert double_branched_cover(TwoBridge(49, 30)) == LensSpace(49, 30)


def test_matignon_family_example():
    lens, link = matignon_family(3, 1)
    assert lens == LensSpace(18, 5)
    assert link == normalize_two_bridge(18, 2 * 3 * 1 - 1)


def test_matignon_family_validation():
    with pytest.raises(ValueError):
        matignon_family(4, 2)     # gcd != 1
    with pytest.raises(ValueError):
        matignon_family(3, 2)     # 2n > m
    with pytest.raises(ValueError):
        matignon_family(0, 1)


def test_matignon_family_failed_check_raises(monkeypatch):
    monkeypatch.setattr(surgery, "is_unlinking_number_one", lambda link: None)
    with pytest.raises(RuntimeError, match="witness"):
        matignon_family(3, 1)


def test_matignon_family_range():
    for m in range(2, 9):
        for n in range(1, m // 2 + 1):
            if math.gcd(m, n) != 1:
                continue
            lens, link = matignon_family(m, n)
            assert lens.p == 2 * m * m
            assert double_branched_cover(link) == normalize_lens(lens.p,
                                                                 lens.q)


def test_matignon_family_at_huge_m():
    # the witness is read off q^+-1, so p = 2m^2 ~ 2e40 costs no search
    m = 10 ** 20 + 1
    lens, link = matignon_family(m, 3)
    assert link == TwoBridge(2 * m * m, 6 * m - 1)
    assert double_branched_cover(link) == lens


# ------------------------------------------------------------ the example

def test_bhw_example_report():
    report = bhw_example_report()
    assert len(report) == 4
    assert all(ok for _, ok, _ in report)
    names = [name for name, _, _ in report]
    assert len(set(names)) == 4
