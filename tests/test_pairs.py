"""What the four (p, q) value types promise: `Fraction`, `TwoBridge`,
`Slope` and `LensSpace` compare, hash, print and refuse change the way a
frozen dataclass of two int fields does."""

import copy
import pickle

import pytest

from bandforge.surgery import LensSpace, Slope
from bandforge.tangle import Fraction, TwoBridge

PAIRS = [Fraction(5, 1), TwoBridge(5, 1), Slope(5, 1), LensSpace(5, 1)]
NAMES = [type(pair).__name__ for pair in PAIRS]


@pytest.mark.parametrize("pair", PAIRS, ids=NAMES)
def test_equal_and_hashed_within_one_class(pair):
    twin = type(pair)(5, 1)
    assert twin == pair and not twin != pair and twin is not pair
    assert hash(twin) == hash(pair) == hash((5, 1))
    assert {pair: "x"}[twin] == "x" and len({pair, twin}) == 1
    assert pair != type(pair)(7, 2)


@pytest.mark.parametrize("pair", PAIRS, ids=NAMES)
def test_never_equal_to_a_tuple_or_another_pair_class(pair):
    assert pair != (5, 1) and not pair == (5, 1) and (5, 1) != pair
    assert pair != [5, 1] and pair != 5
    others = [other for other in PAIRS if type(other) is not type(pair)]
    assert len(others) == 3
    assert all(pair != other and not pair == other for other in others)
    assert len(set(PAIRS)) == 4


@pytest.mark.parametrize("pair", PAIRS, ids=NAMES)
def test_repr_names_the_class_and_both_fields(pair):
    assert repr(pair) == f"{type(pair).__name__}(p=5, q=1)"


def test_str_is_the_notation_of_each_type():
    assert [str(pair) for pair in PAIRS] == ["5/1", "S(5,1)", "5/1", "L(5,1)"]


@pytest.mark.parametrize("pair", PAIRS, ids=NAMES)
def test_fields_cannot_be_assigned_or_deleted(pair):
    with pytest.raises(AttributeError):
        pair.p = 3
    with pytest.raises(AttributeError):
        pair.q = 2
    with pytest.raises(AttributeError):
        pair.extra = 0
    with pytest.raises(AttributeError):
        del pair.q
    assert (pair.p, pair.q) == (5, 1)


@pytest.mark.parametrize("pair", PAIRS, ids=NAMES)
def test_not_iterable_and_not_ordered(pair):
    with pytest.raises(TypeError):
        iter(pair)
    with pytest.raises(TypeError):
        pair < type(pair)(7, 2)
    with pytest.raises(TypeError):
        pair <= pair
    with pytest.raises(TypeError):
        sorted([pair, type(pair)(7, 2)])


@pytest.mark.parametrize("pair", PAIRS, ids=NAMES)
def test_copies_and_pickles_are_equal_values(pair):
    for clone in (copy.copy(pair), copy.deepcopy(pair),
                  pickle.loads(pickle.dumps(pair))):
        assert type(clone) is type(pair) and clone == pair
        assert repr(clone) == repr(pair)


@pytest.mark.parametrize("pair", PAIRS, ids=NAMES)
def test_class_patterns_match_p_then_q(pair):
    match pair:
        case Fraction(p, q) | TwoBridge(p, q) | Slope(p, q) | LensSpace(p, q):
            assert (p, q) == (5, 1)
        case _:
            pytest.fail(f"{pair!r} matched no class pattern")


@pytest.mark.parametrize("make, p, q, message", [
    (Fraction, 0, 0, "fraction 0/0 is not a value"),
    (Fraction, 2, 4, "fraction 2/4 not reduced"),
    (Fraction, 1, -2, "fraction 1/-2 not sign-normalized"),
    (Fraction, -1, 0, "fraction -1/0 not sign-normalized"),
    (TwoBridge, 1, 0, "S(1,0): p must be >= 2"),
    (TwoBridge, -5, 1, "S(-5,1): p must be >= 2"),
    (TwoBridge, 5, 0, "S(5,0): q must lie in (0, p)"),
    (TwoBridge, 5, 5, "S(5,5): q must lie in (0, p)"),
    (TwoBridge, 6, 2, "S(6,2): p, q not coprime"),
    (Slope, 0, 0, "slope 0/0 is not a curve"),
    (Slope, 4, 2, "slope 4/2 not coprime"),
    (Slope, -4, -2, "slope -4/-2 not coprime"),
    (LensSpace, -1, 1, "L(-1,1): p must be nonnegative"),
    (LensSpace, 5, 0, "L(5,0): q must lie in (0, p)"),
    (LensSpace, 5, 6, "L(5,6): q must lie in (0, p)"),
    (LensSpace, 4, 2, "L(4,2): p, q not coprime"),
    (LensSpace, 0, 2, "L(0,2): p, q not coprime"),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_validation_messages(make, p, q, message):
    with pytest.raises(ValueError) as info:
        make(p, q)
    assert str(info.value) == message


def test_edge_values_that_are_accepted():
    assert (Fraction(1, 0).p, Fraction(0, 1).q, Fraction(-3, 2).p) == (1, 1, -3)
    assert (LensSpace(0, 1).q, LensSpace(0, -1).q, LensSpace(2, 1).p) == (1, -1, 2)
    assert TwoBridge(2, 1) == TwoBridge(2, 1)


def test_slope_normalizes_the_projective_sign():
    assert Slope(-1, -2) == Slope(1, 2)
    assert hash(Slope(-1, -2)) == hash((1, 2))
    assert repr(Slope(-1, -2)) == "Slope(p=1, q=2)"
    assert repr(Slope(-3, 2)) == "Slope(p=3, q=-2)"
    assert repr(Slope(0, -1)) == "Slope(p=0, q=1)"
    assert repr(Slope(-1, 0)) == "Slope(p=1, q=0)"
    assert Slope(3, -2) == Slope(-3, 2) != Slope(3, 2)
