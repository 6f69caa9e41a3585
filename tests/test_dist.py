from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlang.dist import (
    FinDist,
    MassError,
    ONE,
    as_prob,
    dirac,
    dist_eq,
    map_dist,
    weighted_mix,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_dirac_point_masses():
    assert dirac(True).items() == [(True, ONE)]
    assert dirac(7).prob(7) == 1
    assert dirac(("a", "b")).support() == {("a", "b")}
    for value in (True, 7, ("a", "b")):
        assert dirac(value) == FinDist({value: ONE})
        assert repr(dirac(value)) == repr(FinDist({value: ONE}))
    # a weight equal to 1 that is not the ONE object is multiplied, with
    # the same result as the ONE object, which is not
    one = Fraction(2, 2)
    assert one == ONE and one is not ONE
    mix = weighted_mix([(one, FinDist({True: THIRD, False: 2 * THIRD}))])
    assert mix.items() == weighted_mix([(ONE, FinDist({True: THIRD, False: 2 * THIRD}))]).items()
    assert mix.items() == [(True, THIRD), (False, 2 * THIRD)]
    mix = weighted_mix([(HALF, FinDist({7: one})), (HALF, dirac(8))])
    assert mix.items() == weighted_mix([(HALF, dirac(7)), (HALF, dirac(8))]).items()
    assert mix.items() == [(7, HALF), (8, HALF)]


class CountedHash:
    """A value that counts the calls of its ``__hash__``."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


@pytest.mark.parametrize("value", [True, 7, ("a", "b"), None, CountedHash()])
def test_dirac_is_the_general_point_mass(value):
    point, general = dirac(value), FinDist([(value, 1)])
    assert point == general and general == point
    assert point != FinDist([(value, HALF), ("other", HALF)])
    assert point.prob(value) == general.prob(value) == ONE
    assert point.prob("other") == general.prob("other") == 0
    assert point.support() == general.support() == {value}
    assert value in point and "other" not in point
    assert len(point) == len(general) == 1
    assert list(point) == list(general) == [value]
    assert point.items() == general.items() == [(value, ONE)]
    assert repr(point) == repr(general)


def test_dirac_hashes_its_value_only_for_a_lookup():
    value = CountedHash()
    point = dirac(value)
    assert point.items() == [(value, ONE)]
    assert len(point) == 1
    assert [v for v in point] == [value]
    assert value.calls == 0
    assert point.prob(value) == ONE
    assert value.calls > 0


def test_weighted_mix_merges_and_checks_mass():
    d = weighted_mix([(HALF, dirac(True)), (HALF, dirac(False))])
    assert d.prob(True) == HALF and d.prob(False) == HALF
    assert weighted_mix([(ONE, dirac(True))]) == dirac(True)
    merged = weighted_mix([(THIRD, dirac(True)), (Fraction(2, 3), dirac(True))])
    assert merged == dirac(True)
    with pytest.raises(MassError):
        weighted_mix([(HALF, dirac(True))])


def test_weighted_mix_rejects_a_negative_branch():
    # the weights sum to 1, so only the sign check can reject them
    with pytest.raises(MassError, match="negative branch weight -1/2"):
        weighted_mix([(Fraction(-1, 2), dirac(True)), (Fraction(3, 2), dirac(False))])
    with pytest.raises(MassError, match="negative branch weight -1"):
        weighted_mix([(-1, dirac(True)), (2, dirac(False))])


def test_weighted_mix_order_insensitive():
    a = weighted_mix([(THIRD, dirac(1)), (Fraction(2, 3), dirac(2))])
    b = weighted_mix([(Fraction(2, 3), dirac(2)), (THIRD, dirac(1))])
    assert dist_eq(a, b)


def test_map_dist_examples():
    coin = FinDist({True: HALF, False: HALF})
    assert map_dist(coin, lambda b: not b) == coin
    assert map_dist(coin, lambda _: 0) == dirac(0)
    stretched = map_dist(FinDist({1: THIRD, 2: Fraction(2, 3)}), lambda n: n + 1)
    assert stretched == FinDist({2: THIRD, 3: Fraction(2, 3)})


def test_dist_eq_is_support_and_weights():
    assert dist_eq(FinDist({True: HALF, False: HALF}), FinDist({False: HALF, True: HALF}))
    assert not dist_eq(dirac(True), FinDist({True: HALF, False: HALF}))


def test_zero_weights_dropped_and_negative_rejected():
    d = FinDist({True: ONE, False: Fraction(0)})
    assert d.support() == {True}
    with pytest.raises(MassError):
        FinDist({True: Fraction(3, 2), False: Fraction(-1, 2)})
    with pytest.raises(MassError):
        FinDist({True: HALF})


def test_as_prob_bounds():
    assert as_prob("1/3") == THIRD
    assert as_prob(0) == Fraction(0) and as_prob(Fraction(1)) == ONE
    with pytest.raises(ValueError):
        as_prob(Fraction(3, 2))
    with pytest.raises(ValueError, match="out of range"):
        as_prob(Fraction(-1, 3))
    with pytest.raises(ValueError, match="out of range"):
        as_prob("-1/3")


def bind(d, kont):
    """Kleisli extension, written as ``denot.bind`` builds it: one FinDist
    of every continuation outcome, weighted by its branch's weight."""
    return FinDist([(out, w * q) for value, w in d.items() for out, q in kont(value).items()])


@st.composite
def findists(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    values = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size, unique=True))
    cuts = sorted(draw(st.lists(st.integers(1, 11), min_size=size - 1, max_size=size - 1)))
    weights = []
    prev = 0
    for c in cuts + [12]:
        weights.append(Fraction(c - prev, 12))
        prev = c
    return FinDist({v: w for v, w in zip(values, weights) if w > 0})


@settings(max_examples=60, deadline=None)
@given(findists())
def test_monad_right_unit(d):
    assert bind(d, dirac) == d


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9))
def test_monad_left_unit(x):
    kont = lambda n: FinDist({n % 3: HALF, (n + 1) % 3: HALF})
    assert bind(dirac(x), kont) == kont(x)


@settings(max_examples=60, deadline=None)
@given(findists())
def test_monad_associativity(d):
    k = lambda n: FinDist({n % 4: HALF, (n + 1) % 4: HALF})
    h = lambda n: FinDist({n % 2: THIRD, (n + 1) % 2: Fraction(2, 3)})
    assert bind(bind(d, k), h) == bind(d, lambda x: bind(k(x), h))


@settings(max_examples=60, deadline=None)
@given(findists())
def test_total_mass_exactly_one(d):
    assert sum((w for _, w in d.items()), Fraction(0)) == 1
