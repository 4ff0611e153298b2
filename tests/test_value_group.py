from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valuata.errors import UsageError
from valuata.value_group import (INFINITY, GroupElt, GroupKind, ValueGroup,
                                 _is_p_power, ge, parse_group_elt)

fractions = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


def test_rank_one_construction():
    a = ge(Fraction(3, 2))
    assert a.rank == 1
    assert str(a) == "3/2"
    assert parse_group_elt("3/2") == a


def test_rank_two_construction():
    a = ge(-1, 0)
    assert a.rank == 2
    assert str(a) == "(-1, 0)"
    assert parse_group_elt("(-1, 0)") == a


def test_bad_rank_rejected():
    with pytest.raises(UsageError):
        GroupElt(())
    with pytest.raises(UsageError):
        GroupElt((Fraction(1), Fraction(2), Fraction(3)))


def test_mixed_rank_rejected():
    with pytest.raises(UsageError):
        ge(1) + ge(1, 2)


def test_lex_order():
    assert ge(0, 5) < ge(1, -100)
    assert ge(1, -100) < ge(1, 0)
    assert not ge(1, 0) < ge(1, 0)


def test_infinity_is_maximal():
    assert ge(10**9) < INFINITY
    assert INFINITY > ge(10**9)
    assert not INFINITY < ge(0)
    assert INFINITY == INFINITY
    with pytest.raises(UsageError):
        -INFINITY


def test_membership_int():
    g = ValueGroup(GroupKind.INT, 2)
    assert g.contains(ge(3))
    assert not g.contains(ge(Fraction(1, 2)))
    assert g.is_p_divisible(ge(4)) == ge(2)
    assert g.is_p_divisible(ge(3)) is None


def test_membership_int_inv_p():
    g = ValueGroup(GroupKind.INT_INV_P, 2)
    assert g.contains(ge(Fraction(3, 8)))
    assert not g.contains(ge(Fraction(1, 3)))
    assert g.is_p_divisible(ge(Fraction(1, 8))) == ge(Fraction(1, 16))


def test_membership_rat_and_lex2():
    r = ValueGroup(GroupKind.RAT, 3)
    assert r.contains(ge(Fraction(5, 7)))
    assert r.is_p_divisible(ge(1)) == ge(Fraction(1, 3))
    l2 = ValueGroup(GroupKind.LEX2, 2)
    assert l2.rank == 2
    assert l2.contains(ge(Fraction(1, 3), Fraction(-2, 5)))
    assert not l2.contains(ge(1))
    assert l2.is_p_divisible(ge(-1, 0)) == ge(Fraction(-1, 2), 0)


def test_compare_requires_membership():
    g = ValueGroup(GroupKind.INT, 2)
    with pytest.raises(UsageError):
        g.check_member(ge(Fraction(1, 2)))
    assert g.check_member(ge(1)) < g.check_member(ge(2))
    assert ge(2) == ge(2) and not ge(2) < ge(2)
    assert ge(3) > ge(2)


@given(fractions, fractions)
def test_addition_commutes(a, b):
    assert ge(a) + ge(b) == ge(b) + ge(a)


@given(fractions, fractions, fractions)
def test_order_is_translation_invariant(a, b, c):
    assert (ge(a) < ge(b)) == (ge(a) + ge(c) < ge(b) + ge(c))


@given(fractions, st.integers(min_value=1, max_value=11))
def test_scale_then_divide_round_trips(a, n):
    assert ge(a).scale(n).divide(n) == ge(a)


@given(fractions, fractions)
def test_str_parse_round_trip(a, b):
    for v in (ge(a), ge(a, b)):
        assert parse_group_elt(str(v)) == v


def _is_p_power_by_division(n, p):
    while n % p == 0:
        n //= p
    return n == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_p_power_agrees_with_repeated_division(p):
    for k in range(601):
        power = p ** k
        for n in (power, 2 * power, 3 * power, (p + 1) * power, power + 1,
                  power - 1, power * p - 1, power * p + 1):
            if n >= 1:
                assert _is_p_power(n, p) == _is_p_power_by_division(n, p), (n, p)
    assert _is_p_power(1, p)


@given(st.integers(min_value=1, max_value=10**6), st.integers(0, 600),
       st.sampled_from([2, 3, 5, 7]))
def test_is_p_power_of_a_multiple(m, k, p):
    n = m * p ** k
    assert _is_p_power(n, p) == (_is_p_power_by_division(m, p))
