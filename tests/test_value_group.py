import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valuata.errors import UsageError
from valuata.value_group import (INFINITY, GroupElt, GroupKind, ValueGroup,
                                 _is_p_power, ge, parse_group_elt)

from routes import is_p_divisible

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


def test_printing_past_the_integer_digit_limit_is_a_usage_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(UsageError, match=f"{limit}-digit limit"):
        str(GroupElt.packed(1, 2 ** 20000))
    with pytest.raises(UsageError, match=f"{limit}-digit limit"):
        str(GroupElt.packed((0, 1), (1, 2 ** 20000)))


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
    assert is_p_divisible(g, ge(4)) == ge(2)
    assert is_p_divisible(g, ge(3)) is None


def test_membership_int_inv_p():
    g = ValueGroup(GroupKind.INT_INV_P, 2)
    assert g.contains(ge(Fraction(3, 8)))
    assert not g.contains(ge(Fraction(1, 3)))
    assert is_p_divisible(g, ge(Fraction(1, 8))) == ge(Fraction(1, 16))


def test_membership_rat_and_lex2():
    r = ValueGroup(GroupKind.RAT, 3)
    assert r.contains(ge(Fraction(5, 7)))
    assert is_p_divisible(r, ge(1)) == ge(Fraction(1, 3))
    l2 = ValueGroup(GroupKind.LEX2, 2)
    assert l2.rank == 2
    assert l2.contains(ge(Fraction(1, 3), Fraction(-2, 5)))
    assert not l2.contains(ge(1))
    assert is_p_divisible(l2, ge(-1, 0)) == ge(Fraction(-1, 2), 0)


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


# -- the packed layout against a Fraction-tuple reference ----------------------------

KINDS = [ValueGroup(GroupKind.INT, 2), ValueGroup(GroupKind.INT_INV_P, 3),
         ValueGroup(GroupKind.RAT, 5), ValueGroup(GroupKind.LEX2, 2)]


@st.composite
def reference(draw, group):
    """A value of the group as the reference's tuple of Fractions."""
    def coordinate():
        n = draw(st.integers(-10**6, 10**6))
        if group.kind is GroupKind.INT:
            return Fraction(n)
        if group.kind is GroupKind.INT_INV_P:
            return Fraction(n, group.p ** draw(st.sampled_from((0, 1, 2, 7, 64))))
        return Fraction(n, draw(st.sampled_from((1, 2, 3, 6, 7, 2 ** 70))))
    return tuple(coordinate() for _ in range(group.rank))


cases = st.sampled_from(KINDS).flatmap(
    lambda g: st.tuples(st.just(g), reference(g), reference(g), st.integers(-12, 12)))


def ref_str(ref):
    return str(ref[0]) if len(ref) == 1 else "({}, {})".format(*ref)


def built_every_way(ref):
    """The same value from the rational constructor, ge, text, and packed
    fields that are not least."""
    num = tuple(f.numerator * 6 for f in ref)
    den = tuple(f.denominator * 6 for f in ref)
    packed = GroupElt.packed(num[0], den[0]) if len(ref) == 1 else GroupElt.packed(num, den)
    return [GroupElt(ref), ge(*ref), GroupElt([str(f) for f in ref]),
            parse_group_elt(ref_str(ref)), packed]


def agrees(value, ref):
    """value is the reference value, in its least layout."""
    assert value.parts == ref
    assert value == GroupElt(ref) and hash(value) == hash(GroupElt(ref))
    assert str(value) == ref_str(ref)


@given(cases)
def test_packed_values_agree_with_fraction_tuples(case):
    group, ra, rb, n = case
    ways = built_every_way(ra)
    for g in ways:
        agrees(g, ra)
        assert g.rank == group.rank and group.contains(g)
        assert parse_group_elt(str(g)) == g
    assert len({hash(g) for g in ways}) == 1
    a, b = ways[-1], GroupElt(rb)
    agrees(a + b, tuple(x + y for x, y in zip(ra, rb)))
    agrees(a - b, tuple(x - y for x, y in zip(ra, rb)))
    agrees(-a, tuple(-x for x in ra))
    agrees(a.scale(n), tuple(x * n for x in ra))
    if n:
        agrees(a.divide(n), tuple(x / n for x in ra))
    else:
        with pytest.raises(ZeroDivisionError):
            a.divide(n)
    assert a.is_zero() == all(x == 0 for x in ra)
    assert (a < b, a <= b, a > b, a >= b, a == b) == (ra < rb, ra <= rb, ra > rb,
                                                    ra >= rb, ra == rb)
    assert (a < INFINITY, a <= INFINITY, a > INFINITY, a >= INFINITY) == (True, True,
                                                                          False, False)
    assert a != INFINITY and INFINITY != a and INFINITY > a and not INFINITY < a


@given(cases)
def test_is_p_divisible_agrees_with_fraction_tuples(case):
    group, ra, _, _ = case
    half = tuple(x / group.p for x in ra)
    got = is_p_divisible(group, GroupElt(ra))
    if group.kind is GroupKind.INT and half[0].denominator != 1:
        assert got is None
    else:
        agrees(got, half)


def test_comparisons_refuse_mixed_ranks_and_non_values():
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__add__", "__sub__"):
        with pytest.raises(UsageError):
            getattr(ge(1), op)(ge(1, 2))
        with pytest.raises(TypeError):
            getattr(ge(1), op)(1)
    assert ge(1) != ge(1, 0) and ge(1) != 1


def test_arithmetic_comparison_hash_and_membership_build_no_fraction(monkeypatch):
    pairs = [(group, GroupElt((Fraction(-5, 9),) * group.rank),
              GroupElt((Fraction(7, 3),) * group.rank)) for group in KINDS[2:]]
    pairs += [(KINDS[0], ge(4), ge(-3)), (KINDS[1], ge(Fraction(1, 9)), ge(2))]
    built = []
    new = Fraction.__new__

    def counted(*args, **kwargs):
        built.append(args)
        return new(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    results = [[a + b, a - b, -a, a.scale(-3), a.divide(-4), a.is_zero(), hash(a),
                a < b, a <= b, a > b, a >= b, a == b, a < INFINITY,
                group.contains(a), group.check_member(b), is_p_divisible(group, a)]
               for group, a, b in pairs]
    monkeypatch.undo()
    assert len(results) == 4 and built == []
