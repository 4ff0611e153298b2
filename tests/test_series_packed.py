"""The packed series layer against a reference model of its values.

Inside hahn_series a series stores integer exponents over one denominator
per element and integer codes for GF(q) coefficients.  The model here keeps
what the boundary types say a series is: a dict from exponents (tuples of
Fractions) to residue-field elements, and a bound (a tuple of Fractions, or
None for an exact element).  Every operation is written once more on the
model with Fraction and residue-field arithmetic and compared, through the
``terms`` and ``precision`` views, over each group kind and over GF(2),
GF(3), GF(4) and GF(2)(y).  Denominators reach 2**500 over Z[1/2].
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_group_elts
from valuata.as_extension import ASExtension
from valuata.corpus import FIELD_PRESETS
from valuata.dsl import parse_expr
from valuata.errors import InsufficientPrecisionError, UsageError
from valuata.hahn_series import SeriesField
from valuata.residue_field import GF, GFElt, RatFunc
from valuata.value_group import GroupElt, GroupKind, ValueGroup, ge

GF2, GF3, GF4 = GF(2), GF(3), GF(2, 2)
GF2Y = RatFunc(GF2)


def _field(residue, kind):
    rank2 = kind is GroupKind.LEX2
    return SeriesField(residue, ValueGroup(kind, residue.p), ge(24, 0) if rank2 else ge(24))


FIELDS = {
    "int-gf2": _field(GF2, GroupKind.INT),
    "int-gf2y": _field(GF2Y, GroupKind.INT),
    "int-inv-p-gf2": _field(GF2, GroupKind.INT_INV_P),
    "int-inv-p-gf3": _field(GF3, GroupKind.INT_INV_P),
    "rat-gf4": _field(GF4, GroupKind.RAT),
    "rat-gf2y": _field(GF2Y, GroupKind.RAT),
    "lex2-gf3": _field(GF3, GroupKind.LEX2),
    "lex2-gf4": _field(GF4, GroupKind.LEX2),
}


# -- drawing values ----------------------------------------------------------------


def coordinate(field, draw):
    kind = field.group.kind
    whole = draw(st.integers(-6, 20))
    if kind is GroupKind.INT:
        return Fraction(whole)
    if kind is GroupKind.INT_INV_P:
        den = field.p ** draw(st.sampled_from((0, 1, 3, 64, 500)))
    else:
        den = draw(st.sampled_from((1, 2, 3, 4, 6, 2 ** 500)))
    return whole + Fraction(draw(st.integers(-3, 3)), den)


def exponent(field, draw):
    """A value of the group, as the model's tuple of Fractions."""
    first = coordinate(field, draw)
    if field.group.rank == 1:
        return (first,)
    return (first, draw(st.integers(-3, 3)) + Fraction(1, draw(st.integers(1, 6))))


def coefficient(field, draw, nonzero=False):
    k = field.residue
    if isinstance(k, GF):
        return k.from_code(draw(st.integers(int(nonzero), k.q - 1)))
    base = k.base
    num = [base.from_code(draw(st.integers(0, base.q - 1))) for _ in range(draw(st.integers(1, 3)))]
    den = [base.from_code(draw(st.integers(0, base.q - 1))) for _ in range(draw(st.integers(0, 2)))]
    if nonzero and all(c.is_zero() for c in num):
        num[0] = base.one()
    return k.from_polys(num, den + [base.one()])


def drawn(field, draw, max_terms=5):
    """A series and its model, built from the same drawn data."""
    raw = [(exponent(field, draw), coefficient(field, draw))
           for _ in range(draw(st.integers(0, max_terms)))]
    bound = exponent(field, draw) if draw(st.booleans()) else None
    x = field.make([(GroupElt(e), c) for e, c in raw],
                   None if bound is None else GroupElt(bound))
    model = {}
    for e, c in raw:
        model[e] = model[e] + c if e in model else c
    return x, cut(model, bound)


# -- the model ---------------------------------------------------------------------


def cut(terms, bound):
    return ({e: c for e, c in terms.items() if c and (bound is None or e < bound)}, bound)


def plus(e, s):
    return tuple(a + b for a, b in zip(e, s))


def times(e, k):
    return tuple(a * k for a in e)


def least(a, b):
    return b if a is None else a if b is None else min(a, b)


def m_add(a, b):
    terms = dict(a[0])
    for e, c in b[0].items():
        terms[e] = terms[e] + c if e in terms else c
    return cut(terms, least(a[1], b[1]))


def m_neg(a):
    return ({e: -c for e, c in a[0].items()}, a[1])


def m_low(a):
    return min(a[0]) if a[0] else a[1]


def m_mul(a, b):
    if (not a[0] and a[1] is None) or (not b[0] and b[1] is None):
        return {}, None
    bound = None
    if a[1] is not None:
        bound = plus(a[1], m_low(b))
    if b[1] is not None:
        bound = least(bound, plus(b[1], m_low(a)))
    terms = {}
    for e1, c1 in a[0].items():
        for e2, c2 in b[0].items():
            e = plus(e1, e2)
            terms[e] = terms[e] + c1 * c2 if e in terms else c1 * c2
    return cut(terms, bound)


def m_shift(a, s):
    return ({plus(e, s): c for e, c in a[0].items()}, None if a[1] is None else plus(a[1], s))


def m_truncate(a, t):
    return cut(a[0], least(a[1], t))


def m_scale(a, c):
    return cut({e: x * c for e, x in a[0].items()}, a[1])


def m_frobenius(field, a):
    p, k = field.p, field.residue
    return ({times(e, p): k.frobenius(c) for e, c in a[0].items()},
            None if a[1] is None else times(a[1], p))


def m_pth_root(field, a):
    """The model's root, or the text of the error the series must raise."""
    p, k = field.p, field.residue
    terms = {}
    for e, c in sorted(a[0].items()):
        half = times(e, Fraction(1, p))
        if not field.group.contains(GroupElt(half)):
            return "exponent"
        root = k.pth_root(c)
        if root is None:
            return "coefficient"
        terms[half] = root
    bound = None if a[1] is None else times(a[1], Fraction(1, p))
    if bound is not None and not field.group.contains(GroupElt(bound)):
        return "precision bound"
    return terms, bound


def m_invert(field, a, target):
    """The geometric series of the unit part, on the model."""
    k = field.residue
    v = min(a[0])
    lead_inv = k.inv(a[0][v])
    minus_v = times(v, -1)
    unit = m_scale(m_shift(a, minus_v), lead_inv)
    one = ({times(v, 0): k.one()}, None)
    tail = m_add(unit, m_neg(one))
    if not tail[0] and tail[1] is None:
        return m_scale(({minus_v: k.one()}, None if a[1] is None
                        else plus(a[1], times(v, -2))), lead_inv)
    rel = target if a[1] is None else min(target, plus(a[1], minus_v))
    acc = m_truncate(one, rel)
    power = acc
    minus_tail = m_neg(tail)
    while power[0]:
        power = m_truncate(m_mul(power, minus_tail), rel)
        acc = m_add(acc, power)
    return m_scale(m_shift(acc, minus_v), lead_inv)


def agree(x, model):
    terms, bound = model
    assert x.terms == tuple((GroupElt(e), terms[e]) for e in sorted(terms))
    assert x.precision == (None if bound is None else GroupElt(bound))
    # the element equals its own rebuild through the validating constructor
    assert x == x.field.make(x.terms, x.precision)


# -- the checks --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_operations_match_the_model(name, data):
    field = FIELDS[name]
    a, ma = drawn(field, data.draw)
    b, mb = drawn(field, data.draw)
    agree(a, ma)
    agree(a + b, m_add(ma, mb))
    agree(a - b, m_add(ma, m_neg(mb)))
    agree(-a, m_neg(ma))
    agree(a * b, m_mul(ma, mb))


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_unary_operations_match_the_model(name, data):
    field = FIELDS[name]
    draw = data.draw
    a, ma = drawn(field, draw)
    s = exponent(field, draw)
    t = exponent(field, draw)
    c = coefficient(field, draw)
    agree(a.shift(GroupElt(s)), m_shift(ma, s))
    agree(a.truncate(GroupElt(t)), m_truncate(ma, t))
    agree(a.scale_residue(c), m_scale(ma, c))
    frob = a.frobenius()
    agree(frob, m_frobenius(field, ma))
    agree(frob.pth_root(), ma)
    want = m_pth_root(field, ma)
    if isinstance(want, str):
        with pytest.raises(UsageError, match=want):
            a.pth_root()
    else:
        agree(a.pth_root(), want)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_invert_matches_the_model(name, data):
    field = FIELDS[name]
    draw = data.draw
    one_unit = (Fraction(1),) + (Fraction(0),) * (field.group.rank - 1)
    lead = exponent(field, draw)
    # tail gaps of at least 1 keep the inverse to a few dozen terms
    terms = {lead: coefficient(field, draw, nonzero=True)}
    for _ in range(draw(st.integers(0, 2))):
        gap = tuple(abs(x) for x in exponent(field, draw))
        terms[plus(plus(lead, one_unit), gap)] = coefficient(field, draw)
    bound = plus(lead, times(one_unit, 12)) if draw(st.booleans()) else None
    a = field.make([(GroupElt(e), c) for e, c in terms.items()],
                   None if bound is None else GroupElt(bound))
    target = times(one_unit, 5)
    try:
        inv = a.invert(GroupElt(target))
    except InsufficientPrecisionError:
        assert field.group.rank == 2
        return
    agree(inv, m_invert(field, cut(terms, bound), target))


# -- equal values along different paths ----------------------------------------------


def test_equal_values_built_differently_compare_equal():
    field = FIELD_PRESETS["gf2-half-powers"].build()
    one = field.one()
    for product in (parse_expr("X^(1/4)*X^(-1/4)", field),
                    parse_expr("X^(1/1024)", field) * parse_expr("X^(-1/1024)", field),
                    parse_expr("X^(3/4) + 1 + X^(3/4)", field)):
        assert product == one
        assert hash(product) == hash(one)
    f1 = parse_expr("X^(-1)", field)
    f2 = parse_expr("X^(-1/2)", field) * parse_expr("X^(-1/2)", field)
    f3 = parse_expr("X^(-1/8)", field).frobenius().frobenius().frobenius()
    assert f1 == f2 == f3
    assert f1.truncate(ge(Fraction(7, 2))) == f2.truncate(ge(Fraction(7, 2)))
    assert f1 != f1.truncate(ge(3))
    e1, e2 = ASExtension(field, f1), ASExtension(field, f2)
    assert e1 is not e2 and e1 == e2
    # ExtElt._check compares extensions with !=, so mixing is allowed
    assert (e1.alpha() * e2.alpha()).coeffs == (e1.alpha() * e1.alpha()).coeffs


def test_rank_two_values_built_differently_compare_equal():
    field = FIELD_PRESETS["gf2-lex2"].build()
    a = parse_expr("X^((1/2, 1/3)) * X^((-1/2, -1/3))", field)
    assert a == field.one()
    b = parse_expr("X^((-1/4, 3/2))", field).frobenius().frobenius()
    assert b == parse_expr("X^((-1, 6))", field)


def test_rank_two_product_cuts_a_bound_above_every_second_coordinate():
    """A lex2 bound whose second coordinate lies above every sum of second
    coordinates must still cut at its first coordinate."""
    field = FIELD_PRESETS["gf2-lex2"].build()
    a = parse_expr("1 + O(X^((1, 5)))", field)
    b = parse_expr("1 + X^((2, 0))", field)
    assert a * b == parse_expr("1 + O(X^((1, 5)))", field)
    c = parse_expr("X^((0, -3)) + X^((1, 4))", field)
    assert str(a * c) == "X^((0, -3)) + O(X^((1, 2)))"


def test_coefficients_from_another_residue_field_are_refused():
    gf4 = FIELDS["rat-gf4"]
    with pytest.raises(UsageError, match="different residue field"):
        gf4.monomial(GF2.one(), ge(1))
    with pytest.raises(UsageError, match="different residue field"):
        gf4.one().scale_residue(GF3.one())
    with pytest.raises(UsageError, match="different residue field"):
        FIELDS["int-gf2y"].make([(ge(0), GF2.one())], None)


# -- deterministic work guard ---------------------------------------------------------


def test_product_builds_no_boundary_objects(monkeypatch):
    """Multiplying two 40-term series over Z[1/2] builds a constant number
    of GroupElts and no GFElt products, not one per pair of terms."""
    field = FIELD_PRESETS["gf2-half-powers"].build()
    one = field.residue.one()
    a = field.make([(ge(Fraction(k, 4)), one) for k in range(-20, 20)], None)
    b = field.make([(ge(Fraction(3 * k, 8)), one) for k in range(40)], ge(30))
    counts = {"GroupElt": 0, "GFElt.__mul__": 0}
    gf_mul = GFElt.__mul__

    def counted_mul(self, other):
        counts["GFElt.__mul__"] += 1
        return gf_mul(self, other)

    count_group_elts(monkeypatch, counts)
    monkeypatch.setattr(GFElt, "__mul__", counted_mul)
    product = a * b
    total = product + a * a
    counts_seen = dict(counts)
    monkeypatch.undo()
    assert len(product.terms) > 40 and total.has_terms()
    assert counts_seen["GroupElt"] <= 8
    assert counts_seen["GFElt.__mul__"] == 0
