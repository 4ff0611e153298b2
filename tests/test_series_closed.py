"""The closed series operations against the validating constructor.

Every operation of hahn_series builds its result without asking the value
group about membership again.  Here each one is compared, on random
elements over every group kind, with the same operation written through
SeriesField.make on the operands' terms, and each result is checked for the
module invariants.  Exponents with denominators p**k up to k = 500 stand
for the ends of long Artin-Schreier chains over p-divisible groups.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_group_elts, scale_residue, zero_to
from valuata.best_f import normalize
from valuata.corpus import FIELD_PRESETS
from valuata.dsl import parse_expr
from valuata.errors import InsufficientPrecisionError, UsageError
from valuata.hahn_series import SeriesField, agrees_to_precision
from valuata.residue_field import GF, GFElt
from valuata.value_group import GroupElt, GroupKind, ValueGroup, ge

FIELDS = {
    "int-gf2": SeriesField(GF(2), ValueGroup(GroupKind.INT, 2), ge(24)),
    "int-gf3": SeriesField(GF(3), ValueGroup(GroupKind.INT, 3), ge(24)),
    "int-inv-p-gf2": SeriesField(GF(2), ValueGroup(GroupKind.INT_INV_P, 2), ge(24)),
    "int-inv-p-gf3": SeriesField(GF(3), ValueGroup(GroupKind.INT_INV_P, 3), ge(24)),
    "rat-gf4": SeriesField(GF(2, 2), ValueGroup(GroupKind.RAT, 2), ge(24)),
    "lex2-gf3": SeriesField(GF(3), ValueGroup(GroupKind.LEX2, 3), ge(24, 0)),
}
DEEP = (0, 1, 2, 7, 64, 500)     # exponents of p in the denominators


def fraction(field, draw):
    """A rational coordinate of the field's group, around [-8, 30]."""
    p = field.p
    whole = draw(st.integers(-8, 30))
    kind = field.group.kind
    if kind is GroupKind.INT:
        return Fraction(whole)
    if kind is GroupKind.RAT:
        den = draw(st.sampled_from((1, 2, 3, 5, 12, p ** 500)))
    else:
        den = p ** draw(st.sampled_from(DEEP))
    return whole + Fraction(draw(st.integers(-3, 3)), den)


def exponent(field, draw):
    first = fraction(field, draw)
    if field.group.rank == 1:
        return GroupElt((first,))
    return GroupElt((first, draw(st.integers(-3, 3)) + Fraction(1, draw(st.integers(1, 9)))))


def coefficient(field, draw, nonzero=False):
    return field.residue.from_code(draw(st.integers(int(nonzero), field.residue.q - 1)))


def element(field, draw, max_terms=6):
    terms = [(exponent(field, draw), coefficient(field, draw))
             for _ in range(draw(st.integers(0, max_terms)))]
    precision = exponent(field, draw) if draw(st.booleans()) else None
    return field.make(terms, precision)


def assert_canonical(x):
    """The module invariants, and a rebuild through make changes nothing."""
    group = x.field.group
    keys = [e.parts for e, _ in x.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(c for _, c in x.terms)
    assert all(group.contains(e) for e, _ in x.terms)
    if x.precision is not None:
        assert group.contains(x.precision)
        assert all(e < x.precision for e, _ in x.terms)
    same(x, x.field.make(x.terms, x.precision))


def same(got, want):
    # equal bounds also keep an exact zero apart from a zero to precision
    assert got.terms == want.terms
    assert got.precision == want.precision


def least(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def product_bound(a, b):
    cands = []
    if a.precision is not None:
        cands.append(a.precision + (b.valuation() if b.has_terms() else b.precision))
    if b.precision is not None:
        cands.append(b.precision + (a.valuation() if a.has_terms() else a.precision))
    return min(cands) if cands else None


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_operations_match_make(name, data):
    field = FIELDS[name]
    draw = data.draw
    a = element(field, draw)
    b = element(field, draw)
    for x in (a, b):
        assert_canonical(x)
    prec = least(a.precision, b.precision)
    same(a + b, field.make(a.terms + b.terms, prec))
    same(a - b, field.make(a.terms + tuple((e, -c) for e, c in b.terms), prec))
    same(-a, field.make([(e, -c) for e, c in a.terms], a.precision))
    for x in (a + b, a - b, -a):
        assert_canonical(x)
    if a.is_exact_zero() or b.is_exact_zero():
        assert (a * b).is_exact_zero()
    else:
        want = field.make([(e1 + e2, c1 * c2) for e1, c1 in a.terms
                           for e2, c2 in b.terms], product_bound(a, b))
        same(a * b, want)
        assert_canonical(a * b)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unary_operations_match_make(name, data):
    field = FIELDS[name]
    draw = data.draw
    k = field.residue
    p = field.p
    a = element(field, draw)
    s = exponent(field, draw)
    t = exponent(field, draw)
    c = coefficient(field, draw)

    shifted = a.shift(s)
    same(shifted, field.make([(e + s, x) for e, x in a.terms],
                             None if a.precision is None else a.precision + s))
    same(a.truncate(t), field.make(a.terms, least(t, a.precision)))
    same(scale_residue(a, c), field.make([(e, x * c) for e, x in a.terms], a.precision))
    frob = a.frobenius()
    same(frob, field.make([(e.scale(p), k.frobenius(x)) for e, x in a.terms],
                          None if a.precision is None else a.precision.scale(p)))
    for x in (shifted, a.truncate(t), scale_residue(a, c), frob):
        assert_canonical(x)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_invert_is_canonical_and_inverts(name, data):
    field = FIELDS[name]
    draw = data.draw
    lead = exponent(field, draw)
    # tail gaps of at least 1 keep the inverse to a few dozen terms
    gaps = [exponent(field, draw) for _ in range(draw(st.integers(0, 3)))]
    one_unit = GroupElt((Fraction(1),) + field.group.zero().parts[1:])
    terms = [(lead, coefficient(field, draw, nonzero=True))]
    terms += [(lead + one_unit + GroupElt(tuple(abs(x) for x in g.parts)),
               coefficient(field, draw)) for g in gaps]
    precision = lead + one_unit.scale(30) if draw(st.booleans()) else None
    a = field.make(terms, precision)
    target = one_unit.scale(6)
    try:
        inv = a.invert(target)
    except InsufficientPrecisionError:
        return
    assert_canonical(inv)
    assert agrees_to_precision(a * inv, field.one())


# -- membership is still checked at the boundary --------------------------------

HALF = FIELDS["int-inv-p-gf2"]
INT = FIELDS["int-gf2"]


@pytest.mark.parametrize("field, outsider", [(HALF, ge(Fraction(1, 3))),
                                             (INT, ge(Fraction(1, 2))),
                                             (INT, ge(1, 0))])
def test_non_members_are_refused_at_the_boundary(field, outsider):
    one = field.residue.one()
    x = field.make([(ge(-1), one), (ge(2), one)], ge(10))
    entries = [
        lambda: field.make([(outsider, one)], None),
        lambda: field.make([], outsider),
        lambda: field.monomial(one, outsider),
        lambda: field.monomial(one, ge(1), outsider),
        lambda: zero_to(field, outsider),
        lambda: x.shift(outsider),
        lambda: field.zero().shift(outsider),
        lambda: x.truncate(outsider),
        lambda: field.zero().truncate(outsider),
    ]
    for entry in entries:
        with pytest.raises(UsageError):
            entry()


# -- deterministic work guard -----------------------------------------------------


def test_membership_checks_grow_linearly_with_the_chain(monkeypatch):
    """A 300-step defect chain over Z[1/2] asks the group about membership
    at most a few times per step, not once per term of every intermediate
    result."""
    field = FIELD_PRESETS["gf2-half-powers"].build()
    f = parse_expr("X^(-1)", field)
    calls = [0]
    contains = ValueGroup.contains

    def counting(self, a):
        calls[0] += 1
        return contains(self, a)

    monkeypatch.setattr(ValueGroup, "contains", counting)
    outcome = normalize(f, 300)
    assert outcome.steps == 300
    assert outcome.f_star.valuation() == ge(Fraction(-1, 2 ** 300))
    assert calls[0] <= 5 * outcome.steps


@pytest.mark.parametrize("preset,expr", [("gf2-half-powers", "X^(-1)"),
                                         ("gf2-rationals", "X^(-1)"),
                                         ("gf2-lex2", "X^((-1, 0))")])
def test_normalize_steps_stay_on_packed_values(monkeypatch, preset, expr):
    """Each step of a 300-step defect chain builds at most two GroupElt (the
    valuation classify records and the trajectory entry), no Fraction and
    no GFElt, and asks the group nothing: sign, p-divisibility, root,
    witness and the rise are read off the packed leading term."""
    field = FIELD_PRESETS[preset].build()
    f = parse_expr(expr, field)
    counts = Counter()

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count_group_elts(monkeypatch, counts)
    counting(Fraction, "__new__", "Fraction")
    counting(GFElt, "__init__", "GFElt")
    counting(ValueGroup, "contains", "contains")
    outcome = normalize(f, 300)
    monkeypatch.undo()
    assert outcome.steps == 300
    assert outcome.trajectory[-1] == outcome.f_star.valuation()
    # every improvement is followed by one more classification
    steps = outcome.steps + 1
    assert counts["GroupElt"] <= 2 * steps
    assert counts["Fraction"] == 0
    assert counts["GFElt"] == 0
    assert counts["contains"] == 0
