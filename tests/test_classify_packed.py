"""classify and improve on the packed leading term against the GroupElt route.

The reference functions below are the decision tree and the rise check as
written on boundary types: the valuation as a GroupElt, p-divisibility
through is_p_divisible (tests/routes.py), the unit through shift(-v) and
the root through the residue field's own pth_root.  The library reads the
same answers off the packed leading exponent and coefficient; both routes
must agree on every field of the classification and on every improve
outcome, exceptions included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.best_f import ASClassification, Verdict, classify, improve, normalize
from valuata.corpus import FieldSpec
from valuata.errors import (InsufficientPrecisionError, NoImprovementError,
                            ValuataError)
from valuata.hahn_series import artin_schreier_shift
from valuata.value_group import GroupElt, GroupKind

from routes import is_p_divisible


# -- the reference route -------------------------------------------------------


def reference_classify(f):
    field = f.field
    group = field.group
    k = field.residue
    if f.is_exact_zero():
        return ASClassification(Verdict.TRIVIAL, note="f is exactly zero")
    zero = group.zero()
    if not f.has_terms():
        if f.precision > zero:
            return ASClassification(
                Verdict.TRIVIAL,
                note=f"f is zero to precision {f.precision} > 0")
        raise InsufficientPrecisionError(
            "cannot classify: f is zero to working precision")
    v = f.valuation()
    if v > zero:
        return ASClassification(Verdict.TRIVIAL, valuation=v,
                                note="positive valuation")
    if v == zero:
        fbar = f.residue_class()
        x = k.artin_schreier_preimage(fbar)
        if x is None:
            return ASClassification(Verdict.BEST_III, valuation=v, residue=fbar)
        h = field.from_residue(-x)
        return ASClassification(Verdict.NOT_BEST, valuation=v, improvement_h=h,
                                preimage=x)
    half = is_p_divisible(group, v)
    if half is None:
        return ASClassification(Verdict.BEST_I, valuation=v)
    u = f.shift(-v)
    ubar = u.residue_class()
    root = k.pth_root(ubar)
    if root is None:
        return ASClassification(Verdict.BEST_II, valuation=v, unit=u,
                                unit_residue=ubar)
    h = field.monomial(-root, half)
    return ASClassification(Verdict.NOT_BEST, valuation=v, improvement_h=h)


def reference_improve(f, h):
    old = f.valuation()
    out = artin_schreier_shift(f, h)
    if out.is_exact_zero():
        return out
    try:
        new = out.valuation()
    except InsufficientPrecisionError:
        if out.precision > old:
            return out
        raise
    if not new > old:
        raise NoImprovementError(f"improvement left the valuation at {new} (was {old})")
    return out


def outcome(fn, *args):
    """The result of fn, or the type and text of the library error it raised."""
    try:
        return fn(*args)
    except ValuataError as exc:
        return type(exc), str(exc)


# -- fields and elements ---------------------------------------------------------

GROUPS = ("int", "int-inv-p", "rat", "lex2")
RESIDUES = ("gf:2", "gf:3", "gf:4", "ratfunc:2")
FIELDS = {(g, r): FieldSpec("series", r, g).build() for g in GROUPS for r in RESIDUES}


def _coefficients(k):
    """Nonzero residues; over GF(2)(y) squares and non-squares alike."""
    if hasattr(k, "elements"):
        return [c for c in k.elements() if c]
    y, one = k.gen(), k.one()
    return [one, y, y + one, y * y, y * y + one, y * y + y + one,
            k.inv(y), k.inv(y * y), y * k.inv(y + one)]


COEFFS = {key: _coefficients(field.residue) for key, field in FIELDS.items()}


@st.composite
def coordinate(draw, field):
    n = draw(st.integers(-9, 4))
    kind = field.group.kind
    if kind is GroupKind.INT:
        return Fraction(n)
    if kind is GroupKind.INT_INV_P:
        return Fraction(n, field.p ** draw(st.integers(0, 3)))
    return Fraction(n, draw(st.integers(1, 6)))


@st.composite
def value(draw, field):
    first = draw(coordinate(field))
    if field.group.rank == 1:
        return GroupElt((first,))
    return GroupElt((first, draw(coordinate(field))))


@st.composite
def element(draw, key):
    """A series with up to four terms and an optional bound; no terms and a
    bound is a zero to precision."""
    field = FIELDS[key]
    terms = draw(st.lists(st.tuples(value(field), st.sampled_from(COEFFS[key])),
                          max_size=4))
    bound = draw(st.none() | value(field))
    return field.make(terms, bound)


@st.composite
def field_and_elements(draw):
    key = draw(st.sampled_from(sorted(FIELDS)))
    return draw(element(key)), draw(element(key))


# -- the cross-checks ------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(field_and_elements())
def test_classify_and_improve_match_the_groupelt_route(pair):
    f, probe = pair
    c = outcome(classify, f)
    assert c == outcome(reference_classify, f)
    witnesses = [probe]
    if isinstance(c, ASClassification) and c.improvement_h is not None:
        witnesses.append(c.improvement_h)
    for h in witnesses:
        assert outcome(improve, f, h) == outcome(reference_improve, f, h)


def _named(key, exps, coeff_index=0, bound=None):
    field = FIELDS[key]
    c = COEFFS[key][coeff_index]
    return field.make([(GroupElt(tuple(map(Fraction, e))), c) for e in exps],
                      None if bound is None else GroupElt(tuple(map(Fraction, bound))))


# every verdict and error the decision tree emits, on a named input:
# (expected, field, exponents, bound, index into COEFFS)
HIDDEN = InsufficientPrecisionError
SHAPES = [
    (Verdict.TRIVIAL, ("int", "gf:2"), [], None, 0),
    (Verdict.TRIVIAL, ("rat", "gf:3"), [], ("1/2",), 0),
    (HIDDEN, ("lex2", "gf:2"), [], ("0", "-1"), 0),
    (Verdict.TRIVIAL, ("int-inv-p", "gf:4"), [("1/4",)], None, 0),
    (Verdict.BEST_I, ("int", "gf:3"), [("-4",)], None, 0),
    (Verdict.BEST_II, ("int", "ratfunc:2"), [("-2",)], None, 1),
    (Verdict.BEST_II, ("lex2", "ratfunc:2"), [("0", "-1"), ("1", "0")], None, 2),
    (Verdict.BEST_III, ("int", "gf:4"), [("0",)], None, 0),
    (Verdict.BEST_III, ("int-inv-p", "gf:2"), [("0",), ("1/2",)], None, 0),
    (Verdict.NOT_BEST, ("rat", "gf:4"), [("0",), ("2/3",)], ("3",), 1),
    (Verdict.NOT_BEST, ("int", "gf:3"), [("-3",)], None, 1),
    (Verdict.NOT_BEST, ("int-inv-p", "gf:2"), [("-1/2",), ("-1/4",)], None, 0),
    (Verdict.NOT_BEST, ("rat", "gf:4"), [("-2/5",)], ("1",), 2),
    (Verdict.NOT_BEST, ("lex2", "gf:3"), [("-1", "1/2"), ("-1/3", "0")], None, 0),
    (Verdict.NOT_BEST, ("rat", "ratfunc:2"), [("-1",)], None, 3),
]


@pytest.mark.parametrize("expected,key,exps,bound,coeff", SHAPES, ids=[
    "-".join((getattr(e, "value", "hidden"),) + k) for e, k, *_ in SHAPES])
def test_named_shapes_match_the_groupelt_route(expected, key, exps, bound, coeff):
    f = _named(key, exps, coeff, bound)
    c = outcome(classify, f)
    assert c == outcome(reference_classify, f)
    assert (c[0] if expected is HIDDEN else c.verdict) is expected


@pytest.mark.parametrize("key", [k for k in sorted(FIELDS) if k[0] != "int"], ids="-".join)
def test_chains_rise_on_both_routes(key):
    """Along a defect chain over a p-divisible group the leading
    denominators change from step to step; both routes certify every rise
    and produce the same iterates."""
    field = FIELDS[key]
    lead = ("-1", "0") if field.group.rank == 2 else ("-1",)
    f = _named(key, [lead], 0)
    for _ in range(12):
        c = classify(f)
        assert c == reference_classify(f)
        if c.improvement_h is None:
            break
        nxt = improve(f, c.improvement_h)
        assert nxt == reference_improve(f, c.improvement_h)
        f = nxt
    assert normalize(_named(key, [lead], 0), 12).trajectory[-1] == f.valuation()
