"""An exhaustive check of normalize against the definition of best.

f is best when no substitution f -> i*(f + h**p - h), i in 1..p-1, raises
its valuation.  Over a finite residue field with integer exponents only
finitely many h can matter once v(f) < 0: if v(h) < v(f)/p then
v(h**p - h) = p*v(h) < v(f) lowers the valuation, and terms of h above 0
only add terms of positive valuation.  So every h with support in
[ceil(v(f)/p), 0] is tried, and the search shares no code with classify's
decision tree.  Every nonzero f with support in [-8, -1] over GF(2) and in
[-5, -1] over GF(3), and in [-3, 0] over GF(4) (where valuation zero
reaches best-iii and the preimage step), is normalized and checked:

* best-found: no h in the box raises v(i*(f* + h**p - h)) above v(f*), for
  every i; the best value the box reaches is v(f*), and Swan = -v(f*);
* trivial: some h in the box for f gives a positive valuation, or an exact
  zero.

The extension of every such f is held to the same search: its equation
splits exactly when some h in the box of f gives a positive valuation or an
exact zero.
"""

import itertools
from functools import lru_cache

import pytest

from valuata.as_extension import ASExtension
from valuata.best_f import OutcomeKind, invariants, normalize
from valuata.corpus import FieldSpec
from valuata.value_group import INFINITY, ge

BOXES = {"gf:2": (-8, -1), "gf:3": (-5, -1), "gf:4": (-3, 0)}
FIELDS = {r: FieldSpec("series", r, "int").build() for r in BOXES}


def series(field, exps, coeffs):
    return field.make([(ge(e), c) for e, c in zip(exps, coeffs) if c], None)


def all_series(field, lo, hi):
    """Every series with support in [lo, hi], zero included."""
    elements = list(field.residue.elements())
    exps = range(lo, hi + 1)
    for coeffs in itertools.product(elements, repeat=len(exps)):
        yield series(field, exps, coeffs)


@lru_cache(maxsize=None)
def shifts(residue, lo):
    """h**p - h for every h with support in [lo, 0]."""
    field = FIELDS[residue]
    return [h.frobenius() - h for h in all_series(field, lo, 0)]


def box_values(residue, f):
    """v(i*(f + h**p - h)) over every h in the box of f and every i."""
    p = f.field.p
    lo = -(-f.valuation().num // p)
    for shift in shifts(residue, lo):
        g = f + shift
        for i in range(1, p):
            yield g.scale_int(i).valuation()


@pytest.mark.parametrize("residue", sorted(BOXES))
def test_normalize_agrees_with_the_box_search(residue):
    field = FIELDS[residue]
    lo, hi = BOXES[residue]
    verdicts = set()
    for f in all_series(field, lo, hi):
        if f.is_exact_zero():
            continue
        out = normalize(f, 32)
        if out.kind is OutcomeKind.TRIVIAL:
            assert any(v is INFINITY or v > ge(0) for v in box_values(residue, f)), f
        else:
            assert out.kind is OutcomeKind.BEST_FOUND, f
            v = out.f_star.valuation()
            assert max(box_values(residue, out.f_star)) == v, f
            assert invariants(out).swan == -v
        verdicts.add(out.classification.verdict)
    assert {c.value for c in verdicts} >= {"best-i", "trivial"}
    if hi == 0:
        assert "best-iii" in {c.value for c in verdicts}


@pytest.mark.parametrize("residue", sorted(BOXES))
def test_extension_splits_exactly_where_the_box_search_splits(residue):
    field = FIELDS[residue]
    lo, hi = BOXES[residue]
    for f in all_series(field, lo, hi):
        if f.is_exact_zero():
            continue
        splits = any(v is INFINITY or v > ge(0) for v in box_values(residue, f))
        assert ASExtension(field, f).trivial is splits, f
