"""valuation_L on a best generator reads the valuation basis.

When f is best, 1, alpha, ..., alpha**(p-1) is a valuation basis, and
valuation_L answers m = min_i (v(a_i) + i*v(alpha)) over the coordinates
with a visible term, with no norm, provided every coordinate that is zero
to its bound B_i has B_i + i*v(alpha) >= m.  These tests hold that answer
to v(N(a))/p wherever the full norm answers.  Where the bounds hide N(a)
but not the minimum, the answer must equal v(N)/p of exact completions of
a.  Below the threshold, and on every extension whose f is not best,
valuation_L computes a norm (counted).
"""

import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.as_extension import ASExtension, ExtElt
from valuata.best_f import Verdict, classify
from valuata.corpus import FIELD_PRESETS, FieldSpec
from valuata.dsl import parse_expr
from valuata.errors import ValuataError, ZeroToPrecisionError
from valuata.norm_ideal import sample_generator, sample_unit_generator
from valuata.sampling import random_ext_elt, random_group_elt
from valuata.value_group import ge

from helpers import assert_matches_full_norm, exact_completion, y_chain, zero_to

seeds = st.integers(min_value=0, max_value=10**9)

BEST = [("gf2-laurent", "X^(-3)", Verdict.BEST_I),
        ("gf3-laurent", "X^(-1)", Verdict.BEST_I),
        ("gf4-laurent", "w*X^(-1)", Verdict.BEST_I),
        ("gf:5", "X^(-1)", Verdict.BEST_I),
        ("gf2y-laurent", "y*X^(-2)", Verdict.BEST_II),
        ("gf2-laurent", "1", Verdict.BEST_III),
        ("gf4-laurent", "w", Verdict.BEST_III)]
BEST_IDS = [f"{name}-{expr}" for name, expr, _ in BEST]

NOT_BEST = [("gf2-half-powers", "X^(-1)"), ("gf2-rationals", "X^(-1/3)"),
            ("gf2-lex2", "X^((-1, 0))")]


def build(name, expr):
    field = (FieldSpec("series", name, "int", precision=24).build()
             if name.startswith("gf:") else FIELD_PRESETS[name].build())
    return ASExtension(field, parse_expr(expr, field))


@contextmanager
def counting_norms():
    """Record every ExtElt.norm call made inside the block."""
    calls = []
    full = ExtElt.norm

    def counted(self):
        calls.append(self)
        return full(self)

    ExtElt.norm = counted
    try:
        yield calls
    finally:
        ExtElt.norm = full


def basis_minimum(a, skip=None):
    """The least v(a_i) + i*v(alpha) over the visible coordinates but skip."""
    v_alpha = a.ext.basis_v_alpha
    return min(c.valuation() + v_alpha.scale(i) for i, c in enumerate(a.coeffs)
               if i != skip and c.has_terms())


def bound_near(t, where, rng):
    """An integer exponent below, at or above the rational t; None for 'at'
    when t is not an integer."""
    lo, hi = math.floor(t), math.ceil(t)
    if where == "at":
        return ge(lo) if lo == hi else None
    if where == "below":
        return ge((lo - 1 if lo == t else lo) - rng.randrange(2))
    return ge((hi + 1 if hi == t else hi) + rng.randrange(2))


def check_route(a, rng):
    """The norm count of valuation_L says which route answered; the answer
    itself is held to the full norm."""
    v_alpha = a.ext.basis_v_alpha
    visible = any(c.has_terms() for c in a.coeffs)
    certified = visible and all(
        c.precision + v_alpha.scale(i) >= basis_minimum(a)
        for i, c in enumerate(a.coeffs) if not c.has_terms() and not c.is_exact_zero())
    with counting_norms() as norms:
        try:
            value = a.valuation_L()
        except ValuataError:
            value = None
    if certified:
        assert norms == [] and value == basis_minimum(a)
    else:
        assert norms
    assert_matches_full_norm(a, rng)


@pytest.mark.parametrize("name,expr,verdict", BEST, ids=BEST_IDS)
def test_best_extension_caches_v_alpha(name, expr, verdict):
    ext = build(name, expr)
    assert classify(ext.f).verdict is verdict
    assert ext.basis_v_alpha == ext.f.valuation().divide(ext.p)
    assert ext.basis_v_alpha is ext.basis_v_alpha


@pytest.mark.parametrize("name,expr,verdict", BEST, ids=BEST_IDS)
@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_basis_route_matches_the_norm(name, expr, verdict, seed):
    ext = build(name, expr)
    p = ext.p
    rng = random.Random(seed)
    a = random_ext_elt(ext, rng, -2, 2, generator=True)
    if rng.randrange(2):
        # an exactly zero coordinate beside the visible ones
        zero = rng.randrange(p)
        if any(c.has_terms() for i, c in enumerate(a.coeffs) if i != zero):
            a = ext.from_coeffs([ext.base.zero() if i == zero else c
                                 for i, c in enumerate(a.coeffs)])
    # exact: the basis answers and computes no norm
    check_route(a, rng)
    # every coordinate cut at its own random bound, so that visible terms,
    # zeros to a bound and exact zeros mix
    cut = ext.from_coeffs([c.truncate(random_group_elt(ext.base.group, rng, -1, 4))
                           if rng.randrange(3) else c for c in a.coeffs])
    check_route(cut, rng)
    # one coordinate zero to a bound below, at or above the threshold
    for where in ("below", "at", "above"):
        i = rng.randrange(p)
        if not any(c.has_terms() for j, c in enumerate(a.coeffs) if j != i):
            continue
        t = basis_minimum(a, skip=i) - ext.basis_v_alpha.scale(i)
        bound = bound_near(t.parts[0], where, rng)
        if bound is None:
            continue
        hidden = ext.from_coeffs([zero_to(ext.base, bound) if j == i else c
                                  for j, c in enumerate(a.coeffs)])
        check_route(hidden, rng)
    # gamma and the intermediates of the y construction
    b = sample_unit_generator(ext, rng) if seed % 2 else sample_generator(ext, rng)
    check_route(b, rng)
    try:
        chain = y_chain(b)
    except ValuataError:
        return
    for x in chain:
        check_route(x, rng)


def test_basis_answers_where_the_norm_is_zero_to_precision():
    """1 + O(X^1)*alpha over GF(2)(y) with f = y*X^(-2): the bound of the
    alpha coordinate sits on the threshold, 1 + v(alpha) = 0 = v(1), so the
    basis reads 0, while N = 1 + O(X^1) + O(X^2)*f is zero to precision."""
    ext = build("gf2y-laurent", "y*X^(-2)")
    k = ext.base
    a = ext.from_coeffs([k.one(), zero_to(k, ge(1))])
    with pytest.raises(ZeroToPrecisionError):
        a.norm().valuation()
    with counting_norms() as norms:
        assert a.valuation_L() == ge(0)
    assert norms == []
    rng = random.Random(0)
    for _ in range(8):
        assert exact_completion(a, rng).norm().valuation() == ge(0)


def test_bound_below_the_threshold_takes_the_norm_route():
    """Over GF(2) with f = X^(-3), 1 + O(X^1)*alpha: 1 - 3/2 < 0, so the
    hidden coordinate could decide the valuation and the norm route raises."""
    ext = build("gf2-laurent", "X^(-3)")
    k = ext.base
    a = ext.from_coeffs([k.one(), zero_to(k, ge(1))])
    with counting_norms() as norms, pytest.raises(ZeroToPrecisionError):
        a.valuation_L()
    assert norms


@pytest.mark.parametrize("name,expr", NOT_BEST)
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_other_generators_keep_the_norm_route(name, expr, seed):
    ext = build(name, expr)
    assert not classify(ext.f).is_best
    assert ext.basis_v_alpha is None
    a = random_ext_elt(ext, random.Random(seed), -2, 2, generator=True)
    with counting_norms() as norms:
        value = a.valuation_L()
    assert norms
    assert value == a.norm().valuation().divide(ext.p)
