"""valuation_L reads v(N(a))/p off a norm of truncated coordinates, or on
a best extension off the valuation basis; these tests hold it to the
valuation of the full norm, including on elements that carry precision
bounds and on elements whose norm is zero to precision."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.as_extension import ASExtension, ExtElt
from valuata.corpus import FIELD_PRESETS
from valuata.dsl import parse_expr
from valuata.errors import ValuataError, ZeroToPrecisionError
from valuata.norm_ideal import sample_generator, sample_unit_generator
from valuata.sampling import random_ext_elt, random_group_elt
from valuata.value_group import ge

from helpers import assert_matches_full_norm, y_chain

seeds = st.integers(min_value=0, max_value=10**9)

FAMILIES = (("gf2-laurent", "X^(-3)"), ("gf3-laurent", "X^(-1)"),
            ("gf4-laurent", "w*X^(-1)"), ("gf2y-laurent", "y*X^(-2)"),
            ("gf2-half-powers", "X^(-1)"), ("gf2-rationals", "X^(-1/3)"),
            ("gf2-lex2", "X^((-1, 0))"))


def build(preset, expr):
    field = FIELD_PRESETS[preset].build()
    return ASExtension(field, parse_expr(expr, field))


@pytest.mark.parametrize("preset,expr", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_lazy_valuation_matches_full_norm(preset, expr, seed):
    ext = build(preset, expr)
    group = ext.base.group
    rng = random.Random(seed)
    a = random_ext_elt(ext, rng, -2, 2, generator=True)
    assert_matches_full_norm(a, rng)
    # the same element with every coordinate cut at its own random bound
    cut = ext.from_coeffs([c.truncate(random_group_elt(group, rng, -1, 4))
                           for c in a.coeffs])
    assert_matches_full_norm(cut, rng)
    b = sample_unit_generator(ext, rng) if seed % 2 else sample_generator(ext, rng)
    assert_matches_full_norm(b, rng)
    try:
        chain = y_chain(b)
    except ValuataError:
        return
    for x in chain:
        assert_matches_full_norm(x, rng)


def test_zero_to_precision_still_raises():
    ext = build("gf2-laurent", "X^(-3)")
    k = ext.base
    a = ext.from_coeffs([k.zero_to(ge(1)), k.zero_to(ge(3))])
    with pytest.raises(ZeroToPrecisionError):
        a.valuation_L()


def test_visible_element_with_norm_zero_to_precision_raises():
    # N(c0 + c1*alpha) = c0^2 + c0*c1 + c1^2*f: the bound of c1^2*f at
    # X^(-1) hides the constant term of c0^2
    ext = build("gf2-laurent", "X^(-3)")
    k = ext.base
    a = ext.from_coeffs([parse_expr("1 + O(X^(1))", k), k.zero_to(ge(1))])
    assert a.coeffs[0].has_terms()
    assert not a.norm().has_terms()
    with pytest.raises(ZeroToPrecisionError):
        a.valuation_L()


def test_long_exact_element_answers_from_a_truncated_norm(monkeypatch):
    # X^(-1) is not best over the half powers, so the norm route answers
    ext = build("gf2-half-powers", "X^(-1)")
    assert ext.basis_v_alpha is None
    k = ext.base
    a = ext.from_coeffs([parse_expr(" + ".join(f"X^({e})" for e in range(-1, 40)), k),
                         parse_expr("X^(-2) + X^(30)", k)])
    expected = a.norm().valuation().divide(2)
    norms = []
    full = ExtElt.norm

    def recording(self):
        n = full(self)
        norms.append(n)
        return n

    monkeypatch.setattr(ExtElt, "norm", recording)
    assert a.valuation_L() == expected
    assert len(norms) == 1 and norms[0].precision is not None
