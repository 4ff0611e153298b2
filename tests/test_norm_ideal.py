import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.as_extension import ASExtension
from valuata.best_f import classical_swan, normalize
from valuata.dsl import parse_expr
from valuata.errors import (FixedElementError, NotAGeneratorError, UsageError)
from valuata.hahn_series import format_series
from valuata.norm_ideal import (derivative_product, gamma_of, lefschetz_val,
                                sample_generator, sample_unit_generator,
                                s_inequality_suite, trace_lemma_suite,
                                verify_s_inequality, verify_trace_lemma,
                                y_construct)
from valuata.value_group import ge

from helpers import is_base

seeds = st.integers(min_value=0, max_value=10**9)


def build(field, expr):
    return ASExtension(field, parse_expr(expr, field))


def _preset(name):
    from valuata.corpus import FIELD_PRESETS
    return FIELD_PRESETS[name].build()


# -- the displacement and its construction ------------------------------------
# values below were computed by hand from v_L = v(N(.))/p on the witness
# extensions: alpha over X^(-3) has v_L(alpha) = -3/2 and sigma moves it by 1


def test_lefschetz_of_alpha(gf2_laurent):
    # v_L(sigma(alpha) - alpha) - v_L(alpha) = 0 - (-3/2) = 3/2
    ext = build(gf2_laurent, "X^(-3)")
    assert str(lefschetz_val(ext.alpha())) == "3/2"


def test_lefschetz_of_base_element_is_undefined(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    with pytest.raises(FixedElementError):
        lefschetz_val(ext.one())


def test_lefschetz_sigma_power_must_be_coprime(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    with pytest.raises(UsageError):
        lefschetz_val(ext.alpha(), power=2)


def test_derivative_product_of_alpha(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    d = derivative_product(ext.alpha())
    # for p = 2 this is alpha - sigma(alpha) = -1 = 1, an exact unit
    assert is_base(d)
    assert str(d.constant()) == "1"


def test_derivative_product_rejects_base(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    with pytest.raises(NotAGeneratorError):
        derivative_product(ext.from_base(gf2_laurent.one()))


def test_gamma_of_alpha_p2(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    g = gamma_of(ext.alpha())
    assert str(g) == "(1)*a"


def test_gamma_of_alpha_p3(gf3_laurent):
    ext = build(gf3_laurent, "X^(-1)")
    g = gamma_of(ext.alpha())
    # b^2 / ((b - sigma b)(b - sigma^2 b)) at b = alpha: denominator is
    # (-1)(-2) = 2, so gamma = 2 alpha^2 mod 3
    assert str(g) == "(2)*a^2"


def test_y_construct_alpha_p2(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    sample = y_construct(ext.alpha())
    assert str(sample.s) == "3/2"
    assert str(sample.s_prime) == "3/2"
    assert sample.holds
    assert format_series(sample.n_y) == "X^(-3)"
    assert sample.c_increments == ()


def test_y_construct_unit_generator_p2(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    b = ext.one() + ext.from_base(
        gf2_laurent.monomial(gf2_laurent.residue.one(), ge(1))) * ext.alpha()
    sample = y_construct(b)
    assert str(sample.s) == "3/2"
    assert str(sample.s_prime) == "3/2"
    assert format_series(sample.n_y) == "X^(-3) + X^(-2) + X^(-1)"


def test_y_construct_p3(gf3_laurent):
    ext = build(gf3_laurent, "X^(-1)")
    sample = y_construct(ext.alpha())
    assert str(sample.y) == "(2) + (1)*a"
    assert str(sample.s) == "1/3"
    assert str(sample.s_prime) == "1/3"
    assert [str(c) for c in sample.c_increments] == ["1/3"]


def test_y_construct_defect_field(gf2_half):
    ext = build(gf2_half, "X^(-1)")
    assert str(lefschetz_val(ext.alpha())) == "1/2"
    b = ext.one() + ext.from_base(
        gf2_half.monomial(gf2_half.residue.one(),
                          ge(1).divide(2))) * ext.alpha()
    sample = y_construct(b)
    assert str(sample.s) == "1/4"
    assert str(sample.s_prime) == "1/4"
    assert format_series(sample.n_y) == "X^(-1/2)"


# -- the trace identities ------------------------------------------------------


def test_trace_lemma_alpha_p2(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    report = verify_trace_lemma(ext.alpha())
    assert report.checks == ((1, True),)
    assert report.passed


def test_trace_lemma_alpha_p3(gf3_laurent):
    ext = build(gf3_laurent, "X^(-1)")
    report = verify_trace_lemma(ext.alpha())
    assert report.checks == ((1, True), (2, True))


def test_trace_lemma_suite_runs(gf3_laurent, rng):
    ext = build(gf3_laurent, "X^(-1)")
    reports = trace_lemma_suite(ext, rng, 10)
    assert len(reports) == 10
    assert all(r.passed for r in reports)


# -- the displacement inequality ------------------------------------------------


def test_s_inequality_on_alpha(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    report = verify_s_inequality(ext.alpha())
    assert report.holds
    assert report.s == report.s_prime


def test_s_equality_always_at_p2(gf2_laurent, rng):
    # for p = 2 the constructed y is gamma itself, so s' = s exactly
    ext = build(gf2_laurent, "X^(-3)")
    for _ in range(10):
        r = verify_s_inequality(sample_generator(ext, rng))
        assert r.s == r.s_prime


def test_s_inequality_suites_across_families(gf2_laurent, gf2_half,
                                             gf2_lex2, rng):
    for field, expr in ((gf2_laurent, "X^(-3)"), (gf2_half, "X^(-1)"),
                        (gf2_lex2, "X^((-1, 0))")):
        ext = build(field, expr)
        reports = s_inequality_suite(ext, rng, 12)
        assert all(r.holds for r in reports)


def test_s_inequality_on_named_generators(gf2_laurent, gf2_half):
    # non-units included: the displacement is relative to v_L(b)
    for field, fexpr, bexpr in (
            (gf2_laurent, "X^(-3)", "X^(1)"),
            (gf2_half, "X^(-1)", "X^(1/2)")):
        ext = build(field, fexpr)
        b = ext.one() + ext.from_coeffs([field.zero(),
                                         parse_expr(bexpr, field)])
        report = verify_s_inequality(b)
        assert report.holds
        assert report.s == report.s_prime


def test_unit_sampler_yields_units(gf2_laurent, gf2_half, gf2_lex2, rng):
    for field, expr in ((gf2_laurent, "X^(-3)"), (gf2_half, "X^(-1)"),
                        (gf2_lex2, "X^((-1, 0))")):
        ext = build(field, expr)
        for _ in range(8):
            b = sample_unit_generator(ext, rng)
            assert b.valuation_L().is_zero()
            assert not is_base(b)


def test_s_inequality_can_fail_beyond_p2():
    """For p = 2 the inequality is an equality forced by y = b/(b - sigma(b)).
    For p >= 3 the y built from a unit can sit deeper than the displacement
    bound; the checker must report that instead of masking it.  Every value
    below was verified by hand: gamma * g'(b) = b^2 and sigma(y) = y + 1 hold
    exactly, yet s = 8/3 < s' = 5.
    """
    from valuata.corpus import FieldSpec
    from valuata.errors import InequalityViolatedError

    field = FieldSpec("series", residue="gf:3", group="int-inv-p", p=3,
                      precision=24).build()
    ext = build(field, "X^(-1)")
    b = ext.from_coeffs([parse_expr("1 + X^(77/27)", field),
                         field.zero(),
                         parse_expr("2*X^(3)", field)])
    assert b.valuation_L().is_zero()
    sample = y_construct(b)
    assert str(sample.s) == "8/3"
    assert str(sample.s_prime) == "5"
    assert [str(c) for c in sample.c_increments] == ["1/3"]
    assert not sample.holds
    with pytest.raises(InequalityViolatedError):
        verify_s_inequality(b)


# -- the defectless conductor check ---------------------------------------------


def test_hn_defectless_check(gf2_laurent):
    out = normalize(parse_expr("X^(-6)", gf2_laurent))
    assert format_series(out.f_star) == "X^(-3)"
    assert classical_swan(out.f_star) == ge(3)


# -- property tests --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_displacement_inequality_random(seed):
    ext = build(_preset("gf2-half-powers"), "X^(-1)")
    rng = random.Random(seed)
    r = verify_s_inequality(sample_generator(ext, rng))
    assert r.holds


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_trace_lemma_random_p3(seed):
    ext = build(_preset("gf3-laurent"), "X^(-1)")
    rng = random.Random(seed)
    assert verify_trace_lemma(sample_generator(ext, rng)).passed


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_sigma_power_does_not_change_s(seed):
    # every generator of the cyclic group gives the same displacement
    ext = build(_preset("gf3-laurent"), "X^(-1)")
    rng = random.Random(seed)
    b = sample_generator(ext, rng)
    assert lefschetz_val(b, power=1) == lefschetz_val(b, power=2)
