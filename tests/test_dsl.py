import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.corpus import FIELD_PRESETS, FieldSpec
from valuata.dsl import parse_expr
from valuata.errors import UsageError
from valuata.sampling import random_series
from valuata.value_group import ge

seeds = st.integers(min_value=0, max_value=10**9)


def _preset(name):
    return FIELD_PRESETS[name].build()


# -- series expressions ----------------------------------------------------------


def test_monomials_and_sums(gf2_laurent):
    assert parse_expr("X^(-3)", gf2_laurent).valuation() == ge(-3)
    e = parse_expr("1 + X", gf2_laurent)
    assert str(e) == "1 + X^(1)"
    # char 2: the two X terms cancel exactly
    assert str(parse_expr("X + 1 + X", gf2_laurent)) == "1"


def test_bare_x_means_first_power(gf2_laurent):
    assert parse_expr("X", gf2_laurent).valuation() == ge(1)


def test_coefficients_reduce_mod_p(gf3_laurent):
    assert str(parse_expr("5*X^(2)", gf3_laurent)) == "2*X^(2)"
    assert str(parse_expr("-X^(-1)", gf3_laurent)) == "2*X^(-1)"
    assert str(parse_expr("3*X^(2)", gf3_laurent)) == "0"


def test_residue_symbols_gate_on_field(gf2y_laurent, gf4_laurent, gf2_laurent):
    assert str(parse_expr("y*X^(-2)", gf2y_laurent)) == "y*X^(-2)"
    assert str(parse_expr("w^2", gf4_laurent)) == "(1 + w)"
    gf4y = FieldSpec("series", "ratfunc:4", "int").build()
    assert str(parse_expr("w*y + w^2", gf4y)) == "(w*y + (1 + w))"
    with pytest.raises(UsageError):
        parse_expr("w", gf2y_laurent)
    with pytest.raises(UsageError):
        parse_expr("y", gf2_laurent)
    with pytest.raises(UsageError):
        parse_expr("w", gf2_laurent)
    with pytest.raises(UsageError):
        parse_expr("q", gf2_laurent)


def test_fractional_exponents_respect_the_group(gf2_half, gf2_laurent):
    assert parse_expr("X^(1/2)", gf2_half).valuation() == ge("1/2")
    with pytest.raises(UsageError):
        parse_expr("X^(1/2)", gf2_laurent)
    with pytest.raises(UsageError):
        parse_expr("X^(1/3)", gf2_half)


def test_zero_denominator_is_named():
    field = _preset("gf2-rationals")
    with pytest.raises(UsageError, match="zero denominator at position 5"):
        parse_expr("X^(1/0)", field)
    with pytest.raises(UsageError, match="zero denominator at position 12"):
        parse_expr("X^((1/2, -1/0))", _preset("gf2-lex2"))


def test_rank_two_exponents(gf2_lex2):
    e = parse_expr("X^((-1, 0)) + X^((1/2, -3))", gf2_lex2)
    assert str(e) == "X^((-1, 0)) + X^((1/2, -3))"
    with pytest.raises(UsageError):
        parse_expr("X^(-1)", gf2_lex2)


def test_division_by_single_term(gf2_laurent):
    e = parse_expr("1/X^(3)", gf2_laurent)
    assert str(e) == "X^(-3)"
    q = parse_expr("(1 + X)/X", gf2_laurent)
    assert str(q) == "X^(-1) + 1"


def test_division_by_unit_series(gf2_laurent):
    q = parse_expr("1/(1 + X)", gf2_laurent)
    back = q * parse_expr("1 + X", gf2_laurent)
    assert str(back).startswith("1")


def test_o_term_truncates(gf2_laurent):
    e = parse_expr("1 + X^(30) + O(X^(5))", gf2_laurent)
    assert str(e) == "1 + O(X^(5))"
    assert e.precision == ge(5)


def test_o_term_must_close_the_expression(gf2_laurent):
    with pytest.raises(UsageError):
        parse_expr("1 + O(X^(5)) + X", gf2_laurent)


def test_error_positions_are_reported(gf2_laurent):
    with pytest.raises(UsageError, match="position 0"):
        parse_expr("$", gf2_laurent)
    with pytest.raises(UsageError, match="position"):
        parse_expr("X^", gf2_laurent)
    with pytest.raises(UsageError, match="trailing"):
        parse_expr("1 2", gf2_laurent)
    with pytest.raises(UsageError):
        parse_expr("", gf2_laurent)


def test_parser_needs_a_known_field_kind():
    with pytest.raises(UsageError):
        parse_expr("1", object())


# -- p-adic expressions ----------------------------------------------------------


def test_cyclo_atoms(q2, q3_zeta):
    assert parse_expr("pi", q2).valuation() == 1
    assert str(parse_expr("pi^3", q2)) == "-8"
    # z and pi coincide when m = 1
    assert str(parse_expr("z", q3_zeta)) == "pi"
    assert str(parse_expr("z^2", q3_zeta)) == "(-3 + -3*pi)"


def test_cyclo_division(q2):
    e = parse_expr("(1+2*pi)/9", q2)
    nine = parse_expr("9", q2)
    assert str(e * nine) == "-3"


def test_cyclo_rejects_series_syntax(q2):
    with pytest.raises(UsageError):
        parse_expr("X", q2)
    with pytest.raises(UsageError):
        parse_expr("1 + O(X^(5))", q2)


def test_cyclo_y_gate(q2, q2_pi):
    with pytest.raises(UsageError):
        parse_expr("y", q2)
    field = FieldSpec("cyclo", p=2, m=2, precision=48, with_y=True).build()
    assert str(parse_expr("y", field)) == "y"
    assert str(parse_expr("1 + y*pi^2", field)) == "1 + -2*y"


# -- round trips -----------------------------------------------------------------


def test_round_trip_named_examples(gf2_laurent, gf2y_laurent, gf2_lex2):
    cases = [
        (gf2_laurent, "X^(-3)"),
        (gf2_laurent, "1 + X^(2) + X^(17)"),
        (gf2y_laurent, "y*X^(-2) + (y + 1)*X^(3)"),
        (gf2_lex2, "X^((-1, 0)) + X^((0, 2))"),
    ]
    for field, text in cases:
        once = str(parse_expr(text, field))
        again = str(parse_expr(once, field))
        assert once == again


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_round_trip_random_series(seed):
    rng = random.Random(seed)
    for name in ("gf2-laurent", "gf3-laurent", "gf4-laurent",
                 "gf2y-laurent", "gf2-half-powers", "gf2-lex2"):
        field = _preset(name)
        a = random_series(field, rng, -4, 4, max_terms=4)
        text = str(a)
        b = parse_expr(text, field)
        assert str(b) == text


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_round_trip_random_cyclo(seed):
    from helpers import random_cyclo_unit
    rng = random.Random(seed)
    for spec in (FieldSpec("cyclo", p=2, m=1, precision=48),
                 FieldSpec("cyclo", p=3, m=1, precision=48),
                 FieldSpec("cyclo", p=2, m=2, precision=48, with_y=True)):
        field = spec.build()
        a = random_cyclo_unit(field, rng)
        text = str(a)
        assert str(parse_expr(text, field)) == text
