import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.best_f import (OutcomeKind, Verdict, bestness_probe, classify,
                            classical_swan, improve, invariants, normalize)
from valuata.dsl import parse_expr
from valuata.errors import UsageError
from valuata.hahn_series import format_series
from valuata.value_group import ge

from helpers import random_shift_probe

seeds = st.integers(min_value=0, max_value=10**9)


def _preset(name):
    from valuata.corpus import FIELD_PRESETS
    return FIELD_PRESETS[name].build()


# -- classification oracles ---------------------------------------------------
# each expected verdict below was checked by hand from the definitions:
# wild when p does not divide v(f) < 0, ferocious when the leading residue
# is not a p-th power, unramified when v(f) = 0 and the residue avoids the
# image of x**p - x, improvable otherwise


def test_wild_pole_is_best(gf2_laurent):
    c = classify(parse_expr("X^(-3)", gf2_laurent))
    assert c.verdict is Verdict.BEST_I
    assert c.valuation == ge(-3)


def test_square_pole_is_improvable(gf2_laurent):
    c = classify(parse_expr("X^(-6)", gf2_laurent))
    assert c.verdict is Verdict.NOT_BEST
    assert format_series(c.improvement_h) == "X^(-3)"


def test_ferocious_pole(gf2y_laurent):
    c = classify(parse_expr("y*X^(-2)", gf2y_laurent))
    assert c.verdict is Verdict.BEST_II
    assert str(c.unit_residue) == "y"


def test_even_pole_with_square_residue_improves(gf2y_laurent):
    c = classify(parse_expr("y^2*X^(-2)", gf2y_laurent))
    assert c.verdict is Verdict.NOT_BEST
    # h = -lift(sqrt(y^2)) * X^(-1) = y*X^(-1)
    assert format_series(c.improvement_h) == "y*X^(-1)"


def test_unramified_unit(gf2_laurent):
    c = classify(parse_expr("1", gf2_laurent))
    assert c.verdict is Verdict.BEST_III
    assert str(c.residue) == "1"


def test_unramified_unit_gf4(gf4_laurent):
    c = classify(parse_expr("w", gf4_laurent))
    assert c.verdict is Verdict.BEST_III


def test_split_unit_improves_to_trivial(gf4_laurent):
    out = normalize(parse_expr("1 + X", gf4_laurent))
    assert out.kind is OutcomeKind.TRIVIAL
    assert out.steps == 1


def test_positive_valuation_is_trivial(gf2_laurent):
    c = classify(parse_expr("X^(2)", gf2_laurent))
    assert c.verdict is Verdict.TRIVIAL


def test_exact_zero_is_trivial(gf2_laurent):
    assert classify(gf2_laurent.zero()).verdict is Verdict.TRIVIAL


# -- improvement and normalization -------------------------------------------


def test_improve_strictly_raises_valuation(gf2_laurent):
    f = parse_expr("X^(-6)", gf2_laurent)
    c = classify(f)
    f2 = improve(f, c.improvement_h)
    assert f2.valuation() > f.valuation()
    assert f2.valuation() == ge(-3)


def test_normalize_square_pole(gf2_laurent):
    out = normalize(parse_expr("X^(-6)", gf2_laurent))
    assert out.kind is OutcomeKind.BEST_FOUND
    assert out.steps == 1
    assert format_series(out.f_star) == "X^(-3)"
    assert [str(v) for v in out.trajectory] == ["-6", "-3"]


def test_normalize_even_pole_chain(gf2_laurent):
    # X^(-8) -> X^(-4) -> X^(-2) -> X^(-1)
    out = normalize(parse_expr("X^(-8)", gf2_laurent))
    assert out.kind is OutcomeKind.BEST_FOUND
    assert out.steps == 3
    assert format_series(out.f_star) == "X^(-1)"


def test_defect_chain_exhausts_budget(gf2_half):
    out = normalize(parse_expr("X^(-1)", gf2_half), budget=12)
    assert out.kind is OutcomeKind.DEFECT_EVIDENCE
    assert out.steps == 12
    assert [str(v) for v in out.trajectory] == [
        "-1", "-1/2", "-1/4", "-1/8", "-1/16", "-1/32", "-1/64", "-1/128",
        "-1/256", "-1/512", "-1/1024", "-1/2048", "-1/4096"]


def test_defect_chain_rank2(gf2_lex2):
    out = normalize(parse_expr("X^((-1, 0))", gf2_lex2), budget=6)
    assert out.kind is OutcomeKind.DEFECT_EVIDENCE
    assert str(out.trajectory[-1]) == "(-1/64, 0)"


def test_negative_budget_rejected(gf2_laurent):
    with pytest.raises(UsageError):
        normalize(parse_expr("X^(-6)", gf2_laurent), budget=-1)


# -- invariants and the conductor ---------------------------------------------


def test_invariants_wild(gf2_laurent):
    out = normalize(parse_expr("X^(-3)", gf2_laurent))
    inv = invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (2, 1, 1)
    assert inv.type == "wild"
    assert inv.swan == ge(3)
    assert inv.product() == 2


def test_invariants_ferocious(gf2y_laurent):
    out = normalize(parse_expr("y*X^(-2)", gf2y_laurent))
    inv = invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (1, 2, 1)
    assert inv.type == "ferocious"
    assert inv.swan == ge(2)


def test_invariants_unramified(gf3_laurent):
    out = normalize(parse_expr("1", gf3_laurent))
    inv = invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (1, 3, 1)
    assert inv.type == "unramified"
    assert inv.swan == ge(0)


def test_invariants_defect(gf2_half):
    out = normalize(parse_expr("X^(-1)", gf2_half), budget=8)
    inv = invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (1, 1, 2)
    assert inv.type == "defect"
    assert inv.swan is None


def test_invariants_trivial(gf2_laurent):
    out = normalize(parse_expr("X^(2)", gf2_laurent))
    inv = invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (1, 1, 1)
    assert inv.product() == 1


def test_classical_swan_agrees_with_pole_order(gf2_laurent, gf3_laurent):
    assert classical_swan(parse_expr("X^(-3)", gf2_laurent)) == ge(3)
    assert classical_swan(parse_expr("X^(-1)", gf3_laurent)) == ge(1)
    assert classical_swan(parse_expr("X^(-2)", gf3_laurent)) == ge(2)


def test_classical_swan_unramified_is_zero(gf2_laurent):
    assert classical_swan(parse_expr("1", gf2_laurent)) == ge(0)


# -- bestness probes ----------------------------------------------------------


def test_probe_finds_no_violation_on_best(gf2_laurent, rng):
    f = parse_expr("X^(-3)", gf2_laurent)
    probes = [random_shift_probe(gf2_laurent, rng) for _ in range(60)]
    assert bestness_probe(f, probes) == []


def test_probe_exposes_improvable_generator(gf2_laurent):
    # for f = X^(-6) the witness h = X^(-3) raises the valuation, so the
    # sup over the family is not attained at f itself
    f = parse_expr("X^(-6)", gf2_laurent)
    h = parse_expr("X^(-3)", gf2_laurent)
    assert bestness_probe(f, [h]) != []


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_probe_property_best_generators(seed):
    field = _preset("gf3-laurent")
    f = parse_expr("X^(-1)", field)
    rng = random.Random(seed)
    probes = [random_shift_probe(field, rng) for _ in range(10)]
    assert bestness_probe(f, probes) == []


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_normalized_output_is_fixed_point(seed):
    # normalizing twice changes nothing
    field = _preset("gf2-laurent")
    rng = random.Random(seed)
    exp = -rng.randint(1, 12)
    f = field.monomial(field.residue.one(), ge(exp))
    out = normalize(f)
    if out.kind is OutcomeKind.BEST_FOUND:
        again = normalize(out.f_star)
        assert again.steps == 0
        assert format_series(again.f_star) == format_series(out.f_star)
