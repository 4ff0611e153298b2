import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.best_f import OutcomeKind
from valuata.dsl import parse_expr
from valuata.errors import UsageError, ZeroToPrecisionError
from valuata.kummer import (CycloField, KummerVerdict, classify_h,
                            cyclo_agrees, format_cyclo, improve_h,
                            kummer_bestness_probe, kummer_invariants,
                            normalize_h)

from helpers import random_cyclo_unit

seeds = st.integers(min_value=0, max_value=10**9)


# -- ring arithmetic ----------------------------------------------------------


def test_uniformizer_power_equals_z(q2):
    # p = 2, m = 1: pi is z itself and z = zeta - 1 = -2
    z = q2.z()
    assert cyclo_agrees(z, q2.from_int(-2))
    assert z.valuation() == 1


def test_uniformizer_relation_m2(q2_pi):
    # pi^2 = z and z^(p-1) = -p * unit with unit residue 1
    pi = q2_pi.pi(1)
    assert cyclo_agrees(pi * pi, q2_pi.z())
    assert q2_pi.z().valuation() == 2
    assert q2_pi.threshold == 4


def test_valuation_of_p(q3_zeta):
    # v(p) = m(p-1): the ramification degree of the cyclotomic base
    assert q3_zeta.from_int(3).valuation() == 2
    assert q3_zeta.threshold == 3


def test_residue_of_unit(q3_zeta):
    u = q3_zeta.from_int(5)
    assert u.valuation() == 0
    assert str(u.residue_class()) == "2"


@pytest.mark.parametrize("with_y", [False, True])
def test_residue_field_is_built_once_per_field(with_y):
    field = CycloField(3, with_y=with_y)
    assert field.residue() is field.residue()
    assert field.residue().p == 3


def test_residue_after_p_division(q3_zeta):
    # (1 + z^3 - 1) / pi^3 = z^3/z^3 = 1 exactly, so the residue is 1;
    # the leading coefficient 3^1 crosses one p-division, which flips the
    # sign of the significand for odd p
    h = q3_zeta.one() + q3_zeta.z().pow(3)
    c = (h - q3_zeta.one()).shift_pi(-3)
    assert str(c.residue_class()) == "1"


def test_residue_after_p_division_p5():
    K = CycloField(5, 1, nprec=24)
    h = K.one() + K.z().pow(5)
    c = (h - K.one()).shift_pi(-5)
    assert str(c.residue_class()) == "1"


def test_inversion_round_trip(q2_pi):
    g = q2_pi.one() + q2_pi.pi(1)
    prod = g * g.invert() - q2_pi.one()
    assert prod.valuation_is_above(90)


def test_inversion_of_nonunit_shifts(q2_pi):
    a = q2_pi.pi(3)
    inv = a.invert()
    assert inv.valuation() == -3
    assert cyclo_agrees(a * inv, q2_pi.one())


def test_zero_to_precision_is_flagged(q2):
    h = q2.one()
    diff = h - q2.one()
    with pytest.raises(ZeroToPrecisionError):
        diff.valuation()
    assert diff.valuation_is_above(q2.threshold)


def test_y_requires_with_y(q2):
    with pytest.raises(UsageError):
        q2.y_gen()


# -- classification oracles ---------------------------------------------------
# hand-checked witnesses over Q_2: v(2) = 1 is odd so 2 stays best; 5 = 1 + 4
# has (5-1)/4 = 1 which is not of the form x^2 - x mod 2; 9 = 1 + 8 exceeds
# the threshold v(z^2) = 2; 3 = 1 + 2 sits strictly below it at odd level


def test_sqrt2_is_wild_best(q2):
    c = classify_h(q2.from_int(2))
    assert c.verdict is KummerVerdict.BEST_I
    assert c.valuation == 1


def test_sqrt5_is_unramified_best(q2):
    c = classify_h(q2.from_int(5))
    assert c.verdict is KummerVerdict.BEST_V
    assert c.w_valuation == 2
    assert str(c.c_residue) == "1"


def test_sqrt9_is_trivial(q2):
    c = classify_h(q2.from_int(9))
    assert c.verdict is KummerVerdict.TRIVIAL


def test_sqrt3_is_ramified_best(q2):
    c = classify_h(q2.from_int(3))
    assert c.verdict is KummerVerdict.BEST_III
    assert c.w_valuation == 1


def test_sqrt_minus_one(q2):
    c = classify_h(q2.from_int(-1))
    assert c.verdict is KummerVerdict.BEST_III
    assert c.w_valuation == 1


def test_negative_valuation_rejected(q2):
    with pytest.raises(UsageError):
        classify_h(q2.from_int(2).invert())


def test_even_p_power_strips(q2):
    # 12 = 4 * 3: the square factor is removed first, leaving 3
    c = classify_h(q2.from_int(12))
    assert c.verdict is KummerVerdict.BEST_III
    assert c.note is not None


def test_m2_unit_one_plus_pi_squared(q2_pi):
    c = classify_h(parse_expr("1 + pi^(2)", q2_pi))
    assert c.verdict is KummerVerdict.NOT_BEST
    assert c.w_valuation == 2
    # the improvement witness is 1/(1 + pi)
    check = c.g.invert() - (q2_pi.one() + q2_pi.pi(1))
    assert check.valuation_is_above(40)


def test_ferocious_unit():
    K = CycloField(2, 2, with_y=True)
    c = classify_h(K.y_gen())
    assert c.verdict is KummerVerdict.BEST_II
    assert str(c.unit_residue) == "y"


def test_ferocious_deep_unit():
    K = CycloField(2, 2, with_y=True)
    c = classify_h(parse_expr("1 + y*pi^(2)", K))
    assert c.verdict is KummerVerdict.BEST_IV
    assert c.w_valuation == 2
    assert c.s_exponent == 1
    assert str(c.unit_residue) == "y"


def test_square_residue_improves():
    K = CycloField(2, 1, with_y=True)
    c = classify_h(K.y_gen() * K.y_gen())
    assert c.verdict is KummerVerdict.NOT_BEST


def test_p3_cube_root_of_3(q3_zeta):
    c = classify_h(q3_zeta.from_int(3))
    assert c.verdict is KummerVerdict.BEST_I
    assert c.valuation == 2


def test_p3_threshold_unit(q3_zeta):
    c = classify_h(q3_zeta.one() + q3_zeta.z().pow(3))
    assert c.verdict is KummerVerdict.BEST_V
    assert str(c.c_residue) == "1"


def test_p3_above_threshold_is_trivial(q3_zeta):
    c = classify_h(q3_zeta.from_int(10))
    assert c.verdict is KummerVerdict.TRIVIAL


def test_case_v_rescue_over_imperfect_residue():
    # over GF(2)(y) the class c = y + y^2 equals x^2 - x at x = y, so the
    # threshold unit is improvable rather than unramified
    K = CycloField(2, 1, with_y=True)
    y = K.y_gen()
    h = K.one() + (y + y * y) * K.z().pow(2)
    c = classify_h(h)
    assert c.verdict is KummerVerdict.NOT_BEST
    out = normalize_h(h)
    assert out.kind is OutcomeKind.TRIVIAL
    assert out.steps == 1


def test_case_v_survives_over_imperfect_residue():
    # y itself is not of the form x^2 - x in GF(2)(y)
    K = CycloField(2, 1, with_y=True)
    h = K.one() + K.y_gen() * K.z().pow(2)
    c = classify_h(h)
    assert c.verdict is KummerVerdict.BEST_V


# -- improvement and normalization -------------------------------------------


def test_improve_raises_unit_level(q2_pi):
    h = parse_expr("1 + pi^(2)", q2_pi)
    c = classify_h(h)
    h2 = improve_h(h, c.g)
    assert (h2 - q2_pi.one()).valuation() == 3


def test_normalize_chain_m2(q2_pi):
    out = normalize_h(parse_expr("1 + pi^(2)", q2_pi))
    assert out.kind is OutcomeKind.BEST_FOUND
    assert out.steps == 1
    assert out.trajectory == (2, 3)
    assert out.classification.verdict is KummerVerdict.BEST_III


def test_normalize_trivial_after_strip(q3_zeta):
    # 8 = 2^3 has trivial cube root class over Q_3(zeta): one rescale kills it
    out = normalize_h(q3_zeta.from_int(8))
    assert out.kind is OutcomeKind.TRIVIAL
    assert out.steps == 1


def test_normalize_rescale_trivial():
    K = CycloField(2, 1, with_y=True)
    out = normalize_h(K.y_gen() * K.y_gen())
    assert out.kind is OutcomeKind.TRIVIAL
    assert out.steps == 1


# -- invariants ---------------------------------------------------------------


def test_invariants_wild(q2):
    out = normalize_h(q2.from_int(2))
    inv = kummer_invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (2, 1, 1)
    assert inv.type == "wild"
    assert str(inv.swan) == "2"


def test_invariants_ramified_below_threshold(q2):
    out = normalize_h(q2.from_int(3))
    inv = kummer_invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (2, 1, 1)
    assert str(inv.swan) == "1"


def test_invariants_unramified(q2):
    out = normalize_h(q2.from_int(5))
    inv = kummer_invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (1, 2, 1)
    assert inv.type == "unramified"
    assert str(inv.swan) == "0"


def test_invariants_ferocious():
    K = CycloField(2, 2, with_y=True)
    out = normalize_h(K.y_gen())
    inv = kummer_invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (1, 2, 1)
    assert inv.type == "ferocious"
    assert str(inv.swan) == "4"


def test_invariants_trivial(q2):
    out = normalize_h(q2.from_int(9))
    inv = kummer_invariants(out)
    assert (inv.e, inv.f_res, inv.d) == (1, 1, 1)
    assert inv.swan is None


def test_product_is_p_on_every_verdict(q2, q2_pi, q3_zeta):
    for field, n in ((q2, 2), (q2, 3), (q2, 5), (q3_zeta, 3)):
        out = normalize_h(field.from_int(n))
        assert kummer_invariants(out).product() == field.p


# -- probes --------------------------------------------------------------------


def test_probe_best_h_star(q2, rng):
    out = normalize_h(q2.from_int(2))
    probes = [random_cyclo_unit(q2, rng) for _ in range(40)]
    assert kummer_bestness_probe(out.f_star, probes) == []


def test_probe_catches_improvable(q2_pi):
    h = parse_expr("1 + pi^(2)", q2_pi)
    g = classify_h(h).g
    assert kummer_bestness_probe(h, [g]) != []


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_probe_property_on_chain_output(seed):
    K = CycloField(2, 2, nprec=48)
    out = normalize_h(parse_expr("1 + pi^(2)", K))
    rng = random.Random(seed)
    probes = [random_cyclo_unit(K, rng) for _ in range(8)]
    assert kummer_bestness_probe(out.f_star, probes) == []


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_cyclo_ring_axioms(seed):
    K = CycloField(3, 1, nprec=24)
    rng = random.Random(seed)
    a = random_cyclo_unit(K, rng)
    b = random_cyclo_unit(K, rng)
    c = random_cyclo_unit(K, rng)
    assert cyclo_agrees(a * (b + c), a * b + a * c)
    assert cyclo_agrees(a * b, b * a)
    assert cyclo_agrees((a - b) + b, a)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_cyclo_inverse_round_trip(seed):
    K = CycloField(2, 2, nprec=48)
    rng = random.Random(seed)
    a = random_cyclo_unit(K, rng)
    assert (a * a.invert() - K.one()).valuation_is_above(60)
