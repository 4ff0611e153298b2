"""The polynomial layer under RatFunc: polynomials in y as tuples of integer
codes.  Properties over GF(2), GF(3), GF(4) and GF(9), an oracle check
against sympy over prime fields, and pinned printed forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.residue_field import (GF, RatFunc, poly_add, poly_divmod,
                                   poly_gcd, poly_mul, poly_neg, poly_trim)

FIELDS = (GF(2), GF(3), GF(2, 2), GF(3, 2))


def polys(field, max_len=7):
    return st.lists(st.integers(0, field.q - 1), max_size=max_len).map(poly_trim)


def fractions(field):
    """Reduced elements of RatFunc(field), built from code lists."""
    r = RatFunc(field)
    nonzero = polys(field).filter(bool)
    return st.tuples(polys(field), nonzero).map(
        lambda nd: r.from_polys([field.from_code(c) for c in nd[0]],
                                [field.from_code(c) for c in nd[1]]))


def by_field(strategy):
    """A field and a tuple drawn from ``strategy(field)``."""
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(st.just(f), strategy(f)))


def is_reduced(x):
    gf = x.field.base
    if not x.num:
        return x.den == (1,)
    return (x.den[-1] == 1 and x.num[-1] != 0
            and poly_gcd(gf, x.num, x.den) == (1,))


@given(by_field(lambda f: st.tuples(polys(f), polys(f).filter(bool))))
def test_division_with_remainder(case):
    field, (a, b) = case
    q, r = poly_divmod(field, a, b)
    assert poly_add(field, poly_mul(field, q, b), r) == a
    assert len(r) < len(b)


@given(by_field(lambda f: st.tuples(polys(f), polys(f))))
def test_gcd_is_monic_and_divides_both(case):
    field, (a, b) = case
    g = poly_gcd(field, a, b)
    if not a and not b:
        assert g == ()
        return
    assert g[-1] == 1
    qa, ra = poly_divmod(field, a, g)
    qb, rb = poly_divmod(field, b, g)
    assert ra == () and rb == ()
    assert poly_gcd(field, qa, qb) == (1,)


@given(by_field(lambda f: st.tuples(fractions(f), fractions(f))))
def test_ratfunc_results_are_reduced(case):
    field, (x, z) = case
    r = x.field
    results = [x + z, x - z, x * z, -x, r.frobenius(x)]
    if z:
        results.append(r.inv(z))
    assert all(is_reduced(v) for v in results)


@settings(max_examples=60)
@given(by_field(lambda f: st.tuples(fractions(f), fractions(f), fractions(f))))
def test_ratfunc_field_laws(case):
    field, (a, b, c) = case
    r = a.field
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + r.zero() == a and a * r.one() == a
    assert (a - a).is_zero()
    if a:
        assert a * r.inv(a) == r.one()
    assert r.frobenius(a + b) == r.frobenius(a) + r.frobenius(b)
    assert r.frobenius(a) == a ** field.p
    assert r.pth_root(r.frobenius(a)) == a


# -- sympy as an oracle over GF(p)[y] (test-only dependency) ----------------------


def _oracle_cases(p, count=150):
    rng = random.Random(1000 + p)
    for _ in range(count):
        a = poly_trim(rng.randrange(p) for _ in range(rng.randint(0, 12)))
        b = poly_trim(rng.randrange(p) for _ in range(rng.randint(1, 9)))
        yield a, b or (1,)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_polynomials_agree_with_sympy(p):
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    field = GF(p)

    def to_sympy(a):
        return sympy.Poly(list(reversed(a)) or [0], y, modulus=p)

    def back(poly):
        return poly_trim(int(c) % p for c in reversed(poly.all_coeffs()))

    for a, b in _oracle_cases(p):
        sa, sb = to_sympy(a), to_sympy(b)
        assert poly_mul(field, a, b) == back(sa * sb)
        q, r = poly_divmod(field, a, b)
        sq, sr = sa.div(sb)
        assert (q, r) == (back(sq), back(sr))
        assert poly_gcd(field, a, b) == back(sa.gcd(sb).monic())
        assert poly_add(field, a, poly_neg(field, b)) == back(sa - sb)


# -- printed forms -----------------------------------------------------------------


def test_gf4_ratfunc_printed_forms_are_pinned():
    f4 = GF(2, 2)
    r = RatFunc(f4)
    y, one, w = r.gen(), r.one(), r.from_base(f4.gen())
    w1 = w + one
    assert str(w1 * y ** 3) == "(1 + w)*y^3"
    assert str(w1 * y ** 2 + w * y + w1) == "(1 + w)*y^2 + w*y + (1 + w)"
    assert str((w1 * y ** 2 + one) * r.inv(y + w)) == "((1 + w)*y^2 + 1)/(y + w)"
    assert str(r.inv(w1 * y ** 3)) == "(w)/(y^3)"
    assert str(r.frobenius(w1 * y + w)) == "w*y^2 + (1 + w)"
    assert str(r.inv(w * y ** 2 + w1 * y)) == "((1 + w))/(y^2 + w*y)"


def test_codes_round_trip_and_name_zero_and_one():
    for field in FIELDS:
        assert field.zero().code == 0 and field.one().code == 1
        assert [field.from_code(n).code for n in range(field.q)] == list(range(field.q))
