"""One square-and-multiply for every element type.

``residue_field.power`` is checked against the repeated-multiplication loop
it replaced, copied here as the reference, on every element type that is
raised to powers: series over all field presets (exact, truncated and zero
to precision), extension elements and the gamma of the norm construction,
GF(4) and GF(9), GF(2)(y), and the cyclotomic fields with and without y.
Results must be ``==``-equal, precision bounds included.  The parser's
``^`` costs about 2*log2(n) products, so a huge exponent answers at once.
"""

import io
import json
import math
from contextlib import redirect_stdout
from random import Random

import pytest

from valuata.as_extension import ASExtension
from valuata.cli import main
from valuata.corpus import FIELD_PRESETS, FieldSpec
from valuata.dsl import parse_expr
from valuata.hahn_series import SeriesElt
from valuata.norm_ideal import gamma_of, sample_generator
from valuata.residue_field import GF, RatFunc, power
from valuata.sampling import random_group_elt, random_residue, random_series

from helpers import random_cyclo_unit, zero_to


def repeated(x, n, one):
    """The reference: one multiplication per unit of the exponent."""
    out = one
    for _ in range(n):
        out = out * x
    return out


def check_powers(x, one, top):
    for n in range(top + 1):
        assert power(x, n, one) == repeated(x, n, one), (x, n)


# -- cross-check against the repeated-multiplication loop ---------------------

@pytest.mark.parametrize("preset", sorted(FIELD_PRESETS))
def test_series_powers_match_repeated_products(preset):
    field = FIELD_PRESETS[preset].build()
    rng = Random(preset)
    one = field.one()
    for _ in range(6):
        a = random_series(field, rng, -3, 3, max_terms=3)
        bound = random_group_elt(field.group, rng, 1, 6)
        for x in (a, a.truncate(bound), zero_to(field, bound)):
            check_powers(x, one, 9)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("precision", [8, 12, 24])
def test_extension_powers_match_repeated_products(p, precision):
    field = FieldSpec("series", f"gf:{p}", "int", precision).build()
    ext = ASExtension(field, parse_expr("X^(-1)", field))
    rng = Random(p * 100 + precision)
    b = sample_generator(ext, rng)
    for x in (b, gamma_of(b)):
        check_powers(x, ext.one(), p + 1)


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2)])
def test_finite_field_powers_match_repeated_products(p, m):
    k = GF(p, m)
    for a in k.elements():
        check_powers(a, k.one(), k.q + 1)
        if a:
            for n in range(1, k.q + 2):
                assert a ** -n == repeated(k.inv(a), n, k.one())
                assert a ** n == repeated(a, n, k.one())


def test_rational_function_powers_match_repeated_products():
    k = RatFunc(GF(2))
    rng = Random(2)
    for _ in range(12):
        a = random_residue(k, rng)
        check_powers(a, k.one(), 9)
        for n in range(1, 6):
            assert a ** n == repeated(a, n, k.one())
            assert a ** -n == repeated(k.inv(a), n, k.one())


@pytest.mark.parametrize("p, m, with_y", [(2, 1, False), (3, 1, False),
                                          (3, 2, False), (3, 1, True)])
def test_cyclotomic_powers_match_repeated_products(p, m, with_y):
    field = FieldSpec("cyclo", p=p, m=m, with_y=with_y, precision=8).build()
    rng = Random(p * 10 + m)
    for _ in range(4):
        u = random_cyclo_unit(field, rng)
        for x in (u, u * field.pi(rng.randint(-2, 3))):
            check_powers(x, field.one(), p + 2)
            for n in range(1, 4):
                assert x.pow(n) == repeated(x, n, field.one())
                assert x.pow(-n) == repeated(x.invert(), n, field.one())


# -- huge exponents in the parser -----------------------------------------------

def analyze(expr):
    """The analyze-as report over gf2-laurent, without its echo of the input."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze-as", expr, "--field", "gf2-laurent"]) == 0
    report = json.loads(out.getvalue())
    del report["input"]
    return report


def binomial_gf2(field, n):
    """(1 + X)^n over GF(2) written out: the product of 1 + X^(2^k) over the
    bits k of n, since squaring is additive in characteristic 2."""
    out = field.one()
    for k in range(n.bit_length()):
        if n >> k & 1:
            out = out * parse_expr(f"1 + X^({2 ** k})", field)
    return str(out)


@pytest.mark.parametrize("expr, n, same", [
    ("1^99999999", 99999999, "1"),
    ("(X)^99999999", 99999999, "X^(99999999)"),
    ("(1 + X)^9999", 9999, None),
])
def test_huge_power_reports_like_its_value(expr, n, same, monkeypatch):
    field = FIELD_PRESETS["gf2-laurent"].build()
    assert analyze(expr) == analyze(same or binomial_gf2(field, n))
    calls = []
    mul = SeriesElt.__mul__
    monkeypatch.setattr(SeriesElt, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    parse_expr(expr, field)
    assert 0 < len(calls) <= 2 * math.ceil(math.log2(n)) + 1
