"""The y construction against the version that recomputed its valuations.

y_construct reads s' off the norm N(y) it certifies, computes v_L(gamma)
only for p > 2, derivative_product and verify_trace_lemma start from their
first factor, and sigma adds a coefficient unscaled where its binomial
scalar is 1.  The reference below is the earlier code, which recomputed
v_L(y), always computed v_L(gamma), started every product from one and
scaled by every scalar.  It runs with the reference sigma patched into
ExtElt, so norms and valuations inside it take the old path too, and with
the square-and-multiply that started from one * x (routes.old_power).  On
drawn samples, over best and over not-best f (whose last increment is now
read off N(y)), both must give ==-equal results, precision bounds included,
or an exception of the same type, message and attributes.  A last part
counts the work of one y_construct, so that repeated work cannot return
unnoticed.
"""

import math
import random
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.as_extension import ASExtension, ExtElt
from valuata.cli import main
from valuata.corpus import FieldSpec
from valuata.dsl import parse_expr
from valuata.errors import (ConstructionAssertError, IdentityViolatedError,
                            NotAGeneratorError, ZeroToPrecisionError)
from valuata.hahn_series import SeriesElt, agrees_to_precision
from valuata.norm_ideal import (LefschetzSample, TraceLemmaReport,
                                _has_visible, _random_nonzero_residue,
                                derivative_product, gamma_of,
                                lefschetz_val, sample_generator,
                                sample_unit_generator, verify_trace_lemma,
                                y_construct)
from valuata.sampling import random_ext_elt
from valuata.value_group import ge

from routes import old_power


# -- the reference: the code before the reuse ---------------------------------


def old_sigma(self, power: int = 1):
    ext = self.ext
    p = ext.p
    t = power % p
    if t == 0:
        return self
    base = ext.base
    out = [base.zero()] * p
    for i, c in enumerate(self.coeffs):
        if c.is_exact_zero():
            continue
        for j in range(i + 1):
            scalar = (math.comb(i, j) * pow(t, i - j, p)) % p
            if scalar:
                out[j] = out[j] + c.scale_int(scalar)
    return ExtElt(ext, tuple(out))


def old_derivative_product(b):
    p = b.ext.p
    out = b.ext.one()
    for i in range(1, p):
        factor = b - b.sigma(i)
        if not _has_visible(factor):
            raise NotAGeneratorError(
                f"b and sigma^{i}(b) agree to precision; b does not generate")
        out = out * factor
    return out


def old_gamma_of(b):
    p = b.ext.p
    return old_power(b, p - 1, b.ext.one()) * old_derivative_product(b).invert()


def old_y_construct(b):
    ext = b.ext
    p = ext.p
    s = lefschetz_val(b)
    gamma = old_gamma_of(b)
    y = gamma
    increments = []
    prev_val = y.valuation_L()
    for _ in range(p - 2):
        y = y.sigma() - y
        if not _has_visible(y):
            raise ConstructionAssertError(
                "an intermediate (sigma-1)^i(gamma) vanished to precision")
        val = y.valuation_L()
        increments.append(val - prev_val)
        prev_val = val
    jump = y.sigma() - y - ext.one()
    if _has_visible(jump):
        raise ConstructionAssertError(
            "sigma(y) - y - 1 has a visible term; construction failed")
    n_y = y.norm()
    direct = old_power(y, p, ext.one()) - y
    for c in direct.coeffs[1:]:
        if c.has_terms():
            raise ConstructionAssertError(
                "y^p - y has a visible component outside the base field")
    if not agrees_to_precision(direct.constant(), n_y):
        raise ConstructionAssertError(
            "norm of y disagrees with y^p - y to precision")
    s_prime = -y.valuation_L()
    return LefschetzSample(b, s, y, s_prime, n_y, tuple(increments))


def old_verify_trace_lemma(b):
    ext = b.ext
    p = ext.p
    ginv = old_derivative_product(b).invert()
    checks = []
    b_m = ext.one()
    for m in range(1, p):
        b_m = b_m * b
        t = (b_m * ginv).trace()
        expected = ext.base.zero() if m <= p - 2 else ext.base.one()
        ok = agrees_to_precision(t, expected)
        checks.append((m, ok))
        if not ok:
            raise IdentityViolatedError(
                f"trace of b^{m}/g'(b) is not {'0' if m <= p - 2 else '1'} to precision")
    return TraceLemmaReport(b, tuple(checks))


@contextmanager
def old_sigma_in_place():
    saved = ExtElt.sigma
    ExtElt.sigma = old_sigma
    try:
        yield
    finally:
        ExtElt.sigma = saved


def outcome(fn, *args):
    """The value, or the exception's type, message and attributes."""
    try:
        return "value", fn(*args)
    except Exception as exc:        # noqa: BLE001 - compared, not swallowed
        return "raised", (type(exc), str(exc), vars(exc))


def reference(fn, *args):
    with old_sigma_in_place():
        return outcome(fn, *args)


# -- drawn samples ---------------------------------------------------------------

# p = 2 and 3 over every group kind; p = 5 and 7 cost up to a second a
# sample off the integers, so they are drawn over the integers only
SMALL_P = [(r, g) for r in ("gf:2", "gf:3", "gf:4", "ratfunc:2")
           for g in ("int", "int-inv-p", "rat", "lex2")]
LARGE_P = [("gf:5", "int"), ("gf:7", "int")]
PRECISIONS = (4, 24)        # low, and the presets' default
# drawn elements over a dense group and GF(2)(y) can take seconds at 24
DRAWN_PRECISIONS = (4, 12)


def field_for(residue, group, precision):
    return FieldSpec("series", residue, group, precision).build()


def exp_of(field, k):
    return ge(k, 0) if field.group.rank == 2 else ge(k)


@st.composite
def extensions(draw, fields):
    """f = X^(-k) for k prime to p, with a drawn term of higher exponent and,
    off the integers, a term of exponent -1 + 1/p (1/2 for rat, (-1, 1) for
    lex2)."""
    residue, group = draw(st.sampled_from(fields))
    field = field_for(residue, group, draw(st.sampled_from(DRAWN_PRECISIONS)))
    k = draw(st.sampled_from([k for k in (1, 3, 5) if k % field.p]))
    f = field.monomial(field.residue.one(), exp_of(field, -k))
    if draw(st.booleans()):
        c = _random_nonzero_residue(field, random.Random(draw(st.integers(0, 99))))
        f = f + field.monomial(c, exp_of(field, draw(st.integers(-k + 1, 2))))
    if group != "int" and draw(st.booleans()):
        e = ge(-1, 1) if field.group.rank == 2 else \
            ge(-1) + ge(1).divide(2 if group == "rat" else field.p)
        f = f + field.monomial(field.residue.one(), e)
    return ASExtension(field, f)


FAMILIES = ("unit", "general", "random")


def generator(ext, seed, family):
    """A unit generator, a general one (the two verify-norm-ideal draws), or
    a random element whose coordinates may carry precision bounds."""
    rng = random.Random(seed)
    if family == "unit":
        return sample_unit_generator(ext, rng)
    if family == "general":
        return sample_generator(ext, rng)
    return random_ext_elt(ext, rng, -3, 4, generator=True)


samples = st.tuples(st.integers(0, 10 ** 6), st.sampled_from(FAMILIES))


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("residue, group", SMALL_P + LARGE_P)
def test_every_field_matches_reference(residue, group, precision):
    field = field_for(residue, group, precision)
    ext = ASExtension(field, field.monomial(field.residue.one(), exp_of(field, -1)))
    for family in FAMILIES:
        b = generator(ext, 0, family)
        assert outcome(y_construct, b) == reference(old_y_construct, b)
        assert outcome(verify_trace_lemma, b) == reference(old_verify_trace_lemma, b)


@settings(max_examples=150, deadline=None)
@given(extensions(SMALL_P), samples)
def test_y_construct_matches_reference(ext, sample):
    b = generator(ext, *sample)
    assert outcome(y_construct, b) == reference(old_y_construct, b)


@settings(max_examples=6, deadline=None)
@given(extensions(LARGE_P), samples)
def test_y_construct_matches_reference_at_p_5_and_7(ext, sample):
    b = generator(ext, *sample)
    assert outcome(y_construct, b) == reference(old_y_construct, b)


@st.composite
def not_best_extensions(draw):
    """f = X^(-3k) + X^(-j) over GF(3), or X^(-5) over GF(5), integer
    exponents: the leading pole is divisible by p, so f is not best and
    every valuation_L of the construction takes a full norm."""
    residue = draw(st.sampled_from(["gf:3", "gf:3", "gf:3", "gf:5"]))
    field = field_for(residue, "int", draw(st.sampled_from(DRAWN_PRECISIONS)))
    p = field.p
    f = field.monomial(field.residue.one(), ge(-p * draw(st.sampled_from([1, 2]))))
    if draw(st.booleans()):
        f = f + field.monomial(field.residue.one(), ge(-draw(st.sampled_from([1, 2]))))
    return ASExtension(field, f)


@settings(max_examples=60, deadline=None)
@given(not_best_extensions(), samples)
def test_y_construct_matches_reference_when_f_is_not_best(ext, sample):
    """The last increment's valuation, read off N(y), agrees with the
    reference's separate valuation_L of y: same result or same error."""
    assert ext.basis_v_alpha is None
    b = generator(ext, *sample)
    assert outcome(y_construct, b) == reference(old_y_construct, b)


@settings(max_examples=100, deadline=None)
@given(extensions(SMALL_P), samples)
def test_derivative_and_trace_lemma_match_reference(ext, sample):
    b = generator(ext, *sample)
    assert outcome(derivative_product, b) == reference(old_derivative_product, b)
    assert outcome(verify_trace_lemma, b) == reference(old_verify_trace_lemma, b)


@settings(max_examples=150, deadline=None)
@given(extensions(SMALL_P + LARGE_P), samples, st.integers(0, 8))
def test_sigma_matches_reference(ext, sample, t):
    b = generator(ext, *sample)
    assert b.sigma(t) == old_sigma(b, t)
    moved = b.sigma(t) - b
    assert moved.sigma(t) == old_sigma(moved, t)


@pytest.mark.parametrize("residue", ["gf:3", "gf:5", "gf:7"])
def test_sigma_scales_where_the_scalar_is_not_one(residue):
    """alpha**2 -> (alpha + 1)**2 = alpha**2 + 2*alpha + 1 for p > 2."""
    field = field_for(residue, "int", 8)
    ext = ASExtension(field, field.monomial(field.residue.one(), ge(-1)))
    a2 = ext.alpha() * ext.alpha()
    assert a2.sigma() == old_sigma(a2)
    assert a2.sigma().coeffs[1] == field.from_int(2)


# -- reachable failures ------------------------------------------------------------

VANISHED = "an intermediate (sigma-1)^i(gamma) vanished to precision"


def test_vanishing_intermediate_fails_alike(capsys):
    """The command that reaches the vanished-intermediate error, and the
    same draws through both versions."""
    argv = ["verify-norm-ideal", "X^(-1)", "--residue", "gf:7", "--count", "2",
            "--precision", "4", "--seed", "0"]
    assert main(argv) == 2
    assert VANISHED in capsys.readouterr().err
    field = field_for("gf:7", "int", 4)
    ext = ASExtension(field, field.monomial(field.residue.one(), ge(-1)))
    rng = random.Random(0)
    outcomes = []
    for k in range(2):       # the command's s-inequality suite alternates
        b = sample_unit_generator(ext, rng) if k % 2 == 0 else sample_generator(ext, rng)
        outcomes.append(outcome(y_construct, b))
        assert outcomes[-1] == reference(old_y_construct, b)
    assert ("raised", (ConstructionAssertError, VANISHED, {})) in outcomes


@pytest.mark.parametrize("group", ["int-inv-p", "rat"])
def test_gamma_zero_to_precision_at_p_2_fails_alike(group):
    """At p = 2, gamma = y.  Its v_L is zero to precision on this draw, found
    by search over p = 2 draws at precision 1.  The reference raised while
    computing v_L(gamma), before the jump and agreement checks.  The current
    code passes both checks and raises the same error reading s' off N(y)."""
    field = field_for("gf:4", group, 1)
    ext = ASExtension(field, field.monomial(field.residue.one(), ge(-5)))
    b = generator(ext, 116, "random")
    old = reference(old_y_construct, b)
    assert old[0] == "raised" and old[1][0] is ZeroToPrecisionError
    with old_sigma_in_place(), pytest.raises(ZeroToPrecisionError):
        gamma_of(b).valuation_L()
    assert outcome(y_construct, b) == old
    # the checks the current code runs before s'
    y = gamma_of(b)
    assert not _has_visible(y.sigma() - y - ext.one())
    n_y = y.norm()
    direct = y * y - y
    assert not any(c.has_terms() for c in direct.coeffs[1:])
    assert agrees_to_precision(direct.constant(), n_y)
    with pytest.raises(ZeroToPrecisionError):
        n_y.valuation()


# -- work per sample ---------------------------------------------------------------

COUNTED = [(ExtElt, "valuation_L"), (ExtElt, "norm"), (ExtElt, "__mul__"),
           (SeriesElt, "scale_int")]


def count_work(monkeypatch, fn, b):
    counts = Counter()
    for owner, name in COUNTED:
        original = getattr(owner, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    try:
        fn(b)
    finally:
        monkeypatch.undo()
    return {name: counts[name] for _, name in COUNTED}


@pytest.mark.parametrize("residue, expr, expected, before", [
    # ferocious-style: GF(2)(y), a pole of order 3
    ("ratfunc:2", "X^(-3)",
     {"valuation_L": 2, "norm": 1, "__mul__": 4, "scale_int": 0},
     {"valuation_L": 4, "norm": 1, "__mul__": 7, "scale_int": 13}),
    ("gf:3", "X^(-1)",
     {"valuation_L": 4, "norm": 1, "__mul__": 9, "scale_int": 5},
     {"valuation_L": 5, "norm": 1, "__mul__": 12, "scale_int": 36}),
    # not best: every valuation takes a full norm, and N(y) is the last one
    ("gf:3", "X^(-3)",
     {"valuation_L": 3, "norm": 4, "__mul__": 15, "scale_int": 9},
     {"valuation_L": 5, "norm": 6, "__mul__": 22, "scale_int": 75}),
])
def test_y_construct_work(monkeypatch, residue, expr, expected, before):
    """Calls made by one y_construct on a fixed unit generator, now and in
    the reference.  A rise means repeated work has come back.  When f is
    best, every valuation_L reads the valuation basis and the one norm is
    N(y); the reference shares that valuation_L.  When f is not best, the
    norms are those of v_L(b), v_L(sigma(b) - b), v_L(gamma) and N(y), which
    also gives the last increment.  Power starts from its first factor, so
    gamma and y**p take one product fewer each than the reference's."""
    field = field_for(residue, "int", 24)
    ext = ASExtension(field, parse_expr(expr, field))
    b = sample_unit_generator(ext, random.Random(0))
    assert count_work(monkeypatch, y_construct, b) == expected
    with old_sigma_in_place():
        assert count_work(monkeypatch, old_y_construct, b) == before
