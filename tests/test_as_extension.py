import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata import as_extension, best_f
from valuata.as_extension import ASExtension, ExtElt
from valuata.corpus import FieldSpec
from valuata.dsl import parse_expr
from valuata.errors import TrivialExtensionError, ValuataError
from valuata.hahn_series import agrees_to_precision
from valuata.sampling import random_ext_elt, random_group_elt
from valuata.value_group import ge

from helpers import is_base
from routes import (norm_via_matrix, sequential_invert, sequential_norm,
                    trace_via_matrix)

seeds = st.integers(min_value=0, max_value=10**9)


def build(field, expr):
    from valuata.dsl import parse_expr
    return ASExtension(field, parse_expr(expr, field))


def test_alpha_satisfies_its_equation(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    a = ext.alpha()
    lhs = a * a - a
    assert agrees_to_precision(lhs.constant(), ext.f)
    assert is_base(lhs)


def test_sigma_shifts_alpha(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    a = ext.alpha()
    assert str(a.sigma()) == "(1) + (1)*a"
    assert a.sigma(2) == a


def test_sigma_is_a_ring_morphism(gf3_laurent, rng):
    ext = build(gf3_laurent, "X^(-1)")
    x = random_ext_elt(ext, rng, ge(-3), ge(3))
    y = random_ext_elt(ext, rng, ge(-3), ge(3))
    assert agrees_elt((x + y).sigma(), x.sigma() + y.sigma())
    assert agrees_elt((x * y).sigma(), x.sigma() * y.sigma())


def agrees_elt(u, v):
    return all(not c.has_terms() for c in (u - v).coeffs)


def test_norm_of_alpha_is_minus_f(gf3_laurent):
    # the constant term of X^p - X - f is -f, so the norm of alpha is
    # (-1)^p * (-f) = f for odd p
    ext = build(gf3_laurent, "X^(-1)")
    n = ext.alpha().norm()
    assert agrees_to_precision(n, ext.f)


def test_norm_of_alpha_p2(gf2_laurent):
    ext = build(gf2_laurent, "X^(-3)")
    assert agrees_to_precision(ext.alpha().norm(), ext.f)


def test_trace_of_alpha(gf2_laurent):
    # alpha + sigma(alpha) = 2 alpha + 1 = 1 in characteristic 2
    ext = build(gf2_laurent, "X^(-3)")
    t = ext.alpha().trace()
    assert agrees_to_precision(t, gf2_laurent.one())


def test_norm_dual_route_on_witnesses(gf2_laurent, gf3_laurent):
    e2 = build(gf2_laurent, "X^(-3)")
    e3 = build(gf3_laurent, "X^(-1)")
    for ext in (e2, e3):
        items = [ext.alpha(), ext.one() + ext.alpha(),
                 ext.from_base(ext.base.monomial(ext.base.residue.one(),
                                                 ge(-2))) + ext.alpha()]
        for x in items:
            assert agrees_to_precision(x.norm(), norm_via_matrix(x))


def test_trace_dual_route(gf3_laurent, rng):
    ext = build(gf3_laurent, "X^(-1)")
    for _ in range(5):
        x = random_ext_elt(ext, rng, ge(-3), ge(3))
        assert agrees_to_precision(x.trace(), trace_via_matrix(x))


def test_invert_round_trip(gf2_laurent, rng):
    ext = build(gf2_laurent, "X^(-3)")
    for _ in range(5):
        x = random_ext_elt(ext, rng, ge(-2), ge(2), generator=True)
        inv = x.invert()
        assert agrees_elt(x * inv, ext.one())


def test_valuation_L_of_alpha(gf2_laurent, gf3_laurent):
    assert build(gf2_laurent, "X^(-3)").alpha().valuation_L() == ge(-3).divide(2)
    assert build(gf3_laurent, "X^(-1)").alpha().valuation_L() == ge(-1).divide(3)


def test_trivial_extension_refused(gf2_laurent):
    ext = build(gf2_laurent, "X^(2)")
    assert ext.trivial
    with pytest.raises(TrivialExtensionError):
        ext.require_nontrivial()
    with pytest.raises(TrivialExtensionError):
        ext.alpha().invert()


def _preset(name):
    from valuata.corpus import FIELD_PRESETS
    return FIELD_PRESETS[name].build()


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_norm_is_multiplicative(seed):
    ext = build(_preset("gf2-laurent"), "X^(-3)")
    rng = random.Random(seed)
    x = random_ext_elt(ext, rng, ge(-2), ge(2))
    y = random_ext_elt(ext, rng, ge(-2), ge(2))
    assert agrees_to_precision((x * y).norm(), x.norm() * y.norm())


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_trace_is_additive(seed):
    ext = build(_preset("gf3-laurent"), "X^(-1)")
    rng = random.Random(seed)
    x = random_ext_elt(ext, rng, ge(-2), ge(2))
    y = random_ext_elt(ext, rng, ge(-2), ge(2))
    assert agrees_to_precision((x + y).trace(), x.trace() + y.trace())


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_norm_routes_agree_random(seed):
    ext = build(_preset("gf3-laurent"), "X^(-1)")
    rng = random.Random(seed)
    x = random_ext_elt(ext, rng, ge(-2), ge(2))
    assert agrees_to_precision(x.norm(), norm_via_matrix(x))


@pytest.mark.parametrize("coeffs", [("2 + X^(-1)", "0", "3*X^(2)"),
                                    ("1", "0", "0", "0", "0", "X^(1)")])
def test_norm_routes_agree_at_p11(coeffs):
    # the Berkowitz determinant stays affordable where Laplace expansion
    # (11! terms) would not
    field = FieldSpec("series", "gf:11", "int", precision=24).build()
    ext = build(field, "X^(-1)")
    x = ext.from_coeffs([parse_expr(c, field) for c in coeffs])
    n = x.norm()
    assert n.has_terms()
    assert n == norm_via_matrix(x)


def _bounded(ext, rng, x):
    """x with some coordinates cut at a random bound."""
    return ext.from_coeffs([c.truncate(random_group_elt(ext.base.group, rng, -1, 5))
                            if rng.randrange(2) else c for c in x.coeffs])


def _outcome(fn, x):
    try:
        return "value", fn(x)
    except ValuataError as exc:
        return "raised", type(exc), str(exc)


def check_doubling(p, seed):
    """norm and invert build the conjugate product by doubling; the
    sequential product gives ==-equal results, bounds included.  The matrix
    route agrees to ==-equality on exact elements; on bounded ones its
    bounds may differ, so it agrees to precision."""
    field = FieldSpec("series", f"gf:{p}", "int", precision=12).build()
    ext = build(field, "X^(-1) + X^(2)" if seed % 2 else "X^(-1)")
    rng = random.Random(seed)
    x = random_ext_elt(ext, rng, ge(-2), ge(2), generator=True)
    for y in (x, _bounded(ext, rng, x)):
        assert _outcome(lambda z: z.norm(), y) == _outcome(sequential_norm, y)
        assert _outcome(lambda z: z.invert(), y) == _outcome(sequential_invert, y)
        target = ge(6)
        assert (_outcome(lambda z: z.invert(target), y)
                == _outcome(lambda z: sequential_invert(z, target), y))
    assert x.norm() == norm_via_matrix(x)
    y = _bounded(ext, rng, x)
    assert agrees_to_precision(y.norm(), norm_via_matrix(y))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=15, deadline=None)
@given(seeds)
def test_doubling_matches_sequential_conjugates(p, seed):
    check_doubling(p, seed)


@settings(max_examples=4, deadline=None)
@given(seeds)
def test_doubling_matches_sequential_conjugates_at_p11(seed):
    check_doubling(11, seed)


@pytest.mark.parametrize("p, products", [(2, 1), (3, 2), (5, 3), (7, 4), (11, 5)])
def test_norm_takes_doubling_products(monkeypatch, p, products):
    """floor(log2(p-1)) + popcount(p-1) - 1 products for the conjugates and
    one for a itself; the sequential loop took p - 1."""
    field = FieldSpec("series", f"gf:{p}", "int", precision=12).build()
    ext = build(field, "X^(-1)")
    x = random_ext_elt(ext, random.Random(p), ge(-2), ge(2), generator=True)
    calls = []
    mul = ExtElt.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(ExtElt, "__mul__", counted)
    x.norm()
    assert len(calls) == products


# -- one decision per extension -------------------------------------------------

DECIDED = [("gf2-laurent", "X^(-3)", False), ("gf2y-laurent", "y*X^(-2)", False),
           ("gf4-laurent", "w", False), ("gf2-laurent", "X^(-6) + X^(-1)", False),
           ("gf2-half-powers", "X^(-1)", False), ("gf2-laurent", "X^(2)", True),
           ("gf2-laurent", "X^(-2) + X^(-1)", True), ("gf4-laurent", "1", True)]
DECIDERS = [(as_extension, "normalize"), (best_f, "normalize"), (best_f, "classify")]


def count_deciders(monkeypatch):
    """Count every call of normalize and classify from here on."""
    counts = Counter()
    for module, name in DECIDERS:
        original = getattr(module, name)

        def wrapper(*args, _original=original, _name=f"{module.__name__}.{name}",
                    **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("preset, expr, splits", DECIDED)
def test_construction_normalizes_once(monkeypatch, preset, expr, splits):
    """The extension's one decision: a single normalize, read for both
    trivial and basis_v_alpha; valuation_L asks for no other."""
    field = _preset(preset)
    f = parse_expr(expr, field)
    counts = count_deciders(monkeypatch)
    ext = ASExtension(field, f)
    assert counts["valuata.as_extension.normalize"] == 1
    assert ext.trivial is splits
    counts.clear()
    if not splits:
        rng = random.Random(0)
        for _ in range(3):
            random_ext_elt(ext, rng, ge(-2), ge(2), generator=True).valuation_L()
        ext.alpha().valuation_L()
    assert not counts
    monkeypatch.undo()
    best = best_f.classify(f).is_best
    assert (ext.basis_v_alpha is not None) is best
    if best:
        assert ext.basis_v_alpha == f.valuation().divide(ext.p)


# -- one normalize per generator per request ------------------------------------

REQUESTS = [
    ("analyze-as", "X^(-3)", "gf2-laurent"),
    ("analyze-as", "X^(-1) + X^(2)", "gf3-laurent"),
    ("analyze-as", "y*X^(-2)", "gf2y-laurent"),
    ("analyze-as", "X^(-6)", "gf2-laurent"),
    ("normalize-as", "X^(-12) + X^(-1)", "gf2-laurent"),
    ("normalize-as", "2*X^(-9)", "gf3-laurent"),
    ("normalize-as", "w", "gf4-laurent"),
    ("normalize-as", "X^(-1)", "gf2-half-powers"),
    ("normalize-as", "X^(-2) + X^(-1)", "gf2-laurent"),
]


def count_everywhere(monkeypatch):
    """Count normalize and classify calls through every valuata module that
    binds them, as the CLI and corpus import both by name."""
    counts = Counter()
    for name in ("normalize", "classify"):
        original = getattr(best_f, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("valuata") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("command, expr, preset", REQUESTS)
def test_one_normalize_per_request(monkeypatch, capsys, command, expr, preset):
    """analyze-as classifies its generator once and normalizes nothing;
    normalize-as normalizes once and classifies exactly as often as that
    normalize does.  The Swan cross-check of a best result reuses the
    certified outcome instead of normalizing f* again."""
    from valuata.cli import main
    field = _preset(preset)
    f = parse_expr(expr, field)
    counts = count_everywhere(monkeypatch)
    if command == "normalize-as":
        best_f.normalize(f, 16)
        alone = counts["classify"]
        counts.clear()
    assert main([command, expr, "--field", preset]) == 0
    body = json.loads(capsys.readouterr().out)
    if command == "analyze-as":
        assert dict(counts) == {"classify": 1}
        best = body["classification"]["verdict"].startswith("best")
    else:
        assert dict(counts) == {"normalize": 1, "classify": alone}
        best = body["outcome"] == "best-found"
    assert (body["swan_check"] is not None) is best
