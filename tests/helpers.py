"""Samplers and predicates that only the tests use."""

from random import Random

from valuata.errors import ValuataError
from valuata.norm_ideal import gamma_of
from valuata.sampling import random_group_elt, random_residue, random_series
from valuata.value_group import GroupElt


def random_shift_probe(field, rng: Random, lo=-4, hi=4, max_terms: int = 3):
    """A probe h for sup-attainment checks: small random support reaching
    well below and above valuation zero."""
    return random_series(field, rng, lo, hi, max_terms, nonzero=True)


def random_cyclo_unit(field, rng: Random, max_terms: int = 3):
    """A unit of a cyclotomic field: nonzero constant digit plus a few
    higher uniformizer terms, times the residue generator when one exists."""
    g = field.from_int(rng.randint(1, field.p - 1) if field.p > 2 else 1)
    for _ in range(rng.randint(0, max_terms)):
        c = rng.randint(1, field.p - 1)
        k = rng.randint(1, 2 * field.degree)
        g = g + field.from_int(c) * field.pi(k)
    if field.with_y and rng.randrange(2):
        g = g * field.y_gen()
    return g


def zero_to(field, precision: GroupElt):
    """The series that is zero to the given precision bound."""
    return field.make((), precision)


def scale_residue(a, c):
    """a times the residue constant c; precision is unchanged."""
    return a._scaled(a.field.ring.pack(c))


def is_base(x) -> bool:
    """An extension element with no visible term above the constant
    coefficient."""
    return all(not c.has_terms() for c in x.coeffs[1:])


def count_group_elts(monkeypatch, counts, key="GroupElt"):
    """Add one to counts[key] for every GroupElt built from now on: through
    the rational constructor or GroupElt.packed, the only two ways."""
    init, packed = GroupElt.__init__, GroupElt.packed.__func__

    def counted_init(self, parts):
        counts[key] += 1
        init(self, parts)

    def counted_packed(cls, num, den):
        counts[key] += 1
        return packed(cls, num, den)

    monkeypatch.setattr(GroupElt, "__init__", counted_init)
    monkeypatch.setattr(GroupElt, "packed", classmethod(counted_packed))


def exact_completion(a, rng: Random, extra: int = 3):
    """An exact element that the bounds of a allow: every coordinate with a
    precision bound B keeps its visible terms, gains up to extra random
    terms at exponents B and above, and drops its bound."""
    base = a.ext.base
    coeffs = []
    for c in a.coeffs:
        bound = c.precision
        if bound is not None:
            c = base.make(c.terms, None)
            for _ in range(rng.randint(0, extra)):
                coeff = random_residue(base.residue, rng)
                if coeff:
                    c = c + base.monomial(
                        coeff, bound + random_group_elt(base.group, rng, 0, 3))
        coeffs.append(c)
    return a.ext.from_coeffs(coeffs)


def assert_matches_full_norm(a, rng: Random, completions: int = 4):
    """valuation_L equals v(N(a))/p.  Where the full norm raises, valuation_L
    raises the same, or the basis route of a best extension answers; such an
    answer must equal v(N)/p of random exact completions of a."""
    p = a.ext.p
    try:
        expected = a.norm().valuation().divide(p)
    except ValuataError as exc:
        try:
            got = a.valuation_L()
        except type(exc):
            return
        assert a.ext.basis_v_alpha is not None
        for _ in range(completions):
            exact = exact_completion(a, rng)
            assert exact.norm().valuation().divide(p) == got
        return
    assert a.valuation_L() == expected


def y_chain(b):
    """gamma and the intermediates (sigma - 1)**i(gamma) of the y
    construction: elements whose coordinates carry precision bounds."""
    out = [gamma_of(b)]
    for _ in range(b.ext.p - 2):
        out.append(out[-1].sigma() - out[-1])
    return out
