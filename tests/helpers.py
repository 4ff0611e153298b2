"""Samplers and predicates that only the tests use."""

from random import Random

from valuata.sampling import random_series
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
