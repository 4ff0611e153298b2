"""Samplers and predicates that only the tests use."""

from random import Random

from valuata.sampling import random_series


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
