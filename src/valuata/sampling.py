"""Seeded random elements for probe suites and property tests.

Everything here takes an explicit random.Random so runs are reproducible
from a seed; sampled exponents always respect the field's value group.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .as_extension import ASExtension, ExtElt
from .hahn_series import SeriesElt, SeriesField
from .value_group import GroupElt, GroupKind, ValueGroup


def _coerce_bound(group: ValueGroup, x) -> GroupElt:
    if isinstance(x, GroupElt):
        return x
    return GroupElt((x,) * group.rank)


def random_group_elt(group: ValueGroup, rng: Random, lo, hi,
                     max_denom_pow: int = 3) -> GroupElt:
    """A group element in [lo, hi], uniform over a finite grid.

    Bounds may be GroupElt or plain numbers (applied to every coordinate).
    The grid is the integers for INT, p-power denominators up to
    p**max_denom_pow for INT_INV_P, denominators up to 2**max_denom_pow for
    RAT, and a product grid on both coordinates for LEX2.
    """
    lo = _coerce_bound(group, lo)
    hi = _coerce_bound(group, hi)
    if group.kind is GroupKind.LEX2:
        first = _random_fraction(rng, lo.parts[0], hi.parts[0], group.p ** max_denom_pow,
                                 p_power=group.p)
        second = _random_fraction(rng, lo.parts[1], hi.parts[1], 2 ** max_denom_pow)
        return GroupElt((first, second))
    if group.kind is GroupKind.INT:
        return GroupElt((rng.randint(int(lo.parts[0]), int(hi.parts[0])),))
    if group.kind is GroupKind.INT_INV_P:
        value = _random_fraction(rng, lo.parts[0], hi.parts[0],
                                 group.p ** max_denom_pow, p_power=group.p)
        return GroupElt((value,))
    return GroupElt((_random_fraction(rng, lo.parts[0], hi.parts[0], 2 ** max_denom_pow),))


def _random_fraction(rng: Random, lo: Fraction, hi: Fraction, max_denom: int,
                     p_power: int | None = None) -> Fraction:
    if p_power is not None:
        denoms = []
        d = 1
        while d <= max_denom:
            denoms.append(d)
            d *= p_power
        denom = rng.choice(denoms)
    else:
        denom = rng.randint(1, max_denom)
    lo_n = -(-lo.numerator * denom // lo.denominator)  # ceil(lo * denom)
    hi_n = hi.numerator * denom // hi.denominator      # floor(hi * denom)
    if hi_n < lo_n:
        denom = lo.denominator
        lo_n = lo.numerator
        hi_n = max(lo_n, (hi * denom).numerator // (hi * denom).denominator)
    return Fraction(rng.randint(lo_n, hi_n), denom)


def random_residue(field, rng: Random, poly_degree: int = 2):
    """A residue-field element; for rational functions a random low-degree
    fraction, possibly constant."""
    kind = getattr(field, "kind", "")
    if kind.startswith("ratfunc"):
        base = field.base
        num = [_random_gf(base, rng) for _ in range(rng.randint(1, poly_degree + 1))]
        den = [_random_gf(base, rng) for _ in range(rng.randint(1, poly_degree + 1))]
        den[-1] = base.one()
        if all(c.is_zero() for c in num):
            num[0] = base.one()
        return field.from_polys(num, den)
    return _random_gf(field, rng)


def _random_gf(field, rng: Random):
    return field.elt([rng.randrange(field.p) for _ in range(field.m)])


def random_series(field: SeriesField, rng: Random, lo: GroupElt, hi: GroupElt,
                  max_terms: int = 4, nonzero: bool = False) -> SeriesElt:
    """An exact series with a small random support inside [lo, hi]."""
    n = rng.randint(1 if nonzero else 0, max_terms)
    terms = []
    for _ in range(n):
        exp = random_group_elt(field.group, rng, lo, hi)
        coeff = random_residue(field.residue, rng)
        if coeff:
            terms.append((exp, coeff))
    elt = field.make(terms, None)
    if nonzero and elt.is_exact_zero():
        return field.monomial(field.residue.one(),
                              random_group_elt(field.group, rng, lo, hi))
    return elt


def random_ext_elt(ext: ASExtension, rng: Random, lo: GroupElt, hi: GroupElt,
                   max_terms: int = 3, generator: bool = False) -> ExtElt:
    """Random extension element; with generator=True some coefficient above
    the constant one is forced to be visibly nonzero."""
    coeffs = [random_series(ext.base, rng, lo, hi, max_terms)
              for _ in range(ext.p)]
    if generator and all(not c.has_terms() for c in coeffs[1:]):
        slot = rng.randrange(1, ext.p)
        coeffs[slot] = random_series(ext.base, rng, lo, hi, max_terms, nonzero=True)
    return ext.from_coeffs(coeffs)
