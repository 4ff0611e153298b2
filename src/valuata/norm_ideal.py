"""Sample-scale verification of the norm-conductor constructions.

For a degree-p extension L = K(alpha) with sigma(alpha) = alpha + 1, every
generator b of L yields the displacement valuation

    lefschetz_val(b) = v_L(sigma(b)/b - 1) = v_L(sigma(b) - b) - v_L(b),

the valuative shadow of the ideal generated by all sigma(b)/b - 1.  From b
one builds gamma = b**(p-1) / g'(b), with g'(b) the product of b - sigma^i(b)
over i = 1..p-1, and then y = (sigma - 1)**(p-2) applied to gamma.  Group-ring
algebra makes sigma(y) = y + 1 on the nose, so y is itself an equation
generator and N(y) = y**p - y lies in the base field.  The quantitative
content checked here, sample by sample:

  * the trace identities Tr(b**m / g'(b)) = 0 for m <= p-2 and = 1 at p-1;
  * the displacement inequality lefschetz_val(b) >= -v_L(y);
  * on defectless instances, v(N(1/alpha)) agrees with the conductor -v(f*).

Everything is certified arithmetic: identities are asserted to the carried
precision and raise rather than report a silent pass.  Each sample computes
N(y) once: it certifies y**p - y, gives v_L(y) = v(N(y))/p and, when f is
not best, the valuation of the last increment's y.  The other
valuations are those of the displacement and, for p > 2, of gamma and its
images under sigma - 1, whose increments are recorded.  valuation_L reads
them off the valuation basis when f is best, with no norm, and off the full
norm otherwise (as_extension).  A sample is one LefschetzSample, whether it
comes from y_construct, verify_s_inequality or s_inequality_suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .as_extension import ASExtension, ExtElt
from .errors import (ConstructionAssertError, FixedElementError,
                     IdentityViolatedError, InequalityViolatedError,
                     NotAGeneratorError, UsageError)
from .hahn_series import SeriesElt, agrees_to_precision
from .residue_field import power
from .sampling import (_coerce_bound, random_ext_elt, random_group_elt,
                       random_residue, random_series)
from .value_group import GroupElt


def _has_visible(a: ExtElt) -> bool:
    return any(c.has_terms() for c in a.coeffs)


def lefschetz_val(b: ExtElt, power: int = 1) -> GroupElt:
    """v_L(sigma^power(b)/b - 1), computed as v_L(sigma^power(b) - b) - v_L(b)."""
    if power % b.ext.p == 0:
        raise UsageError("power must be coprime to p")
    moved = b.sigma(power) - b
    if not _has_visible(moved):
        raise FixedElementError("sigma fixes b to precision; pick a generator")
    return moved.valuation_L() - b.valuation_L()


def derivative_product(b: ExtElt) -> ExtElt:
    """g'(b): the minimal polynomial's derivative at b, as the product of
    b - sigma^i(b) over i = 1..p-1."""
    out = None
    for i in range(1, b.ext.p):
        factor = b - b.sigma(i)
        if not _has_visible(factor):
            raise NotAGeneratorError(
                f"b and sigma^{i}(b) agree to precision; b does not generate")
        out = factor if out is None else out * factor
    return out


def gamma_of(b: ExtElt) -> ExtElt:
    """b**(p-1) / g'(b); its trace is 1, the seed of the y construction."""
    p = b.ext.p
    return power(b, p - 1, b.ext.one()) * derivative_product(b).invert()


@dataclass(frozen=True)
class LefschetzSample:
    """One verified instance of the displacement construction."""

    b: ExtElt
    s: GroupElt
    y: ExtElt
    s_prime: GroupElt
    n_y: SeriesElt
    c_increments: tuple[GroupElt, ...]

    @property
    def holds(self) -> bool:
        return self.s >= self.s_prime


def y_construct(b: ExtElt) -> LefschetzSample:
    """Build y = (sigma - 1)**(p-2)(gamma) and certify its two identities.

    sigma(y) = y + 1 because (sigma - 1)**(p-1) acts as the trace on the
    group ring modulo p, and the trace of gamma is 1.  Both that identity and
    y**p - y landing in the base are asserted to precision.  The valuations
    computed are v_L(b) and v_L(sigma(b) - b) for s, and for p > 2 those of
    gamma and each (sigma - 1)**i(gamma), whose increments are recorded
    (at p = 2 there are none).  s' = -v(N(y))/p is read off the certified
    N(y), the value y.valuation_L() would return from its full norm.  When
    f is not best, that norm is also the last increment's valuation, so
    N(y) is computed once, where the loop needs it.
    """
    ext = b.ext
    p = ext.p
    s = lefschetz_val(b)
    y = gamma_of(b)
    increments = []
    n_y = None
    prev_val = y.valuation_L() if p > 2 else None
    for i in range(p - 2):
        y = y.sigma() - y
        if not _has_visible(y):
            raise ConstructionAssertError(
                "an intermediate (sigma-1)^i(gamma) vanished to precision")
        if i == p - 3 and ext.basis_v_alpha is None:
            # valuation_L of the final y would take its full norm: N(y)
            n_y = y.norm()
            val = n_y.valuation().divide(p)
        else:
            val = y.valuation_L()
        increments.append(val - prev_val)
        prev_val = val
    jump = y.sigma() - y - ext.one()
    if _has_visible(jump):
        raise ConstructionAssertError(
            "sigma(y) - y - 1 has a visible term; construction failed")
    if n_y is None:
        n_y = y.norm()
    direct = power(y, p, ext.one()) - y
    for c in direct.coeffs[1:]:
        if c.has_terms():
            raise ConstructionAssertError(
                "y^p - y has a visible component outside the base field")
    if not agrees_to_precision(direct.constant(), n_y):
        raise ConstructionAssertError(
            "norm of y disagrees with y^p - y to precision")
    s_prime = -n_y.valuation().divide(p)
    return LefschetzSample(b, s, y, s_prime, n_y, tuple(increments))


@dataclass(frozen=True)
class TraceLemmaReport:
    b: ExtElt
    checks: tuple[tuple[int, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def verify_trace_lemma(b: ExtElt) -> TraceLemmaReport:
    """Tr(b**m / g'(b)) for m = 1..p-1: zero below the top, one at the top."""
    ext = b.ext
    p = ext.p
    ginv = derivative_product(b).invert()
    checks = []
    for m in range(1, p):
        b_m = b if m == 1 else b_m * b
        t = (b_m * ginv).trace()
        expected = ext.base.zero() if m <= p - 2 else ext.base.one()
        ok = agrees_to_precision(t, expected)
        checks.append((m, ok))
        if not ok:
            raise IdentityViolatedError(
                f"trace of b^{m}/g'(b) is not {'0' if m <= p - 2 else '1'} to precision")
    return TraceLemmaReport(b, tuple(checks))


def verify_s_inequality(b: ExtElt) -> LefschetzSample:
    """Certify lefschetz_val(b) >= -v_L(y) for the y built from b, and
    return the sample.

    The statement's home is a unit b of the valuation ring upstairs, outside
    the base field, where the displacement is plainly v_L(sigma(b) - b).  The
    check uses the displacement relative to v_L(b), which agrees with that on
    units and extends to arbitrary generators; at p = 2 the construction gives
    y = b/(b - sigma(b)), so s' = s exactly for every generator.  For p >= 3
    a violation is possible and is reported, never masked.
    """
    sample = y_construct(b)
    if not sample.holds:
        raise InequalityViolatedError(
            f"s = {sample.s} < s' = {sample.s_prime} on a sampled generator")
    return sample


# -- sample families ------------------------------------------------------------


def sample_generator(ext: ASExtension, rng, lo=-2, hi=3) -> ExtElt:
    """A generator of L: either a unit 1 + (monomial) * alpha^i or a random
    small-support element with a visible alpha part."""
    p = ext.p
    if rng.randrange(2) == 0:
        i = rng.randrange(1, p)
        exp = random_group_elt(ext.base.group, rng, 0, hi)
        coeff = _random_nonzero_residue(ext.base, rng)
        coeffs = [ext.base.one() if j == 0 else ext.base.zero() for j in range(p)]
        coeffs[i] = ext.base.monomial(coeff, exp)
        return ext.from_coeffs(coeffs)
    while True:
        if ext.base.group.rank > 1:
            # rank >= 2: keep the alpha coefficients monomial so the base
            # inversions inside gamma stay exact (multi-term tails can have
            # an inverse with infinite support below the primary bound)
            coeffs = [random_series(ext.base, rng, lo, hi, max_terms=2)]
            for _ in range(1, p):
                if rng.randrange(2):
                    coeffs.append(ext.base.monomial(
                        _random_nonzero_residue(ext.base, rng),
                        random_group_elt(ext.base.group, rng, lo, hi)))
                else:
                    coeffs.append(ext.base.zero())
            b = ext.from_coeffs(coeffs)
        else:
            b = random_ext_elt(ext, rng, lo, hi, generator=True)
        if any(c.has_terms() for c in b.coeffs[1:]):
            return b


def _random_nonzero_residue(base, rng):
    while True:
        c = random_residue(base.residue, rng)
        if not c.is_zero():
            return c


def sample_unit_generator(ext: ASExtension, rng, hi: int = 3) -> ExtElt:
    """A unit of the upstairs valuation ring outside the base field: 1 plus
    terms of strictly positive v_L with a visible alpha component.  This is
    the family the displacement inequality is stated for."""
    p = ext.p
    base = ext.base
    v_alpha = ext.f.valuation().divide(p)
    drop = max(0, *[-c for c in v_alpha.parts])
    coeffs = [base.one()]
    forced = rng.randrange(1, p)
    for i in range(1, p):
        if i != forced and rng.randrange(2):
            coeffs.append(base.zero())
            continue
        # integer floor above i * |v_L(alpha)| keeps exp + i*v_L(alpha) > 0
        lift = _coerce_bound(base.group, int(i * drop) + 1)
        exp = lift + random_group_elt(base.group, rng, 0, hi)
        coeffs.append(base.monomial(_random_nonzero_residue(base, rng), exp))
    if rng.randrange(2):
        extra = random_group_elt(base.group, rng, 1, hi)
        coeffs[0] = coeffs[0] + base.monomial(
            _random_nonzero_residue(base, rng), extra)
    return ext.from_coeffs(coeffs)


def trace_lemma_suite(ext: ASExtension, rng, count: int) -> list[TraceLemmaReport]:
    return [verify_trace_lemma(sample_generator(ext, rng)) for _ in range(count)]


def s_inequality_suite(ext: ASExtension, rng, count: int) -> list[LefschetzSample]:
    """Alternate draws between guaranteed units and general generators, so
    both element families of the inequality's statement get exercised."""
    reports = []
    for k in range(count):
        b = (sample_unit_generator(ext, rng) if k % 2 == 0
             else sample_generator(ext, rng))
        reports.append(verify_s_inequality(b))
    return reports
