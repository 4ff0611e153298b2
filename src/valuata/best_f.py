"""Classification and normalization of Artin-Schreier generators.

A defining element f of the equation alpha**p - alpha = f is "best" when no
substitution f -> i*(f + h**p - h) can raise its valuation.  Best elements
come in exactly three shapes, each certifying the ramification behaviour of
the extension:

* best-i: v(f) < 0 and v(f) is not divisible by p inside the value group.
  Totally wild: the value group index e is p.
* best-ii: v(f) < 0, v(f) = -p*b for b in the group, and the unit
  u = f * X**(p*b) has a residue that is not a p-th power.  Ferocious: the
  residue field grows by an inseparable degree p.
* best-iii: v(f) = 0 and the residue of f is not of the form x**p - x.
  The residue field grows by a separable degree p (unramified case).

When none of the three certificates holds the element is improvable and the
classifier returns the explicit improvement witness h.  Iterating
improvements either reaches a best element, proves the equation splits, or
keeps strictly raising the valuation toward 0 forever; a budget turns the
last behaviour into reportable defect evidence.  Over a discretely valued
base the loop always terminates, so unbounded trajectories only occur in
p-divisible value groups, which is where defect lives.

The Swan conductor of a best element is -v(f), checked here against the
independent route through norms: v(N(1/alpha)) computed in the extension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .as_extension import ASExtension
from .errors import InsufficientPrecisionError, MismatchError, NoImprovementError, UsageError
from .hahn_series import SeriesElt, artin_schreier_shift
from .value_group import GroupElt


class Verdict(enum.Enum):
    BEST_I = "best-i"
    BEST_II = "best-ii"
    BEST_III = "best-iii"
    NOT_BEST = "not-best"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class ASClassification:
    """Verdict plus the witness that makes it checkable.

    Exactly the fields relevant to the verdict are set: valuation for every
    non-trivial verdict, unit and unit_residue for best-ii, residue for
    best-iii, improvement_h for not-best, preimage or the positive valuation
    note for trivial (the valuation is unset when f is exactly zero or zero
    to a positive precision bound).
    """

    verdict: Verdict
    valuation: GroupElt | None = None
    unit: SeriesElt | None = None
    unit_residue: object = None
    residue: object = None
    improvement_h: SeriesElt | None = None
    preimage: object = None
    note: str | None = None

    @property
    def is_best(self) -> bool:
        return self.verdict in (Verdict.BEST_I, Verdict.BEST_II, Verdict.BEST_III)

    @property
    def is_trivial(self) -> bool:
        return self.verdict is Verdict.TRIVIAL


class OutcomeKind(enum.Enum):
    BEST_FOUND = "best-found"
    DEFECT_EVIDENCE = "defect-evidence"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class NormalizeOutcome:
    """Result of either engine's normalization: f_star is the final
    SeriesElt or CycloElt (None when trivial), p the degree."""

    kind: OutcomeKind
    p: int
    f_star: object
    classification: object
    steps: int
    budget: int
    trajectory: tuple


@dataclass(frozen=True)
class InvariantsReport:
    """Ramification data of the degree-p extension: index e, residue degree
    f_res, defect d, with p = d * e * f_res."""

    e: int
    f_res: int
    d: int
    type: str
    swan: GroupElt | None

    def product(self) -> int:
        return self.e * self.f_res * self.d


def classify(f: SeriesElt) -> ASClassification:
    """Decide which certificate f carries, or produce an improvement.

    The decision tree follows the three best shapes.  A positive valuation,
    an exactly zero f or an f that is zero to a positive bound is already
    trivial.  At valuation zero the residue decides: no Artin-Schreier
    preimage means best-iii, otherwise the lift
    of the preimage improves f (and iterating leads to trivial).  At
    negative valuation indivisibility of v(f) by p means best-i; otherwise
    f factors through the canonical monomial g = X**(-v(f)/p) as a unit u
    times g**(-p), and the residue of u decides between best-ii and the
    improvement h = -lift(root) * g**(-1), which kills the leading term.

    Sign, p-divisibility, the root and the witness h are read off the
    packed leading term (SeriesElt.lead_sign and lead_root), so a chain
    step builds one GroupElt, the recorded valuation, straight from its
    packed numerator and denominator, and no Fraction or GFElt; the
    valuation-zero branch and the unit of a best-ii verdict use the
    boundary types.
    """
    field = f.field
    k = field.residue
    if f.is_exact_zero():
        return ASClassification(Verdict.TRIVIAL, note="f is exactly zero")
    if not f.has_terms():
        # v(f) >= bound is all that is known; a positive bound settles it
        if f.precision > field.group.zero():
            return ASClassification(
                Verdict.TRIVIAL,
                note=f"f is zero to precision {f.precision} > 0")
        raise InsufficientPrecisionError(
            "cannot classify: f is zero to working precision")
    sign = f.lead_sign()
    v = f.valuation()
    if sign > 0:
        return ASClassification(Verdict.TRIVIAL, valuation=v,
                                note="positive valuation")
    if sign == 0:
        fbar = f.residue_class()
        x = k.artin_schreier_preimage(fbar)
        if x is None:
            return ASClassification(Verdict.BEST_III, valuation=v, residue=fbar)
        h = field.from_residue(-x)
        return ASClassification(Verdict.NOT_BEST, valuation=v, improvement_h=h,
                                preimage=x)
    divides, root = f.lead_root()
    if not divides:
        return ASClassification(Verdict.BEST_I, valuation=v)
    if root is None:
        u = f.shift(-v)
        return ASClassification(Verdict.BEST_II, valuation=v, unit=u,
                                unit_residue=u.residue_class())
    return ASClassification(Verdict.NOT_BEST, valuation=v, improvement_h=-root)


def improve(f: SeriesElt, h: SeriesElt) -> SeriesElt:
    """Apply f -> f + h**p - h and insist the valuation strictly rises."""
    if not f.has_terms():
        # raises for a zero to precision; an exact zero has valuation
        # INFINITY, which nothing rises above
        f.valuation()
    out = artin_schreier_shift(f, h)
    if out.is_exact_zero():
        return out
    # certified by the leading exponent of out, or by its bound when
    # nothing is visible below it
    if f.has_terms() and out.rises_above(f):
        return out
    new = out.valuation()
    raise NoImprovementError(
        f"improvement left the valuation at {new} (was {f.valuation()})")


def normalize_loop(x, budget: int, classify_step, improve_step,
                   level) -> NormalizeOutcome:
    """The classify/improve loop of both engines.

    classify_step(x) returns the classification and the element it was
    decided on, which replaces x (Kummer strips a p-th power monomial);
    improve_step(x, c) applies the witness of c; level(x) is the trajectory
    entry of x, or None when the data hide it.
    """
    if budget < 0:
        raise UsageError("budget must be nonnegative")
    p = x.field.p
    trajectory = []
    steps = 0
    while True:
        c, x = classify_step(x)
        if c.is_trivial:
            return NormalizeOutcome(OutcomeKind.TRIVIAL, p, None, c, steps,
                                    budget, tuple(trajectory))
        trajectory = trajectory or [level(x)]
        if c.is_best or steps == budget:
            kind = OutcomeKind.BEST_FOUND if c.is_best else OutcomeKind.DEFECT_EVIDENCE
            return NormalizeOutcome(kind, p, x, c, steps, budget, tuple(trajectory))
        x = improve_step(x, c)
        steps += 1
        value = level(x)
        if value is not None:
            trajectory.append(value)


def normalize(f: SeriesElt, budget: int = 32) -> NormalizeOutcome:
    """Iterate classify/improve until best, trivial, or the budget is spent.

    The trajectory records the valuation of every iterate, so a spent budget
    returns the strictly increasing, bounded evidence sequence that signals
    defect instead of silently looping.
    """
    return normalize_loop(f, budget, lambda x: (classify(x), x),
                          lambda x, c: improve(x, c.improvement_h), _level)


def _level(f: SeriesElt):
    try:
        return None if f.is_exact_zero() else f.valuation()
    except InsufficientPrecisionError:
        return None


def invariants(outcome: NormalizeOutcome) -> InvariantsReport:
    """Ramification invariants certified by a finished normalization; the
    trivial and defect cases serve Kummer outcomes too."""
    if outcome.kind is OutcomeKind.TRIVIAL:
        return InvariantsReport(1, 1, 1, "trivial", None)
    p = outcome.p
    if outcome.kind is OutcomeKind.DEFECT_EVIDENCE:
        return InvariantsReport(1, 1, p, "defect", None)
    c = outcome.classification
    swan = -c.valuation
    if c.verdict is Verdict.BEST_I:
        return InvariantsReport(p, 1, 1, "wild", swan)
    if c.verdict is Verdict.BEST_II:
        return InvariantsReport(1, p, 1, "ferocious", swan)
    return InvariantsReport(1, p, 1, "unramified", swan)


def classical_swan(f_star: SeriesElt, ext: ASExtension | None = None) -> GroupElt:
    """Swan conductor of a best element, computed two ways.

    The direct value is -v(f_star).  The cross-check builds the extension,
    inverts the generator there, and reads v(N(1/alpha)); the two must agree
    exactly, and a disagreement raises rather than returning either value.
    """
    direct = -f_star.valuation()
    ext = ext or ASExtension(f_star.field, f_star)
    ext.require_nontrivial()
    alpha = ext.alpha()
    via_norm = alpha.invert().norm().valuation()
    if via_norm != direct:
        raise MismatchError(
            f"swan via norms {via_norm} disagrees with -v(f) = {direct}")
    return direct
