"""Truncated series with exact exponents and per-element precision.

An element is a finite strictly sorted list of (exponent, coefficient) pairs
with exponents in the field's value group and coefficients in its residue
field, together with either the exact flag or a precision bound: the element
is known below the bound and unknown from the bound upward.  Arithmetic
propagates the bound honestly.  Stored coefficients are always true
coefficients; truncation can only remove knowledge, never corrupt it, so a
quantity that is mathematically zero can never show a visible term.

The distinction between an exact zero and a zero to precision is kept
explicit: the first has valuation INFINITY, the second raises
ZeroToPrecisionError because its valuation is simply not known.

Value-group membership is checked where a value enters from outside the
layer: SeriesField.make (and monomial, from_residue, zero_to on top of it)
checks every exponent and the bound, shift and truncate check their one
argument, and pth_root asks is_p_divisible of every exponent.  The closed
operations build their results without asking again, because a group is
closed under what they do to exponents: sums and differences of members
(+, -, *, shift), integer multiples (frobenius) and prefixes of a sorted
list (truncate).  They keep the other invariants by construction as well:
+ and - merge two sorted lists, * sorts its accumulated products once,
shift, frobenius and scaling by a nonzero residue map the terms in order
and keep every coefficient nonzero, and every result is cut at its bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import InsufficientPrecisionError, UsageError, ZeroToPrecisionError
from .value_group import INFINITY, GroupElt, ValueGroup


@dataclass(frozen=True)
class SeriesField:
    """Equal-characteristic valued field: residue field, value group, and the
    default precision used when an operation must truncate."""

    residue: object
    group: ValueGroup
    default_precision: GroupElt

    def __post_init__(self):
        if self.residue.p != self.group.p:
            raise UsageError("value-group prime and residue characteristic differ")
        if not self.default_precision > self.group.zero():
            raise UsageError("default precision must be strictly positive")
        self.group.check_member(self.default_precision)

    @property
    def p(self) -> int:
        return self.residue.p

    def make(self, terms, precision) -> "SeriesElt":
        """Validating constructor: check every exponent and the bound, then
        merge, sort, drop zeros and invisible terms."""
        merged = {}
        for exp, coeff in terms:
            self.group.check_member(exp)
            if exp in merged:
                merged[exp] = merged[exp] + coeff
            else:
                merged[exp] = coeff
        if precision is not None:
            self.group.check_member(precision)
        return self._from_distinct(merged.items(), precision)

    def _from_distinct(self, pairs, precision) -> "SeriesElt":
        """Internal builder for (exponent, coefficient) pairs whose exponents
        are distinct members of the group, in any order: sort once, drop
        zero coefficients and the terms at or beyond the bound."""
        if precision is None:
            kept = [t for t in pairs if t[1]]
        else:
            bound = precision.parts
            kept = [t for t in pairs if t[1] and t[0].parts < bound]
        kept.sort(key=_exp_key)
        return SeriesElt(self, tuple(kept), precision)

    def zero(self) -> "SeriesElt":
        return SeriesElt(self, (), None)

    def zero_to(self, precision: GroupElt) -> "SeriesElt":
        return self.make((), precision)

    def one(self) -> "SeriesElt":
        return self.from_int(1)

    def from_int(self, n: int) -> "SeriesElt":
        return self.from_residue(self.residue.from_int(n))

    def from_residue(self, c) -> "SeriesElt":
        """Monomial at exponent zero: the canonical lift of a residue."""
        return self.make([(self.group.zero(), c)], None)

    def monomial(self, coeff, exp: GroupElt, precision: GroupElt | None = None) -> "SeriesElt":
        return self.make([(exp, coeff)], precision)


@dataclass(frozen=True)
class SeriesElt:
    """See the module docstring; build through SeriesField.make, which
    checks its input, while the arithmetic below builds its results
    directly."""

    field: SeriesField
    terms: tuple
    precision: GroupElt | None

    # -- basic queries -----------------------------------------------------

    def is_exact(self) -> bool:
        return self.precision is None

    def is_exact_zero(self) -> bool:
        return not self.terms and self.precision is None

    def has_terms(self) -> bool:
        return bool(self.terms)

    def valuation(self):
        """Least exponent; INFINITY for an exact zero.

        Raises ZeroToPrecisionError when no term is visible but the element
        is only known up to its precision bound.
        """
        if self.terms:
            return self.terms[0][0]
        if self.precision is None:
            return INFINITY
        raise ZeroToPrecisionError(bound=self.precision)

    def val_lower_bound(self) -> GroupElt:
        """A certified lower bound for the valuation; requires a finite answer."""
        if self.terms:
            return self.terms[0][0]
        if self.precision is not None:
            return self.precision
        raise UsageError("exact zero has no finite valuation bound")

    def leading_coeff(self):
        if not self.terms:
            raise ZeroToPrecisionError(bound=self.precision)
        return self.terms[0][1]

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, SeriesElt):
            raise TypeError(f"cannot combine SeriesElt with {type(other).__name__}")
        if other.field != self.field:
            raise UsageError("elements of different series fields")

    def __add__(self, other):
        self._check(other)
        if self.precision is None:
            prec = other.precision
        elif other.precision is None:
            prec = self.precision
        else:
            prec = min(self.precision, other.precision)
        # a linear merge of the two sorted term lists, each cut at the bound
        a = _below(self.terms, prec)
        b = _below(other.terms, prec)
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ka = a[i][0].parts
            kb = b[j][0].parts
            if ka < kb:
                out.append(a[i])
                i += 1
            elif kb < ka:
                out.append(b[j])
                j += 1
            else:
                c = a[i][1] + b[j][1]
                if c:
                    out.append((a[i][0], c))
                i += 1
                j += 1
        out += a[i:]
        out += b[j:]
        return SeriesElt(self.field, tuple(out), prec)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SeriesElt(self.field, tuple([(e, -c) for e, c in self.terms]), self.precision)

    def __mul__(self, other):
        self._check(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return self.field.zero()
        cands = []
        if self.precision is not None:
            cands.append(self.precision + other.val_lower_bound())
        if other.precision is not None:
            cands.append(other.precision + self.val_lower_bound())
        prec = min(cands) if cands else None
        out = {}
        for e1, c1 in self.terms:
            # terms are sorted and the order respects addition, so the
            # products for this e1 only grow: the first one past the bound
            # ends the row
            for e2, c2 in other.terms:
                e = e1 + e2
                if prec is not None and not e < prec:
                    break
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return self.field._from_distinct(out.items(), prec)

    def scale_residue(self, c) -> "SeriesElt":
        """Multiply by a residue constant; precision is unchanged."""
        if not c:
            return SeriesElt(self.field, (), self.precision)
        return SeriesElt(self.field, tuple([(e, coeff * c) for e, coeff in self.terms]),
                         self.precision)

    def scale_int(self, n: int) -> "SeriesElt":
        return self.scale_residue(self.field.residue.from_int(n))

    def shift(self, exp: GroupElt) -> "SeriesElt":
        """Multiply by the monomial X^exp; exact on terms and bound alike."""
        self.field.group.check_member(exp)
        prec = None if self.precision is None else self.precision + exp
        return SeriesElt(self.field, tuple([(e + exp, c) for e, c in self.terms]), prec)

    def truncate(self, precision: GroupElt) -> "SeriesElt":
        self.field.group.check_member(precision)
        prec = precision if self.precision is None else min(precision, self.precision)
        return SeriesElt(self.field, _below(self.terms, prec), prec)

    # -- the operations the theory needs ------------------------------------

    def residue_class(self):
        """Image in the residue field; defined when the valuation is >= 0."""
        if self.terms and self.terms[0][0] < self.field.group.zero():
            raise UsageError("negative valuation has no residue")
        zero = self.field.group.zero()
        for e, c in self.terms:
            if e == zero:
                return c
        if self.precision is not None and not zero < self.precision:
            raise InsufficientPrecisionError(
                "precision bound is not positive; the residue is hidden")
        return self.field.residue.zero()

    def frobenius(self) -> "SeriesElt":
        """The p-th power.  Additive in characteristic p, so exact on terms,
        and an O(pi) error tail maps to O(pi * p)."""
        p = self.field.p
        k = self.field.residue
        prec = None if self.precision is None else self.precision.scale(p)
        return SeriesElt(self.field,
                         tuple([(e.scale(p), k.frobenius(c)) for e, c in self.terms]),
                         prec)

    def pth_root(self) -> "SeriesElt":
        """Inverse of frobenius where it exists; exponents and the bound
        divide by p, coefficients take residue-field roots."""
        group = self.field.group
        k = self.field.residue
        p = self.field.p
        out = []
        for e, c in self.terms:
            half = group.is_p_divisible(e)
            if half is None:
                raise UsageError(f"exponent {e} is not divisible by p in the group")
            root = k.pth_root(c)
            if root is None:
                raise UsageError("coefficient is not a p-th power in the residue field")
            out.append((half, root))
        prec = None
        if self.precision is not None:
            prec = self.precision.divide(p)
            if not group.contains(prec):
                raise UsageError("precision bound does not divide by p in the group")
        # dividing by p keeps the order, and a root of a nonzero coefficient
        # is nonzero
        return SeriesElt(self.field, tuple(out), prec)

    def invert(self, target: GroupElt | None = None) -> "SeriesElt":
        """Multiplicative inverse, truncated so that self * result is
        1 + O(min(target, available)); target defaults to the field default.

        Works on the unit part through the geometric series.  A monomial
        inverts exactly.
        """
        v = self.valuation()
        if v is INFINITY:
            raise ZeroDivisionError("inverse of exact zero")
        field = self.field
        if target is None:
            target = field.default_precision
        lead = self.terms[0][1]
        lead_inv = field.residue.inv(lead)
        # unit = 1 + tail with v(tail) > 0
        unit = self.shift(-v).scale_residue(lead_inv)
        tail = unit - field.one()
        if tail.is_exact_zero():
            return field.monomial(lead_inv, -v,
                                  None if self.precision is None
                                  else self.precision - v - v)
        for e, _ in tail.terms:
            # a positive exponent with leading coordinate 0 is infinitesimal
            # against the primary bound: the geometric series then has
            # infinitely many terms below any usable truncation level
            if e.parts[0] == 0:
                raise InsufficientPrecisionError(
                    "inverse support is infinite below the precision bound")
        rel = target
        if self.precision is not None:
            rel = min(rel, self.precision - v)
        acc = field.one().truncate(rel)
        power = acc
        minus_tail = -tail
        while power.has_terms():
            power = (power * minus_tail).truncate(rel)
            acc = acc + power
        return acc.shift(-v).scale_residue(lead_inv)

    # -- conveniences --------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"SeriesElt({self})"


def _exp_key(term):
    return term[0].parts


def _below(terms: tuple, bound: GroupElt | None) -> tuple:
    """The prefix of sorted terms whose exponents lie below the bound."""
    if bound is None:
        return terms
    return terms[:bisect_left(terms, bound.parts, key=_exp_key)]


def artin_schreier_shift(f: SeriesElt, h: SeriesElt) -> SeriesElt:
    """Replace the generator equation's right side f by f + h**p - h."""
    return f + h.frobenius() - h


def agrees_to_precision(a: SeriesElt, b: SeriesElt) -> bool:
    """True when a - b has no visible term (equal as far as either is known)."""
    return not (a - b).has_terms()


def format_series(a: SeriesElt) -> str:
    """Round-trippable text: coefficient * X^(exponent) terms plus the bound."""
    parts = []
    for e, c in a.terms:
        cs = a.field.residue.format_elt(c) if hasattr(a.field.residue, "format_elt") \
            else str(c)
        if e.is_zero():
            parts.append(cs if _atomic(cs) else f"({cs})")
            continue
        mono = f"X^({e})"
        if cs == "1":
            parts.append(mono)
        elif _atomic(cs):
            parts.append(f"{cs}*{mono}")
        else:
            parts.append(f"({cs})*{mono}")
    if a.precision is not None:
        parts.append(f"O(X^({a.precision}))")
    if not parts:
        return "0"
    return " + ".join(parts)


def _atomic(s: str) -> bool:
    return " " not in s and "+" not in s and "/" not in s
