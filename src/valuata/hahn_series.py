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

Packed layout.  Inside this module an element stores its exponents as
Python ints over one denominator per element: the packed exponent n stands
for n/den, and the bound is packed the same way.  den is the least common
denominator of the exponents and the bound: always 1 over the integers, a
power of p over Z[1/p], an lcm over the rationals.  lex2 keeps one
denominator per coordinate and stores pairs of ints, which Python tuples
compare lexicographically: GroupElt's own layout (value_group), spread
over a common denominator.  Since den is least, equal values have equal
layouts, so equality and hashing compare the stored fields.  Coefficients
are stored as the residue field stores its elements, integer codes over
GF(q) and RatFuncElt objects over GF(q)(y), and every coefficient operation
goes through the field's one ``Ring`` record (``SeriesField.ring``, the
residue field's ``ring``).  The layer reads nothing else of the residue
field.  Where ``ring.prime`` is set, coefficients are GF(p) codes and a
product accumulates unreduced int sums and reduces them once.
Two operands with different denominators are first carried to the lcm.

GroupElt and GFElt are the boundary types.  A GroupElt enters by its num
and den (make, shift, truncate, invert) and leaves through GroupElt.packed
(valuation, the ``terms`` and ``precision`` views); a GFElt is packed and
unpacked there too.  No arithmetic inside the layer builds either, or a
rational.  The views are rebuilt on every access.

Leading-term queries.  lead_sign, lead_root and rises_above answer what one
step of best_f.classify and improve asks, on the packed leading exponent
and coefficient: the sign of the valuation; whether it divides by p in the
group, with the monomial p-th root of the leading term; and whether one
valuation (or a bound) clears another, the denominators cross-multiplied.
They build no GroupElt or GFElt and ask the group no membership question.
lead_run applies a whole chain of not-best steps at negative valuation on
lists of packed exponents and codes: each step drops the leading term
c*X^v and merges r*X^(v/p), r**p = c, so it builds no series until the
chain stops, and only the valuation of each iterate as a GroupElt.  Along
the chain the denominator is only multiplied by p, which divide_by_p
allows for any denominator, and _canonical restores the least one once.

Value-group membership is checked where a value enters from outside the
layer: make checks every exponent and the bound, and shift and truncate
check their one argument.  The closed operations build their results
without asking again, because a group is closed under what they do to
exponents: sums and differences of members (+, -, *, shift), integer
multiples (frobenius) and prefixes of a sorted list (truncate).  They keep
the other invariants by construction as well: + and - merge two sorted
lists, * sorts its accumulated products once, shift, frobenius and scaling
by a nonzero residue map the terms in order and keep every coefficient
nonzero, and every result is cut at its bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import (InsufficientPrecisionError, NoImprovementError, UsageError,
                     ZeroToPrecisionError)
from .residue_field import Ring
from .value_group import (INFINITY, GroupElt, GroupKind, ValueGroup, _plus, _times,
                          _to_common, divide_by_p)

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

    @cached_property
    def ring(self) -> Ring:
        """The residue field's coefficient arithmetic (see Ring)."""
        return self.residue.ring

    @cached_property
    def _unit(self):
        """The denominator of an element with integer exponents."""
        return (1, 1) if self.group.rank == 2 else 1

    @cached_property
    def _zero(self) -> "SeriesElt":
        return SeriesElt(self, (), (), self._unit, None)

    def _constant(self, c) -> "SeriesElt":
        """The monomial c * X^0 for a nonzero packed coefficient c."""
        unit = self._unit
        return SeriesElt(self, (0 if unit == 1 else (0, 0),), (c,), unit, None)

    def make(self, terms, precision) -> "SeriesElt":
        """Validating constructor: check every exponent and the bound, then
        pack, merge, sort, drop zeros and invisible terms."""
        check = self.group.check_member
        pack = self.ring.pack
        values, coeffs = [], []
        for exp, coeff in terms:
            values.append(check(exp))
            coeffs.append(pack(coeff))
        if precision is not None:
            values.append(check(precision))
        den = self._unit
        for g in values:
            den = _to_common(den, g.den)[0]
        nums = [_times(g.num, _to_common(g.den, den)[1]) for g in values]
        bound = nums.pop() if precision is not None else None
        add = self.ring.add
        merged = {}
        for e, c in zip(nums, coeffs):
            merged[e] = add(merged[e], c) if e in merged else c
        exps = sorted([e for e, c in merged.items()
                       if c and (bound is None or e < bound)])
        return _canonical(self, exps, [merged[e] for e in exps], den, bound)

    def zero(self) -> "SeriesElt":
        return self._zero

    def one(self) -> "SeriesElt":
        return self._constant(self.ring.one)

    def from_int(self, n: int) -> "SeriesElt":
        c = self.ring.from_int(n)
        return self._constant(c) if c else self._zero

    def from_residue(self, c) -> "SeriesElt":
        """Monomial at exponent zero: the canonical lift of a residue."""
        return self.make([(self.group.zero(), c)], None)

    def monomial(self, coeff, exp: GroupElt, precision: GroupElt | None = None) -> "SeriesElt":
        return self.make([(exp, coeff)], precision)


class SeriesElt:
    """See the module docstring.  Build through SeriesField.make and the
    constructors on top of it, which check their input; the arithmetic below
    builds its results directly.  Instances are never mutated."""

    __slots__ = ("field", "_exps", "_coeffs", "_den", "_bound")

    def __init__(self, field: SeriesField, exps: tuple, coeffs: tuple, den, bound):
        self.field = field
        self._exps = exps
        self._coeffs = coeffs
        self._den = den
        self._bound = bound

    def __eq__(self, other):
        if not isinstance(other, SeriesElt):
            return NotImplemented
        return (self._exps == other._exps and self._coeffs == other._coeffs
                and self._den == other._den and self._bound == other._bound
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self._exps, self._coeffs, self._den, self._bound))

    # -- the boundary views -----------------------------------------------------

    @property
    def terms(self) -> tuple:
        """(GroupElt, coefficient) pairs in increasing exponent order."""
        den, value = self._den, GroupElt.packed
        unpack = self.field.ring.unpack
        return tuple([(value(e, den), unpack(c)) for e, c in zip(self._exps, self._coeffs)])

    @property
    def precision(self) -> GroupElt | None:
        return None if self._bound is None else GroupElt.packed(self._bound, self._den)

    # -- basic queries -----------------------------------------------------

    def is_exact_zero(self) -> bool:
        return not self._exps and self._bound is None

    def has_terms(self) -> bool:
        return bool(self._exps)

    def valuation(self):
        """Least exponent; INFINITY for an exact zero.

        Raises ZeroToPrecisionError when no term is visible but the element
        is only known up to its precision bound.
        """
        if self._exps:
            return GroupElt.packed(self._exps[0], self._den)
        if self._bound is None:
            return INFINITY
        raise ZeroToPrecisionError(bound=self.precision)

    # -- leading-term queries of the normalize step (no boundary type built) ---

    def lead_sign(self) -> int:
        """-1, 0 or 1 as the valuation is negative, zero or positive; needs a
        visible term."""
        e = self._exps[0]
        zero = 0 if type(e) is int else (0, 0)
        return (e > zero) - (e < zero)

    def lead_root(self):
        """(divides, root) for the leading term c*X^v: divides says whether
        v/p lies in the group (divide_by_p; only the integer group refuses),
        root is the monomial r*X^(v/p) with r**p = c, or None when v/p leaves
        the group or c has no p-th root.  Needs a visible term."""
        field = self.field
        half = divide_by_p(self._exps[0], self._den, field.p,
                           field.group.kind is GroupKind.INT)
        if half is None:
            return False, None
        r = field.ring.root(self._coeffs[0])
        if r is None:
            return True, None
        return True, _canonical(field, (half[0],), (r,), half[1], None)

    def rises_above(self, other: "SeriesElt") -> bool:
        """Whether the least visible exponent of self, or its bound when none
        is visible, lies strictly above the valuation of other.  self must
        not be an exact zero and other needs a visible term."""
        x = self._exps[0] if self._exps else self._bound
        return _times(x, other._den) > _times(other._exps[0], self._den)

    def lead_run(self, limit: int):
        """Up to limit not-best steps at negative valuation, on the packed
        lists: while the leading term c*X^v has v < 0, v/p in the group and
        a root r**p = c, replace it by r*X^(v/p), which is f + h**p - h for
        h = -r*X^(v/p).  The new term is dropped at the bound and merged
        with a term already at v/p.  Returns (element, steps, levels), with
        the valuation of each iterate as a GroupElt, or None when no term
        is visible.  As in best_f.improve, a step that does not raise the
        leading exponent (or the bound, when nothing is visible) raises
        NoImprovementError."""
        field = self.field
        p = field.p
        root, add = field.ring.root, field.ring.add
        integers = field.group.kind is GroupKind.INT
        exps, coeffs = list(self._exps), list(self._coeffs)
        den, bound = self._den, self._bound
        zero = 0 if type(den) is int else (0, 0)
        levels = []
        while len(levels) < limit and exps and exps[0] < zero:
            half = divide_by_p(exps[0], den, p, integers)
            if half is None:
                break
            r = root(coeffs[0])
            if r is None:
                break
            n, d = half
            if d != den:
                # only ever a factor p more, per coordinate for pairs;
                # _canonical restores the least denominator at the end
                k = p if type(d) is int else (d[0] // den[0], d[1] // den[1])
                exps = [_times(e, k) for e in exps]
                bound = None if bound is None else _times(bound, k)
                den = d
            v = exps[0]
            del exps[0], coeffs[0]
            if bound is None or n < bound:
                i = bisect_left(exps, n)
                if i < len(exps) and exps[i] == n:
                    c = add(coeffs[i], r)
                    if c:
                        coeffs[i] = c
                    else:
                        del exps[i], coeffs[i]
                else:
                    exps.insert(i, n)
                    coeffs.insert(i, r)
            new = exps[0] if exps else bound
            if new is not None and not new > v:
                out = _canonical(field, exps, coeffs, den, bound)
                # valuation() raises when nothing is visible, as in improve
                raise NoImprovementError(f"improvement left the valuation at "
                                         f"{out.valuation()} (was {GroupElt.packed(v, den)})")
            levels.append(GroupElt.packed(exps[0], den) if exps else None)
        return _canonical(field, exps, coeffs, den, bound), len(levels), levels

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, SeriesElt):
            raise TypeError(f"cannot combine SeriesElt with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise UsageError("elements of different series fields")

    def __add__(self, other):
        self._check(other)
        if not other._exps and other._bound is None:
            return self
        if not self._exps and self._bound is None:
            return other
        den, ae, ab, be, bb = _common(self, other)
        ac, bc = self._coeffs, other._coeffs
        bound = ab if bb is None else bb if ab is None else min(ab, bb)
        if bound is not None:
            # each operand cut at the bound
            i = bisect_left(ae, bound)
            j = bisect_left(be, bound)
            ae, ac, be, bc = ae[:i], ac[:i], be[:j], bc[:j]
        add = self.field.ring.add
        exps, coeffs = [], []
        i = j = 0
        na, nb = len(ae), len(be)
        while i < na and j < nb:
            x = ae[i]
            y = be[j]
            if x < y:
                exps.append(x)
                coeffs.append(ac[i])
                i += 1
            elif y < x:
                exps.append(y)
                coeffs.append(bc[j])
                j += 1
            else:
                c = add(ac[i], bc[j])
                if c:
                    exps.append(x)
                    coeffs.append(c)
                i += 1
                j += 1
        exps += ae[i:]
        coeffs += ac[i:]
        exps += be[j:]
        coeffs += bc[j:]
        return _canonical(self.field, exps, coeffs, den, bound)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field.ring.neg
        coeffs = tuple([neg(c) for c in self._coeffs])
        return SeriesElt(self.field, self._exps, coeffs, self._den, self._bound)

    def __mul__(self, other):
        self._check(other)
        field = self.field
        if (not self._exps and self._bound is None
                or not other._exps and other._bound is None):
            return field._zero
        den, ae, ab, be, bb = _common(self, other)
        # the bound: each operand's bound plus the other's least exponent
        bound = None
        if ab is not None:
            bound = _plus(ab, be[0] if be else bb)
        if bb is not None:
            cand = _plus(bb, ae[0] if ae else ab)
            bound = cand if bound is None or cand < bound else bound
        if not ae or not be:
            exps, coeffs = (), ()
        elif type(den) is int:
            exps, coeffs = _products(ae, self._coeffs, be, other._coeffs, bound, field.ring)
        else:
            exps, coeffs = _pair_products(ae, self._coeffs, be, other._coeffs, bound,
                                          field.ring)
        return _canonical(field, exps, coeffs, den, bound)

    def _scaled(self, c) -> "SeriesElt":
        """Multiply by a packed residue constant; precision is unchanged."""
        field = self.field
        if not c:
            return _canonical(field, (), (), self._den, self._bound)
        mul = field.ring.mul
        coeffs = tuple([mul(x, c) for x in self._coeffs])
        return SeriesElt(field, self._exps, coeffs, self._den, self._bound)

    def scale_int(self, n: int) -> "SeriesElt":
        return self._scaled(self.field.ring.from_int(n))

    def shift(self, exp: GroupElt) -> "SeriesElt":
        """Multiply by the monomial X^exp; exact on terms and bound alike."""
        self.field.group.check_member(exp)
        return self._shifted(exp.num, exp.den)

    def _shifted(self, n, d) -> "SeriesElt":
        """Shift by the packed exponent n/d."""
        den, ks, kn = _to_common(self._den, d)
        exps, bound = _affine(self._exps, self._bound, ks, _times(n, kn))
        return _canonical(self.field, exps, self._coeffs, den, bound)

    def truncate(self, precision: GroupElt) -> "SeriesElt":
        self.field.group.check_member(precision)
        return self._cut(precision.num, precision.den)

    def _cut(self, n, d) -> "SeriesElt":
        """Truncate at the packed bound n/d (or at the own bound if lower)."""
        den, ks, kn = _to_common(self._den, d)
        exps, bound = _affine(self._exps, self._bound, ks)
        n = _times(n, kn)
        if bound is not None and bound < n:
            n = bound
        i = bisect_left(exps, n)
        return _canonical(self.field, exps[:i], self._coeffs[:i], den, n)

    # -- the operations the theory needs ------------------------------------

    def residue_class(self):
        """Image in the residue field; defined when the valuation is >= 0."""
        field = self.field
        zero = 0 if type(self._den) is int else (0, 0)
        exps = self._exps
        if exps and exps[0] < zero:
            raise UsageError("negative valuation has no residue")
        # with every exponent >= 0, a constant term comes first
        if exps and exps[0] == zero:
            return field.ring.unpack(self._coeffs[0])
        if self._bound is not None and not zero < self._bound:
            raise InsufficientPrecisionError(
                "precision bound is not positive; the residue is hidden")
        return field.residue.zero()

    def frobenius(self) -> "SeriesElt":
        """The p-th power.  Additive in characteristic p, so exact on terms,
        and an O(pi) error tail maps to O(pi * p)."""
        field = self.field
        p = field.p
        frob = field.ring.frob
        coeffs = tuple([frob(c) for c in self._coeffs])
        # p*n/den, carried to the least denominator
        k = p if type(self._den) is int else (p, p)
        exps, bound = _affine(self._exps, self._bound, k)
        return _canonical(field, exps, coeffs, self._den, bound)

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
        else:
            field.group.check_member(target)
        ring = field.ring
        den = self._den
        lead = self._exps[0]
        back = _times(lead, -1)
        lead_inv = ring.inv(self._coeffs[0])
        # unit = 1 + tail with v(tail) > 0
        unit = self._shifted(back, den)._scaled(lead_inv)
        tail = unit - field.one()
        if tail.is_exact_zero():
            bound = None if self._bound is None else _plus(self._bound, _times(lead, -2))
            return _canonical(field, (back,), (lead_inv,), den, bound)
        if type(den) is not int:
            for e in tail._exps:
                # a positive exponent with leading coordinate 0 is
                # infinitesimal against the primary bound: the geometric
                # series then has infinitely many terms below any usable
                # truncation level
                if e[0] == 0:
                    raise InsufficientPrecisionError(
                        "inverse support is infinite below the precision bound")
        rel = field.one()._cut(target.num, target.den)
        if self._bound is not None:
            rel = rel._cut(_plus(self._bound, back), den)
        rel_bound = rel._bound, rel._den
        acc = rel
        power = acc
        minus_tail = -tail
        while power.has_terms():
            power = (power * minus_tail)._cut(*rel_bound)
            acc = acc + power
        return acc._shifted(back, den)._scaled(lead_inv)

    # -- conveniences --------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"SeriesElt({self})"


# -- packed exponents: an int over an int denominator, or a pair over a pair ----


def _affine(exps, bound, k, n=None, q=1):
    """Every packed exponent e, and the bound, mapped to (e*k + n) // q,
    coordinatewise for pairs; q must divide every e*k + n."""
    if type(k) is int:
        n = n or 0
        if k == 1 and n == 0 and q == 1:
            return exps, bound
        return (tuple([(e * k + n) // q for e in exps]),
                None if bound is None else (bound * k + n) // q)
    (k0, k1), (n0, n1) = k, n or (0, 0)
    (q0, q1) = (q, q) if type(q) is int else q
    if k0 == k1 == q0 == q1 == 1 and n0 == n1 == 0:
        return exps, bound
    return (tuple([((a * k0 + n0) // q0, (b * k1 + n1) // q1) for a, b in exps]),
            None if bound is None
            else ((bound[0] * k0 + n0) // q0, (bound[1] * k1 + n1) // q1))


def _common(a: SeriesElt, b: SeriesElt):
    """Both operands' exponents and bounds over their common denominator."""
    da, db = a._den, b._den
    if da == db:
        return da, a._exps, a._bound, b._exps, b._bound
    d, ka, kb = _to_common(da, db)
    ae, ab = _affine(a._exps, a._bound, ka)
    be, bb = _affine(b._exps, b._bound, kb)
    return d, ae, ab, be, bb


def _canonical(field, exps, coeffs, den, bound) -> SeriesElt:
    """The element with the least denominator, from sorted exponents and
    nonzero coefficients over den."""
    if type(den) is int:
        if den != 1:
            g = gcd(den, *exps) if bound is None else gcd(den, bound, *exps)
            if g != 1:
                exps, bound = _affine(exps, bound, 1, 0, g)
                den //= g
    elif den != (1, 1):
        g0 = gcd(den[0], *[a for a, _ in exps])
        g1 = gcd(den[1], *[b for _, b in exps])
        if bound is not None:
            g0 = gcd(g0, bound[0])
            g1 = gcd(g1, bound[1])
        if g0 != 1 or g1 != 1:
            exps, bound = _affine(exps, bound, (1, 1), (0, 0), (g0, g1))
            den = (den[0] // g0, den[1] // g1)
    return SeriesElt(field, tuple(exps), tuple(coeffs), den, bound)


# -- the product kernel ----------------------------------------------------------


def _products(ae, ac, be, bc, bound, ring):
    """Sorted exponents and nonzero coefficients of the product of two
    nonempty packed term lists with int exponents, cut at the bound."""
    # terms are sorted and the order respects addition, so the products of
    # one row only grow: the first one past the cut ends the row
    cut = ae[-1] + be[-1] + 1 if bound is None else bound
    out = {}
    p = ring.prime
    if p:
        get = out.get
        for e1, c1 in zip(ae, ac):
            for e2, c2 in zip(be, bc):
                e = e1 + e2
                if e >= cut:
                    break
                out[e] = get(e, 0) + c1 * c2
        exps = sorted([e for e, c in out.items() if c % p])
        return exps, [out[e] % p for e in exps]
    add, mul = ring.add, ring.mul
    for e1, c1 in zip(ae, ac):
        for e2, c2 in zip(be, bc):
            e = e1 + e2
            if e >= cut:
                break
            c = mul(c1, c2)
            out[e] = add(out[e], c) if e in out else c
    exps = sorted([e for e, c in out.items() if c])
    return exps, [out[e] for e in exps]


def _pair_products(ae, ac, be, bc, bound, ring):
    """_products for pair exponents, which tuples compare lexicographically."""
    # every sum has a first coordinate at most the sum of the last ones
    cut = (ae[-1][0] + be[-1][0] + 1, 0) if bound is None else bound
    out = {}
    add, mul = ring.add, ring.mul
    for (x1, y1), c1 in zip(ae, ac):
        for (x2, y2), c2 in zip(be, bc):
            e = (x1 + x2, y1 + y2)
            if e >= cut:
                break
            c = mul(c1, c2)
            out[e] = add(out[e], c) if e in out else c
    exps = sorted([e for e, c in out.items() if c])
    return exps, [out[e] for e in exps]


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
