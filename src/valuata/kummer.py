"""Kummer generators over p-adic fields containing the p-th roots of unity.

The base field is K = Q_p(zeta_p, pi) with pi**m = z, where z = zeta_p - 1.
Writing D = m*(p-1), the ring of integers is spanned by pi**t for t < D, the
normalized valuation has v(pi) = 1, v(z) = m and v(p) = D, and the relation
that folds pi**D back down comes from the minimal polynomial of zeta_p:

    z**(p-1) = -sum(binomial(p, k) * z**(k-1) for k = 1..p-1)

Every coefficient on the right is divisible by p, so folding terminates.

A CycloBase is pi**shift times a vector over 1, pi, ..., pi**(D-1) with
coefficients in [0, p**nprec): it is known modulo pi**(shift + nprec*D).  A
CycloElt is num/den, tuples of CycloBase coefficients of y**0, y**1, ...,
one each without y.  Both are __slots__ classes with value equality.  A
shift by a power of pi is free; renormalizing a significand of positive
valuation divides coefficients by p and costs precision.  All such costs
are tracked, and valuative comparisons the data cannot certify raise
instead of guessing.

The field, built once per parameter set (corpus.FieldSpec.build), holds D,
the nonzero fold terms and the moduli p**n.  A sum or product is gathered
in one integer vector, folded below D and reduced once per result.  A
coefficient of a polynomial product, or one that only one operand of a
polynomial sum has, is laid out as its sum with zero would be: at shift
min(0, s).  invert returns that layout too, so 1 * x == x for every product
and inverse.  Elements with denominator 1 share the field's unit
denominator, and their product takes it without computing 1 * 1.

A generator h of the equation alpha**p = h (taken in the valuation ring) is
best when no substitution h -> h**i * g**p gets v(h - 1) closer to the
triviality threshold v(z**p) = m*p.  The five best shapes and the
improvement constructions are implemented in classify_h below.  With the
with_y flag the residue field becomes GF(p)(y), which is imperfect and makes
the ferocious shapes reachable; elements are then fractions of polynomials
in y over the base ring.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache, cached_property, partial

from .best_f import (InvariantsReport, NormalizeOutcome, OutcomeKind,
                     invariants, normalize_loop)
from .errors import (InsufficientPrecisionError, NoImprovementError,
                     UsageError, ZeroToPrecisionError)
from .residue_field import GF, RatFunc, _is_prime, format_poly_y, power
from .value_group import ge


@dataclass(frozen=True)
class CycloField:
    """K = Q_p(zeta_p, pi) with pi**m = zeta_p - 1, compared by (p, m,
    with_y, nprec).  degree is D = m*(p-1), also v(p); threshold is
    v(z**p) = m*p, beyond which the Kummer equation splits; pi**D is the sum
    of r * pi**j over the (j, r) in fold, the folded z**(p-1); mods(n) is
    p**n, computed once; unit is the denominator 1 that elements share."""

    p: int
    m: int = 1
    with_y: bool = False
    nprec: int = 48

    def __post_init__(self):
        p, m = self.p, self.m
        if not _is_prime(p):
            raise UsageError(f"{p} is not prime")
        if m < 1:
            raise UsageError("the ramification parameter m must be positive")
        if self.nprec < 2:
            raise UsageError("padic precision must be at least 2")
        # derived once, beside the frozen fields
        derived = self.__dict__
        derived.update(degree=m * (p - 1), threshold=m * p, mods=cache(partial(pow, p)),
                       fold=tuple((m * (k - 1), -math.comb(p, k)) for k in range(1, p)))
        derived.update(_zero=self._const(0), unit=(self._const(1),))
        derived["_one"] = CycloElt(self, self.unit, self.unit)

    @cached_property
    def residue(self):
        """GF(p), or GF(p)(y) with_y; one instance per field."""
        base = GF(self.p)
        return RatFunc(base) if self.with_y else base

    def _const(self, value: int) -> "CycloBase":
        return CycloBase(self, 0, (value % self.mods(self.nprec),)
                         + (0,) * (self.degree - 1), self.nprec)

    @cached_property
    def _w0_inverse(self) -> "CycloBase":
        """1/w0 for the unit w0 with z**(p-1) = -p * w0, so w0 = -rule/p;
        used to divide by powers of z."""
        w0 = [0] * self.degree
        for j, r in self.fold:
            w0[j] = -r // self.p
        return _settled(self, w0, 0, self.nprec).invert()

    def zero(self) -> "CycloElt":
        return CycloElt(self, (self._zero,), self.unit)

    def one(self) -> "CycloElt":
        return self._one

    def from_int(self, value: int) -> "CycloElt":
        return CycloElt(self, (self._const(value),), self.unit)

    def pi(self, power: int = 1) -> "CycloElt":
        """The monomial pi**power, any integer power."""
        return CycloElt(self, (self.unit[0].div_pi(-power),), self.unit)

    def z(self) -> "CycloElt":
        return self.pi(self.m)

    def y_gen(self) -> "CycloElt":
        if not self.with_y:
            raise UsageError("this field has no y; construct it with with_y=True")
        return CycloElt(self, (self._zero, self.unit[0]), self.unit)

    def lift_residue(self, r) -> "CycloElt":
        """Monomial-style lift: integers lift integer coefficients, y lifts y."""
        if isinstance(r, int):
            return self.from_int(r)
        k = self.residue
        if r.field != k:
            raise UsageError("residue element of the wrong field")
        if self.with_y:
            num, den = k.prime_coeffs(r)
            if not num:
                return self.zero()
            den = self.unit if den == (1,) else tuple(map(self._const, den))
            return CycloElt(self, tuple(map(self._const, num)), den)
        return self.from_int(r.code)


def _check(a, b):
    """a and b combine: same class, and the same field, by identity first."""
    if type(b) is not type(a):
        raise TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    if b.field is not a.field and b.field != a.field:
        raise UsageError("elements of different p-adic fields")


def _settled(field: CycloField, raw: list, shift: int, nprec: int) -> "CycloBase":
    """pi**shift * sum(raw[i] * pi**i) with the degrees D and up folded down
    from the top and every coefficient reduced mod p**nprec: the one
    reduction of a result.  raw is consumed."""
    D = field.degree
    fold = field.fold
    for d in range(len(raw) - 1, D - 1, -1):
        c = raw[d]
        if c:
            for j, r in fold:
                raw[d - D + j] += c * r
    mod = field.mods(nprec)
    return CycloBase(field, shift, tuple([c % mod for c in raw[:D]]), nprec)


def _products(field: CycloField, pairs, laid: bool) -> "CycloBase":
    """The sum of x * y over the pairs, gathered in one vector at the least
    shift of a product, or at min(0, that shift) when laid (the module
    docstring's layout); nprec is the least of the operands'."""
    shifts = [x.shift + y.shift for x, y in pairs]
    low = min(shifts)
    if laid and low > 0:
        low = 0
    raw = [0] * (2 * field.degree - 1 + max(shifts) - low)
    nprec = field.nprec
    for (x, y), s in zip(pairs, shifts):
        nprec = min(nprec, x.nprec, y.nprec)
        ys = y.coeffs
        for i, a in enumerate(x.coeffs, s - low):
            if a:
                for j, b in enumerate(ys, i):
                    if b:
                        raw[j] += a * b
    return _settled(field, raw, low, nprec)


class CycloBase:
    """pi**shift times a coefficient vector over 1, pi, ..., pi**(D-1), with
    coefficients reduced modulo p**nprec.  Built by the field and the
    arithmetic, which reduce; instances are never mutated."""

    __slots__ = ("field", "shift", "coeffs", "nprec")

    def __init__(self, field: CycloField, shift: int, coeffs: tuple, nprec: int):
        self.field = field
        self.shift = shift
        self.coeffs = coeffs
        self.nprec = nprec

    def __eq__(self, other):
        if not isinstance(other, CycloBase):
            return NotImplemented
        return (self.shift == other.shift and self.coeffs == other.coeffs
                and self.nprec == other.nprec
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.shift, self.coeffs, self.nprec))

    @property
    def bound(self) -> int:
        """The element is known modulo pi**bound."""
        return self.shift + self.nprec * self.field.degree

    def __add__(self, other):
        _check(self, other)
        lo, hi = (self, other) if self.shift <= other.shift else (other, self)
        off = hi.shift - lo.shift
        if off:
            raw = list(lo.coeffs) + [0] * off
            for i, c in enumerate(hi.coeffs, off):
                raw[i] += c
        else:
            raw = [a + b for a, b in zip(lo.coeffs, hi.coeffs)]
        return _settled(self.field, raw, lo.shift, min(self.nprec, other.nprec))

    def __neg__(self):
        mod = self.field.mods(self.nprec)
        return CycloBase(self.field, self.shift,
                         tuple([mod - c if c else 0 for c in self.coeffs]), self.nprec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check(self, other)
        return _products(self.field, ((self, other),), False)

    def div_pi(self, t: int) -> "CycloBase":
        """Divide by pi**t: a pure shift move, free of precision cost."""
        return CycloBase(self.field, self.shift - t, self.coeffs, self.nprec)

    def valuation(self) -> int:
        """Normalized valuation with v(pi) = 1; raises when nothing is visible."""
        p, D = self.field.p, self.field.degree
        best = None
        for r, c in enumerate(self.coeffs):
            if c:
                vp = 0
                while c % p == 0:
                    c //= p
                    vp += 1
                if best is None or vp * D + r < best:
                    best = vp * D + r
                if not vp:
                    break       # no later coefficient can come lower
        if best is None:
            raise ZeroToPrecisionError(bound=self.bound)
        return best + self.shift

    def residue_at(self, level: int) -> int:
        """Residue of self / pi**level in GF(p), requiring v(self) >= level."""
        try:
            v = self.valuation()
        except ZeroToPrecisionError as exc:
            if exc.bound > level:
                return 0
            raise
        if v > level:
            return 0
        if v < level:
            raise UsageError("residue taken below the valuation")
        p = self.field.p
        vp, r = divmod(v - self.shift, self.field.degree)
        # p = -z**(p-1) * w0**(-1) and w0 has residue 1, so each power of p
        # extracted from the coefficient contributes a sign.
        sign = -1 if (vp % 2 and p != 2) else 1
        return sign * (self.coeffs[r] // p ** vp) % p

    def _divide_significand(self, t: int) -> "CycloBase":
        """Extract pi**t from the significand; costs about t/D + t%D precision."""
        field = self.field
        out = self
        while t >= field.degree:
            out = out * (-field._w0_inverse)
            if out.nprec <= 1:
                raise InsufficientPrecisionError("significand renormalization exhausted precision")
            if any(c % field.p for c in out.coeffs):
                raise UsageError("significand valuation below the requested extraction")
            out = CycloBase(field, out.shift, tuple([c // field.p for c in out.coeffs]),
                            out.nprec - 1)
            t -= field.degree
        for _ in range(t):
            if out.nprec <= 1:
                raise InsufficientPrecisionError("significand renormalization exhausted precision")
            c0, n = out.coeffs[0], out.nprec - 1
            if c0 % field.p:
                raise UsageError("significand is a unit; cannot extract pi")
            body = _settled(field, list(out.coeffs[1:]) + [0], out.shift, n)
            if c0:
                head = CycloBase(field, out.shift, (0,) * (field.degree - 1) + (1,), n)
                body = body + head * (-field._w0_inverse) * field._const(c0 // field.p)
            out = body
        return out

    def invert(self) -> "CycloBase":
        """Newton iteration from the residue inverse; shifts are free, a
        positively valued significand is renormalized first at its cost.
        The iteration stops early at its fixed point, the inverse."""
        v = self.valuation()
        t = v - self.shift
        unit = self._divide_significand(t) if t else self
        field, p, n = self.field, self.field.p, unit.nprec
        sig = CycloBase(field, 0, unit.coeffs, n)
        x = CycloBase(field, 0, (pow(unit.coeffs[0] % p, p - 2, p),)
                      + (0,) * (field.degree - 1), n)
        two = field._const(2)
        for _ in range(max(1, (n * field.degree).bit_length() + 1)):
            x, last = x * (two - sig * x), x
            if x.coeffs == last.coeffs:
                break
        if (sig * x).coeffs != field.unit[0].coeffs:
            raise UsageError("Newton inversion failed to converge; inverting a non-unit?")
        return CycloBase(field, -v, x.coeffs, n)

    def __repr__(self):
        return f"CycloBase({format_cyclo_base(self)})"


def format_cyclo_base(b: CycloBase) -> str:
    parts = []
    mod = b.field.mods(b.nprec)
    for r, c in enumerate(b.coeffs):
        if c > mod // 2:
            c -= mod
        if c == 0:
            continue
        k = b.shift + r
        if k == 0:
            parts.append(str(c))
        else:
            mono = "pi" if k == 1 else f"pi^({k})"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


class CycloElt:
    """num/den of polynomials in y over the base ring; den is the field's
    unit without y.  Built by the field and the arithmetic; instances are
    never mutated."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: tuple):
        self.field = field
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, CycloElt):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.num, self.den))

    def _over(self, num: tuple, den: tuple) -> "CycloElt":
        """num/den for a computed den, which must not be zero to precision."""
        if not any(any(c.coeffs) for c in den):
            raise ZeroDivisionError("zero denominator")
        return CycloElt(self.field, num, self.field.unit if den == self.field.unit else den)

    def __add__(self, other):
        _check(self, other)
        f = self.field
        if self.den is other.den or self.den == other.den:
            return CycloElt(f, _poly_add(f, self.num, other.num), self.den)
        num = _poly_add(f, _poly_mul(f, self.num, other.den),
                        _poly_mul(f, other.num, self.den))
        return self._over(num, _poly_mul(f, self.den, other.den))

    def __neg__(self):
        return CycloElt(self.field, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check(self, other)
        f = self.field
        num = _poly_mul(f, self.num, other.num)
        if self.den is f.unit and other.den is f.unit:
            return CycloElt(f, num, f.unit)
        return self._over(num, _poly_mul(f, self.den, other.den))

    def invert(self) -> "CycloElt":
        """The inverse, laid out as the product 1 * (den/num) is."""
        f = self.field
        if len(self.num) == 1 and len(self.den) == 1:
            inv = self.num[0].invert()
            return CycloElt(f, (_products(f, ((self.den[0], inv),), True),), f.unit)
        if not any(any(c.coeffs) for c in self.num):
            raise ZeroDivisionError("zero denominator")
        return self._over(_poly_mul(f, f.unit, self.den), _poly_mul(f, f.unit, self.num))

    def pow(self, n: int) -> "CycloElt":
        if n < 0:
            return power(self.invert(), -n, self.field.one())
        return power(self, n, self.field.one())

    def shift_pi(self, t: int) -> "CycloElt":
        """Multiply by pi**t, any integer t; exact and free."""
        return CycloElt(self.field, tuple([c.div_pi(-t) for c in self.num]), self.den)

    def _den_valuation(self) -> int:
        return 0 if self.den is self.field.unit else _poly_valuation(self.den)

    def _gauss(self, level: int):
        """(v(num), v(den)), or None when num is zero to a bound that puts
        v(self) above level."""
        dv = self._den_valuation()
        try:
            return _poly_valuation(self.num), dv
        except ZeroToPrecisionError as exc:
            if exc.bound - dv > level:
                return None
            raise

    def valuation(self) -> int:
        """Gauss valuation of num minus Gauss valuation of den."""
        return _poly_valuation(self.num) - self._den_valuation()

    def valuation_is_above(self, threshold: int) -> bool:
        """Certified v(self) > threshold, raising when the data cannot tell."""
        vs = self._gauss(threshold)
        return vs is None or vs[0] - vs[1] > threshold

    def residue_class(self):
        """Image in GF(p) or GF(p)(y); requires v >= 0."""
        k = self.field.residue
        vs = self._gauss(0)
        if vs is None:
            return k.zero()
        nv, dv = vs
        v = nv - dv
        if v < 0:
            raise UsageError("negative valuation has no residue")
        if v > 0:
            return k.zero()
        if not self.field.with_y:
            return k.from_int(self.num[0].residue_at(nv))
        base = k.base
        num_res = [base.from_int(c.residue_at(nv)) for c in self.num]
        den_res = [base.from_int(c.residue_at(dv)) for c in self.den]
        if all(c.is_zero() for c in den_res):
            raise InsufficientPrecisionError("denominator residue is hidden")
        return k.from_polys(num_res, den_res)

    def __str__(self):
        return format_cyclo(self)

    def __repr__(self):
        return f"CycloElt({self})"


def _poly_trim(field: CycloField, out: list) -> tuple:
    """Drop trailing coefficients that are zero to the full precision."""
    full = field.nprec * field.degree
    while len(out) > 1 and not any(out[-1].coeffs) and out[-1].bound >= full:
        out.pop()
    return tuple(out)


def _poly_add(field: CycloField, a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    one = field.unit[0]
    out = [x + y for x, y in zip(a, b)]
    out += [x if x.shift <= 0 else _products(field, ((x, one),), True)
            for x in a[len(b):]]
    return _poly_trim(field, out)


def _poly_mul(field: CycloField, a: tuple, b: tuple) -> tuple:
    """Each coefficient is one laid-out _products; a coefficient of a that
    is zero to the full precision takes no part."""
    full = field.nprec * field.degree
    groups = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if any(x.coeffs) or x.bound < full:
            for j, y in enumerate(b, i):
                groups[j].append((x, y))
    return _poly_trim(field, [_products(field, g, True) if g else field._zero
                              for g in groups])


def _poly_valuation(poly) -> int:
    """Gauss valuation: the minimum over coefficients, certified."""
    visible = []
    bounds = []
    for c in poly:
        try:
            visible.append(c.valuation())
        except ZeroToPrecisionError as exc:
            bounds.append(exc.bound)
    if not visible:
        raise ZeroToPrecisionError(bound=min(bounds))
    v = min(visible)
    if any(b <= v for b in bounds):
        raise InsufficientPrecisionError(
            "a hidden coefficient could undercut the Gauss valuation")
    return v


def format_cyclo(a: CycloElt) -> str:
    num, den = (format_poly_y((j, format_cyclo_base(c)) for j, c in enumerate(poly)
                              if any(c.coeffs)) for poly in (a.num, a.den))
    one = len(a.den) == 1 and a.den[0].shift == 0 \
        and a.den[0].coeffs == a.field.unit[0].coeffs
    return num if one else f"({num})/({den})"


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class KummerVerdict(enum.Enum):
    BEST_I = "best-i"
    BEST_II = "best-ii"
    BEST_III = "best-iii"
    BEST_IV = "best-iv"
    BEST_V = "best-v"
    NOT_BEST = "not-best"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class KummerClassification:
    """Verdict for a generator of alpha**p = h, with checkable witnesses.

    ``h`` is the working element after the silent p-th-power monomial strip,
    so improvement witnesses apply to it directly.
    """

    verdict: KummerVerdict
    h: CycloElt
    valuation: int | None = None
    w_valuation: int | None = None
    unit: CycloElt | None = None
    unit_residue: object = None
    t: CycloElt | None = None
    c: CycloElt | None = None
    c_residue: object = None
    s_exponent: int | None = None
    g: CycloElt | None = None
    note: str | None = None

    @property
    def is_best(self) -> bool:
        return self.verdict not in (KummerVerdict.NOT_BEST, KummerVerdict.TRIVIAL)

    @property
    def is_trivial(self) -> bool:
        return self.verdict is KummerVerdict.TRIVIAL


def classify_h(h: CycloElt) -> KummerClassification:
    """Decide the best shape of h, or produce an improvement witness.

    Order of decision (h must lie in the valuation ring):

    1. p does not divide v(h): best-i, totally wild.
    2. Otherwise strip the monomial p-th power pi**v(h) and work with the
       unit.  If its residue is not a p-th power: best-ii, ferocious.
    3. If the residue is a p-th power different from 1, dividing by the
       lifted root's p-th power strictly raises v(h - 1): not-best.
    4. Now h = 1 + w.  If v(w) certifiably exceeds m*p: trivial.
    5. v(w) = m*p: write w = c * z**p.  If the residue of c is not of the
       form x**p - x: best-v, unramified.  Otherwise g = 1/(1 + lift(x)*z)
       pushes v(w) past the threshold: not-best, trivial next round.
    6. 0 < v(w) < m*p with p not dividing v(w): best-iii, wild.
    7. Remaining case v(w) = p*j: write w = u * s**p with s = pi**j.  If the
       residue of u is not a p-th power: best-iv, ferocious.  Otherwise
       g = 1/(1 + lift(root)*s) strictly raises v(w): not-best.
    """
    field = h.field
    k = field.residue
    one = field.one()
    p = field.p
    v = h.valuation()
    if v < 0:
        raise UsageError("classify_h expects h in the valuation ring")
    if v % p != 0:
        return KummerClassification(KummerVerdict.BEST_I, h, valuation=v)
    work = h if v == 0 else h.shift_pi(-v)
    note = None if v == 0 else f"stripped the p-th power pi^({v})"
    ubar = work.residue_class()
    root = k.pth_root(ubar)
    if root is None:
        return KummerClassification(KummerVerdict.BEST_II, work, valuation=v,
                                    unit=work, unit_residue=ubar, note=note)
    if ubar != k.one():
        g = field.lift_residue(root).invert()
        return KummerClassification(
            KummerVerdict.NOT_BEST, work, valuation=v, g=g,
            note="unit residue is a p-th power; rescaling to residue 1")
    w = work - one
    if w.valuation_is_above(field.threshold):
        return KummerClassification(KummerVerdict.TRIVIAL, work,
                                    note="v(h-1) exceeds m*p; Hensel splits the equation")
    vw = w.valuation()
    if vw == field.threshold:
        c = w.shift_pi(-field.threshold)
        cbar = c.residue_class()
        x = k.artin_schreier_preimage(cbar)
        if x is None:
            return KummerClassification(KummerVerdict.BEST_V, work,
                                        w_valuation=vw, c=c, c_residue=cbar,
                                        note=note)
        g = (one + field.lift_residue(x) * field.z()).invert()
        return KummerClassification(
            KummerVerdict.NOT_BEST, work, w_valuation=vw, g=g,
            note="residue of (h-1)/z^p has the split form x^p - x")
    if vw % p != 0:
        return KummerClassification(KummerVerdict.BEST_III, work,
                                    w_valuation=vw, t=w, note=note)
    j = vw // p
    u = w.shift_pi(-vw)
    ubar_w = u.residue_class()
    root = k.pth_root(ubar_w)
    if root is None:
        return KummerClassification(KummerVerdict.BEST_IV, work,
                                    w_valuation=vw, unit=u, unit_residue=ubar_w,
                                    s_exponent=j, note=note)
    g = (one + field.lift_residue(root) * field.pi(j)).invert()
    return KummerClassification(KummerVerdict.NOT_BEST, work, w_valuation=vw,
                                g=g)


def improve_h(h: CycloElt, g: CycloElt) -> CycloElt:
    """Apply h -> h * g**p and insist v(h - 1) strictly rises."""
    field = h.field
    one = field.one()
    old = (h - one).valuation()
    out = h * g.pow(field.p)
    new_w = out - one
    try:
        if not new_w.valuation() > old:
            raise NoImprovementError(
                f"improvement left v(h-1) at {new_w.valuation()} (was {old})")
    except ZeroToPrecisionError as exc:
        if not exc.bound > old:
            raise
    return out


def normalize_h(h: CycloElt, budget: int = 16) -> NormalizeOutcome:
    """Iterate classify/improve until a best shape, triviality, or the budget.

    Over this discretely valued base the loop always terminates well inside
    any reasonable budget; the defect-evidence outcome exists for interface
    symmetry with the equal-characteristic engine.
    """
    return normalize_loop(h, budget, lambda x: (c := classify_h(x), c.h),
                          _advance, _w_val_or_none)


def _advance(h: CycloElt, c: KummerClassification, room: int):
    h = improve_h(h, c.g)
    return h, 1, (_w_val_or_none(h),)


def _w_val_or_none(h: CycloElt):
    try:
        return (h - h.field.one()).valuation()
    except ZeroToPrecisionError:
        return None


def kummer_invariants(outcome: NormalizeOutcome) -> InvariantsReport:
    """Ramification invariants, with the conductor-style count
    swan = m*p - v(h* - 1) for the best shapes."""
    if outcome.kind is not OutcomeKind.BEST_FOUND:
        return invariants(outcome)
    field = outcome.f_star.field
    p = field.p
    c = outcome.classification
    if c.verdict is KummerVerdict.BEST_I:
        return InvariantsReport(p, 1, 1, "wild", ge(field.threshold))
    if c.verdict is KummerVerdict.BEST_II:
        return InvariantsReport(1, p, 1, "ferocious", ge(field.threshold))
    if c.verdict is KummerVerdict.BEST_III:
        return InvariantsReport(p, 1, 1, "wild", ge(field.threshold - c.w_valuation))
    if c.verdict is KummerVerdict.BEST_IV:
        return InvariantsReport(1, p, 1, "ferocious",
                                ge(field.threshold - c.w_valuation))
    return InvariantsReport(1, p, 1, "unramified", ge(0))
