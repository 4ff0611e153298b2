"""Kummer generators over p-adic fields containing the p-th roots of unity.

The base field is K = Q_p(zeta_p, pi) with pi**m = z, where z = zeta_p - 1.
Writing D = m*(p-1), the ring of integers is spanned by pi**t for t < D, the
normalized valuation has v(pi) = 1, v(z) = m and v(p) = D, and the relation
that folds pi**D back down comes from the minimal polynomial of zeta_p:

    z**(p-1) = -sum(binomial(p, k) * z**(k-1) for k = 1..p-1)

Every coefficient on the right is divisible by p, so folding terminates.
Elements carry a power-of-pi shift, a coefficient vector modulo p**nprec,
and a per-element nprec: the element is known modulo pi**(shift + nprec*D).
Dividing by a power of pi only moves the shift and costs nothing; what
costs precision is renormalizing a significand whose valuation is positive,
which divides coefficients by p.  All such costs are tracked, and valuative
comparisons the data cannot certify raise instead of guessing.

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
from functools import cached_property

from .best_f import (InvariantsReport, NormalizeOutcome, OutcomeKind,
                     invariants, normalize_loop)
from .errors import (InsufficientPrecisionError, NoImprovementError,
                     UsageError, ZeroToPrecisionError)
from .residue_field import GF, RatFunc, _is_prime, format_poly_y, power
from .value_group import ge


@dataclass(frozen=True)
class CycloField:
    """Parameters of K = Q_p(zeta_p, pi) with pi**m = zeta_p - 1."""

    p: int
    m: int = 1
    with_y: bool = False
    nprec: int = 48

    def __post_init__(self):
        if not _is_prime(self.p):
            raise UsageError(f"{self.p} is not prime")
        if self.m < 1:
            raise UsageError("the ramification parameter m must be positive")
        if self.nprec < 2:
            raise UsageError("padic precision must be at least 2")

    @property
    def degree(self) -> int:
        """D = m*(p-1), the absolute ramification index; also v(p)."""
        return self.m * (self.p - 1)

    @property
    def threshold(self) -> int:
        """v(z**p) = m*p; beyond it the Kummer equation splits."""
        return self.m * self.p

    @cached_property
    def residue(self):
        """GF(p), or GF(p)(y) with_y; one instance per field."""
        base = GF(self.p)
        return RatFunc(base) if self.with_y else base

    # -- base-ring constructors ----------------------------------------------

    def _base(self, shift, coeffs, nprec) -> "CycloBase":
        mod = self.p ** nprec
        return CycloBase(self, shift, tuple(c % mod for c in coeffs), nprec)

    def base_zero(self, nprec=None) -> "CycloBase":
        n = self.nprec if nprec is None else nprec
        return self._base(0, (0,) * self.degree, n)

    def base_one(self) -> "CycloBase":
        return self.base_from_int(1)

    def base_from_int(self, value: int) -> "CycloBase":
        coeffs = [value] + [0] * (self.degree - 1)
        return self._base(0, coeffs, self.nprec)

    def base_pi(self, power: int = 1) -> "CycloBase":
        """The monomial pi**power, any integer power."""
        coeffs = [0] * self.degree
        coeffs[0] = 1
        return self._base(power, coeffs, self.nprec)

    @cached_property
    def _fold_rule(self) -> tuple:
        """pi**degree equals sum(rule[j] * pi**j): the folded z**(p-1)."""
        rule = [0] * self.degree
        for k in range(1, self.p):
            rule[self.m * (k - 1)] -= math.comb(self.p, k)
        return tuple(rule)

    @cached_property
    def _w0_inverse(self) -> "CycloBase":
        """1/w0 for the unit w0 with z**(p-1) = -p * w0, so w0 = -rule/p;
        used to divide by powers of z."""
        w0 = [-r // self.p for r in self._fold_rule]
        return self._base(0, w0, self.nprec).invert()

    # -- public element constructors ------------------------------------------

    def zero(self) -> "CycloElt":
        return CycloElt(self, (self.base_zero(),), (self.base_one(),))

    def one(self) -> "CycloElt":
        return self.from_int(1)

    def from_int(self, value: int) -> "CycloElt":
        return CycloElt(self, (self.base_from_int(value),), (self.base_one(),))

    def from_base(self, b: "CycloBase") -> "CycloElt":
        return CycloElt(self, (b,), (self.base_one(),))

    def pi(self, power: int = 1) -> "CycloElt":
        return self.from_base(self.base_pi(power))

    def z(self) -> "CycloElt":
        return self.pi(self.m)

    def y_gen(self) -> "CycloElt":
        if not self.with_y:
            raise UsageError("this field has no y; construct it with with_y=True")
        return CycloElt(self, (self.base_zero(), self.base_one()),
                        (self.base_one(),))

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
            return CycloElt(self, tuple(map(self.base_from_int, num)),
                            tuple(map(self.base_from_int, den)))
        return self.from_int(r.code)


@dataclass(frozen=True)
class CycloBase:
    """pi**shift times a coefficient vector over 1, pi, ..., pi**(D-1),
    with coefficients known modulo p**nprec."""

    field: CycloField
    shift: int
    coeffs: tuple[int, ...]
    nprec: int

    def _check(self, other):
        if not isinstance(other, CycloBase):
            raise TypeError(f"cannot combine CycloBase with {type(other).__name__}")
        if other.field != self.field:
            raise UsageError("elements of different p-adic fields")

    @property
    def bound(self) -> int:
        """The element is known modulo pi**bound."""
        return self.shift + self.nprec * self.field.degree

    def is_represented_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def _reduce(self, raw, shift, nprec) -> "CycloBase":
        """Fold degrees >= D down through the defining relation."""
        D = self.field.degree
        rule = self.field._fold_rule
        raw = list(raw)
        for d in range(len(raw) - 1, D - 1, -1):
            c = raw[d]
            if c:
                raw[d] = 0
                for j, r in enumerate(rule):
                    if r:
                        raw[d - D + j] += c * r
        return self.field._base(shift, raw[:D] + [0] * (D - len(raw)), nprec)

    def __add__(self, other):
        self._check(other)
        n = min(self.nprec, other.nprec)
        lo, hi = (self, other) if self.shift <= other.shift else (other, self)
        off = hi.shift - lo.shift
        raw = list(lo.coeffs) + [0] * off
        for i, c in enumerate(hi.coeffs):
            raw[i + off] += c
        return self._reduce(raw, lo.shift, n)

    def __neg__(self):
        return self.field._base(self.shift, tuple(-c for c in self.coeffs), self.nprec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        n = min(self.nprec, other.nprec)
        raw = [0] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    raw[i + j] += a * b
        return self._reduce(raw, self.shift + other.shift, n)

    def div_pi(self, t: int) -> "CycloBase":
        """Divide by pi**t: a pure shift move, free of precision cost."""
        return CycloBase(self.field, self.shift - t, self.coeffs, self.nprec)

    # -- valuation and residue ---------------------------------------------------

    def valuation(self) -> int:
        """Normalized valuation with v(pi) = 1; raises when nothing is visible."""
        best = None
        mod = self.field.p ** self.nprec
        D = self.field.degree
        for r, c in enumerate(self.coeffs):
            c %= mod
            if c == 0:
                continue
            vp = 0
            while c % self.field.p == 0:
                c //= self.field.p
                vp += 1
            cand = vp * D + r
            if best is None or cand < best:
                best = cand
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
        t = v - self.shift
        r = t % self.field.degree
        vp = t // self.field.degree
        # p = -z**(p-1) * w0**(-1) and w0 has residue 1, so each power of p
        # extracted from the coefficient contributes a sign.
        sign = -1 if (vp % 2 and self.field.p != 2) else 1
        return sign * (self.coeffs[r] // self.field.p ** vp) % self.field.p

    # -- inversion -----------------------------------------------------------------

    def _divide_significand(self, t: int) -> "CycloBase":
        """Extract pi**t from the significand; costs about t/D + t%D precision."""
        out = self
        D = self.field.degree
        while t >= D:
            out = out * (-self.field._w0_inverse)
            if out.nprec <= 1:
                raise InsufficientPrecisionError("significand renormalization exhausted precision")
            if any(c % self.field.p for c in out.coeffs):
                raise UsageError("significand valuation below the requested extraction")
            coeffs = tuple(c // self.field.p for c in out.coeffs)
            out = self.field._base(out.shift, coeffs, out.nprec - 1)
            t -= D
        for _ in range(t):
            out = out._div_pi_once()
        return out

    def _div_pi_once(self) -> "CycloBase":
        D = self.field.degree
        p = self.field.p
        if self.nprec <= 1:
            raise InsufficientPrecisionError("significand renormalization exhausted precision")
        c0 = self.coeffs[0]
        if c0 % p:
            raise UsageError("significand is a unit; cannot extract pi")
        body = self.field._base(self.shift, self.coeffs[1:] + (0,), self.nprec - 1)
        if c0 == 0:
            return body
        head = self.field._base(self.shift, (0,) * (D - 1) + (1,), self.nprec - 1)
        correction = head * (-self.field._w0_inverse) * self.field.base_from_int(c0 // p)
        return body + correction

    def invert(self) -> "CycloBase":
        """Newton iteration from the residue inverse; shifts are free, a
        positively valued significand is renormalized first at its cost."""
        v = self.valuation()
        t = v - self.shift
        unit = self._divide_significand(t) if t else self
        p = self.field.p
        c0 = unit.coeffs[0] % p
        x = self.field._base(0, (pow(c0, p - 2, p),) + (0,) * (self.field.degree - 1),
                             unit.nprec)
        steps = max(1, (unit.nprec * self.field.degree).bit_length() + 1)
        two = self.field.base_from_int(2)
        sig = self.field._base(0, unit.coeffs, unit.nprec)
        for _ in range(steps):
            x = x * (two - sig * x)
        check = sig * x
        one = self.field._base(0, (1,) + (0,) * (self.field.degree - 1), unit.nprec)
        if check.coeffs != one.coeffs:
            raise UsageError("Newton inversion failed to converge; inverting a non-unit?")
        return CycloBase(self.field, -v, x.coeffs, unit.nprec)

    def __str__(self):
        return format_cyclo_base(self)

    def __repr__(self):
        return f"CycloBase({self})"


def _balanced(c: int, mod: int) -> int:
    c %= mod
    return c - mod if c > mod // 2 else c


def format_cyclo_base(b: CycloBase) -> str:
    parts = []
    mod = b.field.p ** b.nprec
    for r, c in enumerate(b.coeffs):
        c = _balanced(c, mod)
        if c == 0:
            continue
        k = b.shift + r
        if k == 0:
            parts.append(str(c))
        else:
            mono = "pi" if k == 1 else f"pi^({k})"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CycloElt:
    """num/den of polynomials in y over the base ring; den = (1,) without y."""

    field: CycloField
    num: tuple
    den: tuple

    def __post_init__(self):
        if not self.den or _poly_all_zero(self.den):
            raise ZeroDivisionError("zero denominator")
        if not self.field.with_y and (len(self.num) > 1 or len(self.den) > 1):
            raise UsageError("polynomials in y require a with_y field")

    def _check(self, other):
        if not isinstance(other, CycloElt):
            raise TypeError(f"cannot combine CycloElt with {type(other).__name__}")
        if other.field != self.field:
            raise UsageError("elements of different p-adic fields")

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if self.den == other.den:
            return CycloElt(self.field, _poly_add(self.field, self.num, other.num),
                            self.den)
        num = _poly_add(self.field,
                        _poly_mul(self.field, self.num, other.den),
                        _poly_mul(self.field, other.num, self.den))
        return CycloElt(self.field, num, _poly_mul(self.field, self.den, other.den))

    def __neg__(self):
        return CycloElt(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return CycloElt(self.field,
                        _poly_mul(self.field, self.num, other.num),
                        _poly_mul(self.field, self.den, other.den))

    def invert(self) -> "CycloElt":
        if len(self.num) == 1 and len(self.den) == 1:
            inv = self.num[0].invert()
            return CycloElt(self.field, (self.den[0] * inv,),
                            (self.field.base_one(),))
        return CycloElt(self.field, self.den, self.num)

    def pow(self, n: int) -> "CycloElt":
        if n < 0:
            return power(self.invert(), -n, self.field.one())
        return power(self, n, self.field.one())

    def shift_pi(self, t: int) -> "CycloElt":
        """Multiply by pi**t, any integer t; exact and free."""
        return CycloElt(self.field, tuple(c.div_pi(-t) for c in self.num), self.den)

    # -- valuation, residue -------------------------------------------------------

    def valuation(self) -> int:
        """Gauss valuation of num minus Gauss valuation of den."""
        return _poly_valuation(self.num) - _poly_valuation(self.den)

    def valuation_is_above(self, threshold: int) -> bool:
        """Certified v(self) > threshold, raising when the data cannot tell."""
        dv = _poly_valuation(self.den)
        try:
            nv = _poly_valuation(self.num)
        except ZeroToPrecisionError as exc:
            if exc.bound - dv > threshold:
                return True
            raise
        return nv - dv > threshold

    def residue_class(self):
        """Image in GF(p) or GF(p)(y); requires v >= 0."""
        k = self.field.residue
        dv = _poly_valuation(self.den)
        try:
            nv = _poly_valuation(self.num)
        except ZeroToPrecisionError as exc:
            if exc.bound - dv > 0:
                return k.zero()
            raise
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


def _poly_all_zero(poly) -> bool:
    return all(c.is_represented_zero() for c in poly)


def _poly_trim(field: CycloField, poly):
    out = list(poly)
    full = field.nprec * field.degree
    while len(out) > 1 and out[-1].is_represented_zero() and out[-1].bound >= full:
        out.pop()
    return tuple(out)


def _poly_add(field: CycloField, a, b):
    n = max(len(a), len(b))
    z = field.base_zero()
    out = [(a[i] if i < len(a) else z) + (b[i] if i < len(b) else z)
           for i in range(n)]
    return _poly_trim(field, out)


def _poly_mul(field: CycloField, a, b):
    out = [field.base_zero() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_represented_zero() and x.bound >= field.nprec * field.degree:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _poly_trim(field, out)


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
    num = _format_poly_y(a.num)
    if len(a.den) == 1 and a.den[0].coeffs[:1] == (1,) \
            and all(c == 0 for c in a.den[0].coeffs[1:]) and a.den[0].shift == 0:
        return num
    return f"({num})/({_format_poly_y(a.den)})"


def _format_poly_y(poly) -> str:
    return format_poly_y((j, format_cyclo_base(c)) for j, c in enumerate(poly)
                         if not c.is_represented_zero())


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
    return normalize_loop(h, budget, _classify_step, _advance, _w_val_or_none)


def _classify_step(h: CycloElt):
    c = classify_h(h)
    return c, c.h


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
