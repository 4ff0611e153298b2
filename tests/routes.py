"""Reference routes that only the tests call, kept for them to cross-check
the library against.

The matrix route reads the norm and trace off the multiplication matrix,
whose determinant is computed by Berkowitz's division-free algorithm; it
shares nothing with the conjugate products of as_extension beyond ring
arithmetic.  The sequential route multiplies the conjugates one at a time,
as the library did before it built their product by doubling.

The bestness probes check sup-attainment of a normalized generator on given
probe elements, outside the decision trees of classify and classify_h.
is_p_divisible asks the group the question that SeriesElt.lead_root answers
on packed exponents, and cyclo_agrees compares cyclotomic elements to their
carried precision.

RefCycloField, RefCycloBase and RefCycloElt are the cyclotomic base ring as
it was before kummer moved to __slots__ classes with one reduction per
result: frozen dataclasses that reduce every coefficient on construction
and run each polynomial coefficient through a sum with zero.  old_power is
the square-and-multiply of that time, which started from one * x.  The
Kummer decision functions take either ring, so classify_h and normalize_h
run on both.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from valuata.as_extension import ExtElt
from valuata.errors import (InsufficientPrecisionError, UsageError,
                            ZeroToPrecisionError)
from valuata.hahn_series import SeriesElt, SeriesField, artin_schreier_shift
from valuata.kummer import CycloElt
from valuata.residue_field import GF, RatFunc, _is_prime
from valuata.value_group import (INFINITY, GroupElt, GroupKind, ValueGroup,
                                 divide_by_p)


def multiplication_matrix(x: ExtElt):
    """Rows i, columns j: coefficient of alpha**i in x * alpha**j."""
    ext = x.ext
    cols = []
    power = ext.one()
    alpha = ext.alpha()
    for _ in range(ext.p):
        cols.append((x * power).coeffs)
        power = power * alpha
    return [tuple(cols[j][i] for j in range(ext.p)) for i in range(ext.p)]


def norm_via_matrix(x: ExtElt) -> SeriesElt:
    """Determinant of the multiplication matrix (Berkowitz)."""
    x.ext.require_nontrivial()
    return det(x.ext.base, multiplication_matrix(x))


def trace_via_matrix(x: ExtElt) -> SeriesElt:
    x.ext.require_nontrivial()
    m = multiplication_matrix(x)
    acc = x.ext.base.zero()
    for i in range(x.ext.p):
        acc = acc + m[i][i]
    return acc


def det(base: SeriesField, rows) -> SeriesElt:
    """Determinant by Berkowitz's division-free algorithm, O(n**4) ring
    operations.

    poly holds the characteristic polynomial det(x - A_r) of the leading
    r x r block, highest degree first.  Bordering A_r by row R, column C and
    corner a multiplies it by the lower-triangular Toeplitz matrix whose
    first column is 1, -a, -R C, -R A_r C, ..., -R A_r**(r-1) C.
    """
    n = len(rows)
    poly = [base.one()]
    for r in range(n):
        col = [base.one(), -rows[r][r]]
        vec = [rows[i][r] for i in range(r)]
        for k in range(r):
            if k:
                vec = [dot(base, rows[i][:r], vec) for i in range(r)]
            col.append(-dot(base, rows[r][:r], vec))
        poly = [dot(base, [col[i - j] for j in range(i + 1)], poly)
                for i in range(r + 2)]
    # the constant term of det(x - A) is (-1)**n det(A)
    return poly[n] if n % 2 == 0 else -poly[n]


def dot(base: SeriesField, xs, ys) -> SeriesElt:
    acc = base.zero()
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def sequential_norm(x: ExtElt) -> SeriesElt:
    """x * sigma(x) * ... * sigma^(p-1)(x), one conjugate at a time."""
    x.ext.require_nontrivial()
    acc = x
    for i in range(1, x.ext.p):
        acc = acc * x.sigma(i)
    return x._symmetric_part(acc, "norm")


def sequential_invert(x: ExtElt, target=None) -> ExtElt:
    """The product of the other conjugates, one at a time, over the norm."""
    x.ext.require_nontrivial()
    acc = x.sigma(1)
    for i in range(2, x.ext.p):
        acc = acc * x.sigma(i)
    n = x._symmetric_part(acc * x, "norm")
    return acc.scale_base(n.invert(target))


def bestness_probe(f_star: SeriesElt, probes) -> list:
    """Check sup-attainment on given probe elements h: for every h and every
    i = 1..p-1, the valuation of i*(f + h**p - h) must not exceed v(f).

    Returns the list of violations (empty on success) so callers can decide
    whether a nonempty answer is a test failure or a counterexample report.
    """
    v_star = f_star.valuation()
    p = f_star.field.p
    violations = []
    for h in probes:
        shifted = artin_schreier_shift(f_star, h)
        for i in range(1, p):
            cand = shifted.scale_int(i)
            v = INFINITY if cand.is_exact_zero() else cand.valuation()
            if v > v_star:
                violations.append((h, i, v))
    return violations


def kummer_bestness_probe(h_star: CycloElt, probes) -> list:
    """For probe units g and every i = 1..p-1, v(h**i * g**p - 1) must not
    exceed v(h* - 1); returns any violations."""
    field = h_star.field
    one = field.one()
    v_star = (h_star - one).valuation()
    violations = []
    for g in probes:
        for i in range(1, field.p):
            cand = h_star.pow(i) * g.pow(field.p) - one
            try:
                v = cand.valuation()
            except ZeroToPrecisionError as exc:
                if exc.bound > v_star:
                    violations.append((g, i, "hidden"))
                continue
            if v > v_star:
                violations.append((g, i, v))
    return violations


def cyclo_agrees(a: CycloElt, b: CycloElt) -> bool:
    """No visible difference between a and b at the carried precision."""
    diff = a - b
    return not any(any(c.coeffs) for c in diff.num)


def is_p_divisible(group: ValueGroup, a: GroupElt) -> GroupElt | None:
    """Return a/p when that stays in the group, else None.

    Only the integer group can refuse; the other kinds are p-divisible.
    """
    group.check_member(a)
    half = divide_by_p(a.num, a.den, group.p, group.kind is GroupKind.INT)
    return None if half is None else GroupElt.packed(*half)


# -- the cyclotomic base ring before the lean rewrite -------------------------


def old_power(x, n: int, one):
    """Square-and-multiply whose first product is one * x."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


@dataclass(frozen=True)
class RefCycloField:
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

    def _base(self, shift, coeffs, nprec) -> "RefCycloBase":
        mod = self.p ** nprec
        return RefCycloBase(self, shift, tuple(c % mod for c in coeffs), nprec)

    def base_zero(self, nprec=None) -> "RefCycloBase":
        n = self.nprec if nprec is None else nprec
        return self._base(0, (0,) * self.degree, n)

    def base_one(self) -> "RefCycloBase":
        return self.base_from_int(1)

    def base_from_int(self, value: int) -> "RefCycloBase":
        coeffs = [value] + [0] * (self.degree - 1)
        return self._base(0, coeffs, self.nprec)

    def base_pi(self, power: int = 1) -> "RefCycloBase":
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
    def _w0_inverse(self) -> "RefCycloBase":
        """1/w0 for the unit w0 with z**(p-1) = -p * w0, so w0 = -rule/p;
        used to divide by powers of z."""
        w0 = [-r // self.p for r in self._fold_rule]
        return self._base(0, w0, self.nprec).invert()

    # -- public element constructors ------------------------------------------

    def zero(self) -> "RefCycloElt":
        return RefCycloElt(self, (self.base_zero(),), (self.base_one(),))

    def one(self) -> "RefCycloElt":
        return self.from_int(1)

    def from_int(self, value: int) -> "RefCycloElt":
        return RefCycloElt(self, (self.base_from_int(value),), (self.base_one(),))

    def from_base(self, b: "RefCycloBase") -> "RefCycloElt":
        return RefCycloElt(self, (b,), (self.base_one(),))

    def pi(self, power: int = 1) -> "RefCycloElt":
        return self.from_base(self.base_pi(power))

    def z(self) -> "RefCycloElt":
        return self.pi(self.m)

    def y_gen(self) -> "RefCycloElt":
        if not self.with_y:
            raise UsageError("this field has no y; construct it with with_y=True")
        return RefCycloElt(self, (self.base_zero(), self.base_one()),
                        (self.base_one(),))

    def lift_residue(self, r) -> "RefCycloElt":
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
            return RefCycloElt(self, tuple(map(self.base_from_int, num)),
                            tuple(map(self.base_from_int, den)))
        return self.from_int(r.code)


@dataclass(frozen=True)
class RefCycloBase:
    """pi**shift times a coefficient vector over 1, pi, ..., pi**(D-1),
    with coefficients known modulo p**nprec."""

    field: RefCycloField
    shift: int
    coeffs: tuple[int, ...]
    nprec: int

    def _check(self, other):
        if not isinstance(other, RefCycloBase):
            raise TypeError(f"cannot combine RefCycloBase with {type(other).__name__}")
        if other.field != self.field:
            raise UsageError("elements of different p-adic fields")

    @property
    def bound(self) -> int:
        """The element is known modulo pi**bound."""
        return self.shift + self.nprec * self.field.degree

    def is_represented_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def _reduce(self, raw, shift, nprec) -> "RefCycloBase":
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

    def div_pi(self, t: int) -> "RefCycloBase":
        """Divide by pi**t: a pure shift move, free of precision cost."""
        return RefCycloBase(self.field, self.shift - t, self.coeffs, self.nprec)

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

    def _divide_significand(self, t: int) -> "RefCycloBase":
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

    def _div_pi_once(self) -> "RefCycloBase":
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

    def invert(self) -> "RefCycloBase":
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
        return RefCycloBase(self.field, -v, x.coeffs, unit.nprec)

    def __repr__(self):
        return f"RefCycloBase({self.shift}, {self.coeffs}, {self.nprec})"



@dataclass(frozen=True)
class RefCycloElt:
    """num/den of polynomials in y over the base ring; den = (1,) without y."""

    field: RefCycloField
    num: tuple
    den: tuple

    def __post_init__(self):
        if not self.den or _poly_all_zero(self.den):
            raise ZeroDivisionError("zero denominator")
        if not self.field.with_y and (len(self.num) > 1 or len(self.den) > 1):
            raise UsageError("polynomials in y require a with_y field")

    def _check(self, other):
        if not isinstance(other, RefCycloElt):
            raise TypeError(f"cannot combine RefCycloElt with {type(other).__name__}")
        if other.field != self.field:
            raise UsageError("elements of different p-adic fields")

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if self.den == other.den:
            return RefCycloElt(self.field, _poly_add(self.field, self.num, other.num),
                            self.den)
        num = _poly_add(self.field,
                        _poly_mul(self.field, self.num, other.den),
                        _poly_mul(self.field, other.num, self.den))
        return RefCycloElt(self.field, num, _poly_mul(self.field, self.den, other.den))

    def __neg__(self):
        return RefCycloElt(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return RefCycloElt(self.field,
                        _poly_mul(self.field, self.num, other.num),
                        _poly_mul(self.field, self.den, other.den))

    def invert(self) -> "RefCycloElt":
        if len(self.num) == 1 and len(self.den) == 1:
            inv = self.num[0].invert()
            return RefCycloElt(self.field, (self.den[0] * inv,),
                            (self.field.base_one(),))
        return RefCycloElt(self.field, self.den, self.num)

    def pow(self, n: int) -> "RefCycloElt":
        if n < 0:
            return old_power(self.invert(), -n, self.field.one())
        return old_power(self, n, self.field.one())

    def shift_pi(self, t: int) -> "RefCycloElt":
        """Multiply by pi**t, any integer t; exact and free."""
        return RefCycloElt(self.field, tuple(c.div_pi(-t) for c in self.num), self.den)

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

    def __repr__(self):
        return f"RefCycloElt({self.num}, {self.den})"


def _poly_all_zero(poly) -> bool:
    return all(c.is_represented_zero() for c in poly)


def _poly_trim(field: RefCycloField, poly):
    out = list(poly)
    full = field.nprec * field.degree
    while len(out) > 1 and out[-1].is_represented_zero() and out[-1].bound >= full:
        out.pop()
    return tuple(out)


def _poly_add(field: RefCycloField, a, b):
    n = max(len(a), len(b))
    z = field.base_zero()
    out = [(a[i] if i < len(a) else z) + (b[i] if i < len(b) else z)
           for i in range(n)]
    return _poly_trim(field, out)


def _poly_mul(field: RefCycloField, a, b):
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


