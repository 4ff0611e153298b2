"""Degree-p extensions defined by the equation alpha**p - alpha = f.

Elements are coefficient vectors of length p over the base series field in
the basis 1, alpha, ..., alpha**(p-1); products reduce through the defining
equation.  The Galois action sends alpha to alpha + t for t = 0, ..., p-1,
and norm and trace are computed as conjugate products and sums.  The
product sigma(a) * ... * sigma^(p-1)(a) that norm and invert share is built
by doubling (Itoh and Tsujii, Inform. and Comput. 78, 1988): with P_k the
product of the first k conjugates, P_2k = P_k * sigma^k(P_k) and
P_(k+1) = P_k * sigma^(k+1)(a), so it takes floor(log2(p-1)) +
popcount(p-1) - 1 extension products instead of p - 2.  The tests
cross-check these norms and traces against the determinant and trace of
the multiplication matrix (tests/routes.py).

The valuation of a is v(N(a))/p, living in the p-divided hull of the base
value group.  When f is best (best_f.classify, decided once per extension),
1, alpha, ..., alpha**(p-1) is a valuation basis: the values i*v(f)/p lie in
distinct cosets of the group (best-i), or the residues of the normalized
powers of alpha are linearly independent over the residue field (best-ii,
best-iii).  So v_L(sum a_i alpha**i) = min_i (v(a_i) + i*v(alpha)) with
v(alpha) = v(f)/p, exactly (Engler and Prestel, Valued Fields, ch. 3).
valuation_L takes m, the least v(a_i) + i*v(alpha) over the coordinates
with a visible term, and answers m when every coordinate that is zero to
its bound B_i has B_i + i*v(alpha) >= m, since such a coordinate cannot
fall below m.  That answer is certified even where N(a) is zero to
precision: it holds for every element the bounds allow.

Otherwise, and for any f that is not best, valuation_L reads the
valuation off the full norm, so it answers, or raises, exactly as v(N(a))
does.  A relaxed norm of truncated coordinates (van der Hoeven, "Relax, but
don't be too lazy", 2002) can find the same leading term sooner, but on the
defect extensions of the benchmark's dense-groups workload the cut fell
short of the whole element in 15 of 642 calls, so the norm is computed
whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (ResidualAlphaComponentError, TrivialExtensionError,
                     UsageError, ValuataError)
from .hahn_series import SeriesElt, SeriesField
from .value_group import GroupElt


def _triviality_witness(field: SeriesField, f: SeriesElt):
    """Reason the equation splits over the base, or None.

    It splits when v(f) > 0 (Hensel), when f is an exact zero, and when
    v(f) = 0 with the residue of f of the form x**p - x, since shifting by
    the lift of x lands back in the v > 0 case.
    """
    if f.is_exact_zero():
        return "f is exactly zero"
    v = f.valuation()
    zero = field.group.zero()
    if v > zero:
        return f"v(f) = {v} > 0"
    if v == zero:
        x = field.residue.artin_schreier_preimage(f.residue_class())
        if x is not None:
            return f"residue of f equals x**p - x for x = {x}"
    return None


@dataclass(frozen=True)
class ASExtension:
    """The extension ring K[alpha] with alpha**p - alpha = f."""

    base: SeriesField
    f: SeriesElt

    def __post_init__(self):
        if self.f.field != self.base:
            raise UsageError("defining element lives in a different field")
        object.__setattr__(self, "_trivial", _triviality_witness(self.base, self.f))

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def trivial(self) -> bool:
        return self._trivial is not None

    def require_nontrivial(self):
        if self.trivial:
            raise TrivialExtensionError(
                f"the defining equation splits over the base: {self._trivial}")

    @cached_property
    def basis_v_alpha(self) -> GroupElt | None:
        """v(alpha) = v(f)/p when f is best, so that the powers of alpha
        form a valuation basis (module docstring); None otherwise, and when
        classify cannot decide."""
        from .best_f import classify    # best_f imports this module
        try:
            c = classify(self.f)
        except ValuataError:
            return None
        return c.valuation.divide(self.p) if c.is_best else None

    def from_coeffs(self, coeffs) -> "ExtElt":
        cs = list(coeffs)
        if len(cs) > self.p:
            raise UsageError("coefficient vector longer than the degree")
        cs += [self.base.zero()] * (self.p - len(cs))
        for c in cs:
            if c.field != self.base:
                raise UsageError("coefficient from a different base field")
        return ExtElt(self, tuple(cs))

    def from_base(self, c: SeriesElt) -> "ExtElt":
        return self.from_coeffs([c])

    def zero(self) -> "ExtElt":
        return self.from_coeffs([])

    def one(self) -> "ExtElt":
        return self.from_base(self.base.one())

    def alpha(self) -> "ExtElt":
        return self.from_coeffs([self.base.zero(), self.base.one()])


@dataclass(frozen=True)
class ExtElt:
    """Element of an ASExtension in the power basis of alpha."""

    ext: ASExtension
    coeffs: tuple

    def _check(self, other):
        if not isinstance(other, ExtElt):
            raise TypeError(f"cannot combine ExtElt with {type(other).__name__}")
        if other.ext != self.ext:
            raise UsageError("elements of different extensions")

    def __add__(self, other):
        self._check(other)
        return ExtElt(self.ext, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other):
        self._check(other)
        return ExtElt(self.ext, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self):
        return ExtElt(self.ext, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        self._check(other)
        p = self.ext.p
        base = self.ext.base
        prod = [base.zero()] * (2 * p - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            # zero to precision still carries its bound into the product
            for j, b in enumerate(other.coeffs):
                prod[i + j] = prod[i + j] + a * b
        # alpha**p = alpha + f, folded from the top degree down
        for d in range(2 * p - 2, p - 1, -1):
            top = prod[d]
            if top.is_exact_zero():
                continue
            prod[d] = base.zero()
            prod[d - p + 1] = prod[d - p + 1] + top
            prod[d - p] = prod[d - p] + top * self.ext.f
        return ExtElt(self.ext, tuple(prod[:p]))

    def scale_base(self, c: SeriesElt) -> "ExtElt":
        return ExtElt(self.ext, tuple([a * c for a in self.coeffs]))

    def constant(self) -> SeriesElt:
        return self.coeffs[0]

    # -- Galois action -------------------------------------------------------

    def sigma(self, power: int = 1) -> "ExtElt":
        """The generator of the Galois action, alpha -> alpha + power.  A
        coefficient whose binomial scalar is 1 (every one at p = 2) is added
        unscaled."""
        ext = self.ext
        p = ext.p
        t = power % p
        if t == 0:
            return self
        base = ext.base
        out = [base.zero()] * p
        for i, c in enumerate(self.coeffs):
            if c.is_exact_zero():
                continue
            # c * (alpha + t)**i, binomials taken mod p
            for j in range(i + 1):
                scalar = (math.comb(i, j) * pow(t, i - j, p)) % p
                if scalar:
                    out[j] = out[j] + (c if scalar == 1 else c.scale_int(scalar))
        return ExtElt(ext, tuple(out))

    # -- norm, trace, valuation ----------------------------------------------

    def _symmetric_part(self, value: "ExtElt", what: str) -> SeriesElt:
        for c in value.coeffs[1:]:
            if c.has_terms():
                raise ResidualAlphaComponentError(
                    f"{what} kept a visible alpha component: {c}")
        return value.coeffs[0]

    def _conjugate_product(self) -> "ExtElt":
        """sigma(a) * ... * sigma^(p-1)(a), by doubling (module docstring)."""
        acc, k = self.sigma(1), 1
        for bit in bin(self.ext.p - 1)[3:]:
            acc = acc * acc.sigma(k)
            k *= 2
            if bit == "1":
                k += 1
                acc = acc * self.sigma(k)
        return acc

    def norm(self) -> SeriesElt:
        """Product of the p conjugates; lands in the base field."""
        self.ext.require_nontrivial()
        return self._symmetric_part(self * self._conjugate_product(), "norm")

    def trace(self) -> SeriesElt:
        """Sum of the p conjugates; lands in the base field."""
        self.ext.require_nontrivial()
        acc = self
        for i in range(1, self.ext.p):
            acc = acc + self.sigma(i)
        return self._symmetric_part(acc, "trace")

    def valuation_L(self) -> GroupElt:
        """Valuation in the p-divided hull of the base group: the least
        v(a_i) + i*v(alpha) when f is best and the bounds certify it, else
        v(N(a))/p off the full norm (module docstring)."""
        v_alpha = self.ext.basis_v_alpha
        if v_alpha is not None:
            seen, hidden = [], []
            for i, c in enumerate(self.coeffs):
                if c.has_terms():
                    seen.append(c.valuation() + v_alpha.scale(i))
                elif not c.is_exact_zero():
                    hidden.append(c.precision + v_alpha.scale(i))
            if seen:
                m = min(seen)
                if all(b >= m for b in hidden):
                    return m
        return self.norm().valuation().divide(self.ext.p)

    def invert(self, target: GroupElt | None = None) -> "ExtElt":
        """Inverse: product of the other conjugates over the norm."""
        self.ext.require_nontrivial()
        acc = self._conjugate_product()
        n = self._symmetric_part(acc * self, "norm")
        return acc.scale_base(n.invert(target))

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.has_terms() and c.is_exact_zero():
                continue
            body = str(c)
            name = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
            parts.append(f"({body})" + (f"*{name}" if name else ""))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"ExtElt({self})"

