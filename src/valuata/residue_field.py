"""Residue fields of characteristic p, with exact decision procedures.

Two kinds are available.  ``GF(p, m)`` is the finite field with p**m elements:
GF(p) for any prime p, and GF(q) for the q of ``DEFAULT_MODULI`` (4, 8, 9, 16,
25, 27), polynomials in a generator w modulo the built-in monic irreducible
modulus.  ``RatFunc(gf)`` is the rational function field over a finite
field in the indeterminate y, represented as reduced fractions with monic
denominator.  RatFunc fields are imperfect, which is what makes the
ferocious classification cases reachable.

A GF(q) element is its integer code and nothing else: c0 + c1*w + ... has
code c0 + c1*p + ..., so 0 and 1 are codes 0 and 1.  ``GFElt`` pairs a code
with its field (``GF.from_code`` builds one, ``.code`` reads it back).  Each
field builds on first use one ``Ring`` record, ``GF.ring`` or
``RatFunc.ring``, with the arithmetic on the stored form: add, neg, mul,
inv, Frobenius and p-th root, plus the conversions at the boundary.
Prime-field codes use plain ``% p``; for m > 1 the record reads antilog,
log and Zech (n -> log(1 + g**n)) tables of a primitive element g, each of
size about q (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 2-3).
Everything that computes in GF(q) reads that record: the GFElt operators,
the y-polynomial kernel below (``poly_*``, ``RatFunc._reduced`` and
``RatFunc.inv``), and the series layer (``hahn_series``), which stores its
coefficients in the field's stored form and builds a GFElt only where a
coefficient leaves that layer.

Polynomials in y (numerators and denominators in RatFunc) are tuples of
integer codes, low degree first, without trailing zeros.

Over GF(2) the polynomial kernels (``poly_add``, ``poly_mul``,
``poly_divmod``, ``poly_gcd``) pack each operand into one Python int, one
byte slot per coefficient: ``int.from_bytes(bytes(a), "little")``, and
``to_bytes`` back.  A sum is XOR; long division is shift-and-XOR, with the
degree read off ``bit_length()``; a product is one big-int multiply reduced
mod 2 by ``bytes.translate``.  A slot of the product sums at most
min(len a, len b) ones, so nothing carries into the next slot while the
shorter operand has fewer than 256 coefficients; longer operands take the
coefficient loop (Brent, Gaudry, Thome & Zimmermann, "Faster multiplication
in GF(2)[x]", ANTS 2008, on word-packed GF(2)[x]).  The packed int lives
only inside one call.  Tuples stay the stored form: ``hahn_series`` keeps
RatFuncElt coefficients behind ``RatFunc.ring``, ``RatFunc.prime_coeffs``
hands the tuples to Kummer, and the benchmark's tracer takes ``len()`` of
gcds, numerators and denominators.  Odd p and m > 1 run the code-tuple
loops.

``power(x, n, one)`` is the one square-and-multiply of the package: every
element type (GF, RatFunc, series, extension and cyclotomic elements, and
the expression parser's ``^``) raises to a power n >= 0 through it, with
about 2*log2(n) products.  ``format_poly_y`` is the one printer of
polynomials in y, shared with the cyclotomic fields.

Beyond the ring operations each field decides, exactly:

* ``pth_root(c)``: in GF(q) every element has the root c**(q/p).  In RatFunc
  a reduced fraction is a p-th power iff numerator and denominator each have
  all monomial exponents divisible by p (coefficients take roots for free in
  a finite field), because Frobenius is additive in characteristic p.
* ``artin_schreier_preimage(c)``: solve x**p - x = c.  Over GF(q) a solution
  exists iff the absolute trace of c vanishes, and is found by direct search
  (fields here are desk sized).  Over RatFunc the denominator of c must be a
  perfect p-th power d**p, any solution is n/d with deg(n) bounded by
  max(deg num, deg den)/p + 1, and the bounded problem is GF(p)-linear in
  the coefficients of n; we solve it by Gaussian elimination and verify.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial

from .errors import UsageError

# Monic irreducible moduli over GF(p), low degree first, as int coefficient
# tuples: q -> (c0, c1, ..., 1).  GF(p**m) with m > 1 exists for these q.
DEFAULT_MODULI = {
    4: (1, 1, 1),          # w^2 + w + 1 over GF(2)
    8: (1, 1, 0, 1),       # w^3 + w + 1 over GF(2)
    9: (1, 0, 1),          # w^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),   # w^4 + w + 1 over GF(2)
    25: (1, 1, 1),         # w^2 + w + 1 over GF(5)
    27: (1, 2, 0, 1),      # w^3 + 2w + 1 over GF(3)
}

# The arithmetic of a residue field on the form its elements are stored in:
# integer codes for GF(q), RatFuncElt objects for GF(q)(y).  prime is p when
# the stored form is a GF(p) code, which a loop may accumulate as a plain
# int sum of products and reduce by % p once; 0 otherwise.  inv needs a
# nonzero argument and root returns None when there is no p-th root.  pack
# checks that an element belongs to the field and returns its stored form;
# unpack turns a stored form back into an element.
Ring = namedtuple("Ring", "prime one add neg mul inv frob root from_int pack unpack")


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def power(x, n: int, one):
    """x**n for n >= 0 by square-and-multiply, with ``one`` the result at 0.

    Every element type raises to integer powers here, about 2*log2(n)
    products in all; the loop stops before the square no bit would use.
    Callers handle negative n by inverting first.  The lowest set bit takes
    its factor as it is, not as ``one * x``: x**1 is x itself, equal to
    ``one * x`` for every product and inverse of the types here.
    """
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return one if result is None else result


@dataclass(frozen=True)
class GFElt:
    """Element of GF(p**m) by its integer code: the coefficients of 1, w,
    ..., w^(m-1) over GF(p) as base-p digits.  The operators compute on the
    code through the field's ``ring``."""

    field: "GF"
    code: int

    def _check(self, other):
        if not isinstance(other, GFElt):
            raise TypeError(f"cannot combine GFElt with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise UsageError("elements of different residue fields")

    def __add__(self, other):
        self._check(other)
        return GFElt(self.field, self.field.ring.add(self.code, other.code))

    def __sub__(self, other):
        self._check(other)
        ring = self.field.ring
        return GFElt(self.field, ring.add(self.code, ring.neg(other.code)))

    def __neg__(self):
        return GFElt(self.field, self.field.ring.neg(self.code))

    def __mul__(self, other):
        self._check(other)
        return GFElt(self.field, self.field.ring.mul(self.code, other.code))

    def __pow__(self, n: int):
        return self.field.pow(self, n)

    def is_zero(self):
        return not self.code

    def __bool__(self):
        return bool(self.code)

    def __str__(self):
        return self.field.format_elt(self)

    def __repr__(self):
        return f"GFElt({self})"


def _member(field, c, cls):
    """c, after checking that it is an element of field."""
    if not isinstance(c, cls) or (c.field is not field and c.field != field):
        raise UsageError("coefficient from a different residue field")
    return c


def _identity(a):
    return a


@dataclass(frozen=True)
class GF:
    """The finite field GF(p**m); for m > 1, w is a root of DEFAULT_MODULI[p**m]."""

    p: int
    m: int = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise UsageError(f"{self.p} is not prime")
        if self.m < 1:
            raise UsageError("extension degree must be positive")
        if self.m > 1 and self.q not in DEFAULT_MODULI:
            sizes = ", ".join(map(str, DEFAULT_MODULI))
            raise UsageError(f"GF({self.q}) is not built in; the finite fields are "
                             f"GF(p) for a prime p and GF(q) for q = {sizes}")

    @property
    def q(self) -> int:
        return self.p ** self.m

    @property
    def kind(self) -> str:
        return f"gf:{self.q}"

    def elt(self, coeffs) -> GFElt:
        """The element c0 + c1*w + ... from its coefficients c0, c1, ..."""
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise UsageError("too many coefficients for the field degree")
        p = self.p
        return GFElt(self, sum([c % p * p ** i for i, c in enumerate(coeffs)]))

    def zero(self) -> GFElt:
        return GFElt(self, 0)

    def one(self) -> GFElt:
        return GFElt(self, 1)

    def from_int(self, n: int) -> GFElt:
        return GFElt(self, n % self.p)

    def gen(self) -> GFElt:
        """The class of w; equals 1 when m = 1."""
        return GFElt(self, self.p if self.m > 1 else 1)

    def elements(self):
        """All q elements, in lexicographic order of (c0, c1, ...)."""
        for coeffs in itertools.product(range(self.p), repeat=self.m):
            yield self.elt(coeffs)

    def from_code(self, n: int) -> GFElt:
        """The element whose code is n mod q: the lowest m base-p digits of n."""
        return GFElt(self, n % self.q)

    @cached_property
    def ring(self) -> Ring:
        """Arithmetic on codes, built on first use.  Prime-field codes use
        plain ``% p``; for m > 1 it reads antilog, log and Zech tables of a
        primitive element g."""
        p, q, n = self.p, self.q, self.q - 1
        unpack = partial(GFElt, self)

        def pack(c):
            return _member(self, c, GFElt).code

        if self.m == 1:
            # every element of GF(p) is its own p-th power
            return Ring(p, 1, lambda a, b: (a + b) % p, lambda a: -a % p,
                        lambda a, b: a * b % p, lambda a: pow(a, p - 2, p),
                        _identity, _identity, lambda k: k % p, pack, unpack)

        def powers(g):      # 1, g, g**2, ... before the first return to 1
            out, x = [1], g
            while x != 1:
                out.append(x)
                x = self._times(x, g)
            return out

        # antilog table of the first code of multiplicative order q - 1
        exp = next(e for e in map(powers, range(2, q)) if len(e) == n)
        log = [0] * q
        for i, c in enumerate(exp):
            log[c] = i
        # zech[k] = log(1 + g**k), or -1 where 1 + g**k = 0; adding one to a
        # code raises its lowest base-p digit
        zech = [-1 if c == p - 1 else log[c - c % p + (c + 1) % p] for c in exp]
        exp = exp + exp              # indices up to 2n - 2 need no reduction
        half = n // 2 if p > 2 else 0    # g**half = -1

        def add(a, b):
            if not a or not b:
                return a or b
            z = zech[(log[b] - log[a]) % n]
            return 0 if z < 0 else exp[log[a] + z]

        return Ring(0, 1, add, lambda a: exp[log[a] + half] if a else 0,
                    lambda a, b: exp[log[a] + log[b]] if a and b else 0,
                    lambda a: exp[n - log[a]],
                    lambda a: exp[log[a] * p % n] if a else 0,
                    lambda a: exp[log[a] * (q // p) % n] if a else 0,
                    lambda k: k % p, pack, unpack)

    def _times(self, a: int, b: int) -> int:
        """The product of two codes by the schoolbook rule, reduced modulo
        the modulus top down; used only to build the antilog table."""
        p, m, mod = self.p, self.m, DEFAULT_MODULI[self.q]
        prod = [0] * (2 * m - 1)
        for i in range(m):
            for j in range(m):
                prod[i + j] += (a // p ** i % p) * (b // p ** j % p)
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d] % p
            for j in range(m):
                prod[d - m + j] -= c * mod[j]
        return sum([c % p * p ** i for i, c in enumerate(prod[:m])])

    def pow(self, a: GFElt, n: int) -> GFElt:
        if n < 0:
            return power(self.inv(a), -n, self.one())
        return power(a, n, self.one())

    def inv(self, a: GFElt) -> GFElt:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero in a residue field")
        return GFElt(self, self.ring.inv(a.code))

    def frobenius(self, a: GFElt) -> GFElt:
        return GFElt(self, self.ring.frob(a.code))

    def pth_root(self, a: GFElt) -> GFElt:
        """Always exists: Frobenius is a bijection with inverse c -> c**(q/p)."""
        return GFElt(self, self.ring.root(a.code))

    def trace_to_prime(self, a: GFElt) -> int:
        """Absolute trace down to GF(p), returned as an integer mod p."""
        acc = self.zero()
        x = a
        for _ in range(self.m):
            acc = acc + x
            x = self.frobenius(x)
        return acc.code

    def artin_schreier_preimage(self, c: GFElt) -> GFElt | None:
        """Some x with x**p - x = c, or None.

        Solvable iff the absolute trace of c is zero; the witness is found by
        direct search, which is fine at the field sizes this package targets.
        The returned solution is the first in the fixed element order, so the
        result is deterministic.
        """
        if self.trace_to_prime(c) != 0:
            return None
        for x in self.elements():
            if self.frobenius(x) - x == c:
                return x
        raise UsageError("trace-zero element without preimage; inconsistent field data")

    def format_elt(self, a: GFElt) -> str:
        parts = []
        for i in range(self.m):
            c = a.code // self.p ** i % self.p
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "w" if i == 1 else f"w^{i}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# polynomials over GF(q): tuples of integer codes without trailing zeros
#
# Tuples are built from lists, never from generators: CPython sizes a tuple
# built from a generator by a guess and then resizes it, and the freed tuples
# then pile up on its per-length free lists until a full garbage collection.
# This code allocates too few tracked objects to trigger one often; built
# from generators, a long ferocious benchmark run holds about 4 MB more.
# Over GF(2) four of them compute on byte-slot ints (see the module docstring).
# ---------------------------------------------------------------------------

_PARITY = bytes([c & 1 for c in range(256)])     # a byte slot mod 2


def _pack(a):
    return int.from_bytes(bytes(a), "little")


def _unpack(x):
    return tuple(x.to_bytes((x.bit_length() + 7) >> 3, "little"))


def _divmod2(a, b):
    """Packed quotient and remainder over GF(2) by shift-and-XOR, b nonzero:
    every top coefficient is 1, so degrees are bit_length() // 8."""
    width = b.bit_length()
    q = 0
    shift = a.bit_length() - width
    while shift >= 0:
        q |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - width
    return q, a


def poly_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_add(field, a, b):
    ring = field.ring
    if ring.prime == 2:
        return _unpack(_pack(a) ^ _pack(b))
    if len(a) < len(b):
        a, b = b, a
    add = ring.add
    out = [add(x, y) for x, y in zip(a, b)]
    if len(a) > len(b):
        return tuple(out) + a[len(b):]
    return poly_trim(out)


def poly_neg(field, a):
    neg = field.ring.neg
    return tuple([neg(c) for c in a])


def poly_mul(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    if b == (1,):               # a denominator of one, most often
        return a
    n = len(a) + len(b) - 1
    ring = field.ring
    p = ring.prime
    if p == 2 and len(b) < 256:
        # one product; a byte slot sums at most 255 ones, so nothing carries
        return tuple((_pack(a) * _pack(b)).to_bytes(n, "little").translate(_PARITY))
    out = [0] * n
    if p:
        # accumulate integer products, reduce once
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return tuple([c % p for c in out])
    add, mul = ring.add, ring.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
    return tuple(out)


def poly_scale(field, a, c: int):
    if not c:
        return ()
    mul = field.ring.mul
    return tuple([mul(x, c) for x in a])


def poly_divmod(field, a, b):
    """Quotient and remainder of a by b, with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(b) - 1
    if len(a) <= n:
        return (), a
    ring = field.ring
    p = ring.prime
    if p == 2:
        q, r = _divmod2(_pack(a), _pack(b))
        return tuple(q.to_bytes(len(a) - n, "little")), _unpack(r)
    r = list(a)
    q = [0] * (len(a) - n)
    lead_inv = ring.inv(b[-1])
    low = b[:n]
    if p:
        # r holds unreduced integers; only the coefficient read is reduced
        for k in range(len(q) - 1, -1, -1):
            f = r[k + n] * lead_inv % p
            if f:
                q[k] = f
                for i, c in enumerate(low, k):
                    r[i] -= f * c
        return tuple(q), poly_trim([c % p for c in r[:n]])
    add, neg, mul = ring.add, ring.neg, ring.mul
    for k in range(len(q) - 1, -1, -1):
        f = mul(r[k + n], lead_inv)
        if f:
            q[k] = f
            f = neg(f)
            for i, c in enumerate(low, k):
                r[i] = add(r[i], mul(f, c))
    return tuple(q), poly_trim(r[:n])


def poly_gcd(field, a, b):
    """The monic gcd; () when both are zero."""
    ring = field.ring
    if ring.prime == 2:
        a, b = _pack(a), _pack(b)
        while b:
            a, b = b, _divmod2(a, b)[1]
        return _unpack(a)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return poly_scale(field, a, ring.inv(a[-1])) if a else a


def poly_frobenius(field, a):
    """a(y)**p, using additivity of Frobenius: exponents stretch by p."""
    if not a:
        return a
    p, frob = field.p, field.ring.frob
    out = [0] * ((len(a) - 1) * p + 1)
    out[::p] = [frob(c) for c in a]
    return tuple(out)


def poly_pth_root(field, a):
    """The polynomial b with b**p = a, or None.

    Works coefficient by coefficient: a is a p-th power iff every exponent
    carrying a nonzero coefficient is divisible by p.
    """
    p, root = field.p, field.ring.root
    if any(c for i, c in enumerate(a) if i % p):
        return None
    return tuple([root(c) for c in a[::p]])


# ---------------------------------------------------------------------------
# rational function fields
# ---------------------------------------------------------------------------

class RatFuncElt:
    """A reduced fraction num/den of polynomials in y, den monic.  Reduced
    forms are unique, so equality and hashing compare num and den."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "RatFunc", num: tuple, den: tuple):
        self.field = field
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, RatFuncElt):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.num, self.den))

    def _check(self, other):
        if not isinstance(other, RatFuncElt):
            raise TypeError(f"cannot combine RatFuncElt with {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise UsageError("elements of different residue fields")

    def __add__(self, other):
        """Henrici's sum: with g = gcd(den1, den2) the numerator
        num1*den2/g + num2*den1/g is prime to den1/g and den2/g, so only g
        can cancel against it."""
        self._check(other)
        gf = self.field.base
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            g = d1
            num = poly_add(gf, n1, n2)
            d1 = d2 = (1,)
        else:
            g = (1,) if len(d1) == 1 or len(d2) == 1 else poly_gcd(gf, d1, d2)
            if len(g) > 1:
                d1, d2 = poly_divmod(gf, d1, g)[0], poly_divmod(gf, d2, g)[0]
            num = poly_add(gf, poly_mul(gf, n1, d2), poly_mul(gf, n2, d1))
        num, g = _cancel(gf, num, g)
        if not num:
            return self.field.zero()
        return RatFuncElt(self.field, num, poly_mul(gf, poly_mul(gf, g, d1), d2))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatFuncElt(self.field, poly_neg(self.field.base, self.num), self.den)

    def __mul__(self, other):
        """Henrici's product: cancelling num1 against den2 and num2 against
        den1 leaves products already in lowest terms, with monic den."""
        self._check(other)
        gf = self.field.base
        if not self.num or not other.num:
            return self.field.zero()
        n1, d2 = _cancel(gf, self.num, other.den)
        n2, d1 = _cancel(gf, other.num, self.den)
        return RatFuncElt(self.field, poly_mul(gf, n1, n2), poly_mul(gf, d1, d2))

    def __pow__(self, n: int):
        return self.field.pow(self, n)

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __str__(self):
        return self.field.format_elt(self)

    def __repr__(self):
        return f"RatFuncElt({self})"


@dataclass(frozen=True)
class RatFunc:
    """GF(q)(y), the rational functions over a finite field.  Imperfect."""

    base: GF

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def kind(self) -> str:
        return f"ratfunc:{self.base.q}"

    @cached_property
    def ring(self) -> Ring:
        """Series coefficients over GF(q)(y) are the RatFuncElt objects
        themselves, combined by their operators."""
        return Ring(0, self.one(), operator.add, operator.neg, operator.mul, self.inv,
                    self.frobenius, self.pth_root, self.from_int,
                    lambda c: _member(self, c, RatFuncElt), _identity)

    def _reduced(self, num, den) -> RatFuncElt:
        """num/den in lowest terms with monic den."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        gf = self.base
        num, den = _cancel(gf, num, den)
        inv = gf.ring.inv(den[-1])
        return RatFuncElt(self, poly_scale(gf, num, inv), poly_scale(gf, den, inv))

    def from_polys(self, num, den) -> RatFuncElt:
        """The fraction of two coefficient sequences of GFElt, low degree first."""
        pack = self.base.ring.pack
        return self._reduced(poly_trim(map(pack, num)), poly_trim(map(pack, den)))

    def zero(self) -> RatFuncElt:
        return RatFuncElt(self, (), (1,))

    def one(self) -> RatFuncElt:
        return RatFuncElt(self, (1,), (1,))

    def from_int(self, n: int) -> RatFuncElt:
        return self.from_base(self.base.from_int(n))

    def from_base(self, c: GFElt) -> RatFuncElt:
        return RatFuncElt(self, poly_trim((self.base.ring.pack(c),)), (1,))

    def gen(self) -> RatFuncElt:
        return RatFuncElt(self, (0, 1), (1,))

    def prime_coeffs(self, a: RatFuncElt) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Numerator and denominator coefficients of a, low degree first, as
        integers 0..p-1.  Needs a prime base field."""
        if self.base.m != 1:
            raise UsageError("coefficients are integers only over a prime field")
        return a.num, a.den

    def inv(self, a: RatFuncElt) -> RatFuncElt:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero in a residue field")
        # den/num is already in lowest terms; only its lead needs scaling
        gf = self.base
        lead_inv = gf.ring.inv(a.num[-1])
        return RatFuncElt(self, poly_scale(gf, a.den, lead_inv),
                          poly_scale(gf, a.num, lead_inv))

    def pow(self, a: RatFuncElt, n: int) -> RatFuncElt:
        if n < 0:
            return power(self.inv(a), -n, self.one())
        return power(a, n, self.one())

    def frobenius(self, a: RatFuncElt) -> RatFuncElt:
        """num**p / den**p is again reduced, with den**p monic."""
        gf = self.base
        return RatFuncElt(self, poly_frobenius(gf, a.num), poly_frobenius(gf, a.den))

    def pth_root(self, a: RatFuncElt) -> RatFuncElt | None:
        """Root of a reduced fraction, or None when a is not a p-th power.

        A reduced fraction is a p-th power exactly when numerator and
        denominator separately are: if (n/d)**p is reduced so is n**p/d**p,
        and reduced forms with monic denominator are unique.  The roots are
        coprime again and the root of a monic polynomial is monic.
        """
        num = poly_pth_root(self.base, a.num)
        if num is None:
            return None
        den = poly_pth_root(self.base, a.den)
        if den is None:
            return None
        return RatFuncElt(self, num, den)

    def artin_schreier_degree_bound(self, c: RatFuncElt) -> int:
        """Documented degree bound for preimage numerators; see the solver."""
        return (max(len(c.num), len(c.den)) - 1) // self.p + 1

    def artin_schreier_preimage(self, c: RatFuncElt) -> RatFuncElt | None:
        """Some x with x**p - x = c, or None.

        Any solution written in lowest terms n/d with d monic forces
        d**p = den(c): the map x -> x**p - x sends n/d to
        (n**p - n d**(p-1)) / d**p, and that fraction is already reduced.  So
        the denominator is determined by a polynomial p-th root, and the
        numerator satisfies the GF(p)-linear equation
        n**p - n d**(p-1) = num(c) with deg n <= artin_schreier_degree_bound:
        pB = deg num when n dominates, deg n <= deg d otherwise.  We solve
        the bounded linear system over GF(p), coefficientwise in the GF(p)
        basis 1, w, ..., w^(m-1) of GF(q) (the codes p**b), and verify the
        witness before returning it.
        """
        gf = self.base
        p, mdeg = gf.p, gf.m
        if c.is_zero():
            return self.zero()
        d = poly_pth_root(gf, c.den)
        if d is None:
            return None
        bound = self.artin_schreier_degree_bound(c)
        dpow = power(RatFuncElt(self, d, (1,)), p - 1, self.one()).num
        # one unknown per (degree t, basis index b), in that order
        images = []
        for t in range(bound + 1):
            for b in range(mdeg):
                mono = (0,) * t + (p ** b,)
                images.append(poly_add(gf, poly_frobenius(gf, mono),
                                       poly_neg(gf, poly_mul(gf, mono, dpow))))
        max_len = max(len(c.num), *map(len, images))

        def coords(a):  # over GF(p): the base-p digits of each code
            return [n // p ** b % p for n in a + (0,) * (max_len - len(a))
                    for b in range(mdeg)]

        solution = _solve_mod_p(list(map(coords, images)), coords(c.num),
                                max_len * mdeg, p)
        if solution is None:
            return None
        ncoeffs = [sum(solution[t * mdeg + b] * p ** b for b in range(mdeg))
                   for t in range(bound + 1)]
        x = self._reduced(poly_trim(ncoeffs), d)
        if (self.pow(x, p) - x) - c:
            raise UsageError("linear solve produced a bad preimage; solver bug")
        return x

    def format_elt(self, a: RatFuncElt) -> str:
        num = _format_poly(self.base, a.num)
        if a.den == (1,):
            return num
        return f"({num})/({_format_poly(self.base, a.den)})"


def _cancel(field, a, b):
    """a/g and b/g for g = gcd(a, b); no gcd when b is constant."""
    if len(b) == 1:
        return a, b
    g = poly_gcd(field, a, b)
    if len(g) == 1:
        return a, b
    return poly_divmod(field, a, g)[0], poly_divmod(field, b, g)[0]


def _format_poly(field, a) -> str:
    return format_poly_y((i, field.format_elt(field.from_code(a[i])))
                         for i in range(len(a) - 1, -1, -1) if a[i])


def format_poly_y(terms) -> str:
    """Text of a polynomial in y from (degree, coefficient text) pairs, given
    in print order; a coefficient with a sum or product in it is bracketed."""
    parts = []
    for i, cs in terms:
        compound = "+" in cs or "*" in cs
        if i == 0:
            parts.append(f"({cs})" if compound else cs)
            continue
        var = "y" if i == 1 else f"y^{i}"
        if cs == "1":
            parts.append(var)
        elif compound:
            parts.append(f"({cs})*{var}")
        else:
            parts.append(f"{cs}*{var}")
    return " + ".join(parts) if parts else "0"


def _solve_mod_p(cols, rhs, nrows, p):
    """Solve A x = rhs mod p where A is given by columns; None if inconsistent.

    Plain Gaussian elimination; returns one deterministic solution with free
    variables set to zero.
    """
    ncols = len(cols)
    rows = [[(cols[j][i] if i < len(cols[j]) else 0) % p for j in range(ncols)]
            + [rhs[i] % p if i < len(rhs) else 0] for i in range(nrows)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if rows[i][ncols]:
            return None
    solution = [0] * ncols
    for i, col in enumerate(pivots):
        solution[col] = rows[i][ncols]
    return solution
