"""Ordered abelian groups of values, with exact rational arithmetic.

Four kinds are supported: the integers, the rationals whose denominator is a
power of a fixed prime p, the full rationals, and the lexicographic product
of two copies of the rationals.

A value is packed: an int numerator over its least positive denominator, or
for rank two a pair of numerators over a pair of least denominators.  Equal
values thus have equal fields, and pairs compare lexicographically as tuples
do.  hahn_series stores its exponents in the same layout and computes on them
with _plus, _times, _to_common and divide_by_p from here.  Rationals appear
only at the edges: GroupElt(parts), the parts view and parse_group_elt.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import UsageError


class GroupKind(enum.Enum):
    INT = "int"
    INT_INV_P = "int-inv-p"
    RAT = "rat"
    LEX2 = "lex2"


class GroupElt:
    """A value, of rank one (one component) or rank two (lexicographic pair),
    built from one or two rationals or by GroupElt.packed; never mutated."""

    __slots__ = ("num", "den")

    def __init__(self, parts):
        parts = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in parts]
        if len(parts) not in (1, 2):
            raise UsageError("a value has one or two components")
        num, den = tuple([x.numerator for x in parts]), tuple([x.denominator for x in parts])
        self.num, self.den = (num, den) if len(parts) == 2 else (num[0], den[0])

    @classmethod
    def packed(cls, num, den) -> "GroupElt":
        """The value num/den, ints or pairs of ints with den positive,
        reduced to its least denominator."""
        if type(den) is int:
            g = gcd(num, den)
            if g != 1:
                num, den = num // g, den // g
        else:
            g0, g1 = gcd(num[0], den[0]), gcd(num[1], den[1])
            if g0 != 1 or g1 != 1:
                num = (num[0] // g0, num[1] // g1)
                den = (den[0] // g0, den[1] // g1)
        elt = object.__new__(cls)
        elt.num = num
        elt.den = den
        return elt

    @property
    def parts(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions."""
        if type(self.den) is int:
            return (Fraction(self.num, self.den),)
        return tuple(map(Fraction, self.num, self.den))

    @property
    def rank(self) -> int:
        return 1 if type(self.den) is int else 2

    def _check(self, other: "GroupElt") -> None:
        if not isinstance(other, GroupElt):
            raise TypeError(f"cannot combine GroupElt with {type(other).__name__}")
        if type(other.den) is not type(self.den):
            raise UsageError("mixed-rank value comparison")

    def __add__(self, other):
        self._check(other)
        d, ka, kb = _to_common(self.den, other.den)
        return GroupElt.packed(_plus(_times(self.num, ka), _times(other.num, kb)), d)

    def __sub__(self, other):
        self._check(other)
        d, ka, kb = _to_common(self.den, other.den)
        return GroupElt.packed(_plus(_times(self.num, ka), _times(other.num, _times(kb, -1))), d)

    def __neg__(self):
        return GroupElt.packed(_times(self.num, -1), self.den)

    def scale(self, n: int) -> "GroupElt":
        """n-fold sum of self, n any integer."""
        return GroupElt.packed(_times(self.num, n), self.den)

    def divide(self, n: int) -> "GroupElt":
        """Exact division inside the divisible hull; result may leave the group."""
        if n == 0:
            raise ZeroDivisionError("division of a value by zero")
        return GroupElt.packed(_times(self.num, -1 if n < 0 else 1), _times(self.den, abs(n)))

    def is_zero(self) -> bool:
        return self.num == 0 or self.num == (0, 0)

    def __lt__(self, other):
        if other is INFINITY:
            return True
        self._check(other)
        return _times(self.num, other.den) < _times(other.num, self.den)

    def __le__(self, other):
        if other is INFINITY:
            return True
        self._check(other)
        return _times(self.num, other.den) <= _times(other.num, self.den)

    def __gt__(self, other):
        if other is INFINITY:
            return False
        self._check(other)
        return _times(self.num, other.den) > _times(other.num, self.den)

    def __ge__(self, other):
        if other is INFINITY:
            return False
        self._check(other)
        return _times(self.num, other.den) >= _times(other.num, self.den)

    def __eq__(self, other):
        if type(other) is not GroupElt:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        parts = self.parts
        return str(parts[0]) if len(parts) == 1 else "({}, {})".format(*parts)

    def __repr__(self):
        return f"GroupElt({self})"


# -- packed values: an int over an int denominator, or a pair over a pair --------


def _plus(x, y):
    if type(x) is int:
        return x + y
    return (x[0] + y[0], x[1] + y[1])


def _times(x, k):
    """x times k: an int, or coordinatewise for pairs (k an int or a pair)."""
    if type(x) is int:
        return x * k
    if type(k) is int:
        return (x[0] * k, x[1] * k)
    return (x[0] * k[0], x[1] * k[1])


def _to_common(da, db):
    """The least common denominator d of da and db, and d/da, d/db."""
    if type(da) is int:
        d = lcm(da, db)
        return d, d // da, d // db
    d = (lcm(da[0], db[0]), lcm(da[1], db[1]))
    return d, (d[0] // da[0], d[1] // da[1]), (d[0] // db[0], d[1] // db[1])


def divide_by_p(num, den, p: int, integers: bool):
    """num/den divided by p as (num, den): divide the numerator where p
    divides it, else multiply the denominator.  Either way a least
    denominator stays least.  None when integers is set (the integer group)
    and p does not divide num; every other kind is p-divisible."""
    if type(den) is not int:
        (a, da), (b, db) = (divide_by_p(n, d, p, False) for n, d in zip(num, den))
        return (a, b), (da, db)
    if num % p == 0:
        return num // p, den
    return None if integers else (num, den * p)


class _Infinity:
    """Sentinel above every group element; the valuation of an exact zero."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("valuata-infinity")

    def __neg__(self):
        raise UsageError("cannot negate the infinite valuation")

    def __str__(self):
        return "inf"

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def ge(a, b=None) -> GroupElt:
    """Build a rank-one value ge(a) or a rank-two value ge(a, b)."""
    return GroupElt((a,) if b is None else (a, b))


def parse_group_elt(text: str) -> GroupElt:
    """Inverse of str(): "a/b" for rank one, "(a/b, c/d)" for rank two."""
    s = text.strip()
    if s.startswith("("):
        if not s.endswith(")"):
            raise UsageError(f"unbalanced parentheses in value {text!r}")
        inner = s[1:-1].split(",")
        if len(inner) != 2:
            raise UsageError(f"a rank-two value has two components: {text!r}")
        return GroupElt((Fraction(inner[0].strip()), Fraction(inner[1].strip())))
    return GroupElt((Fraction(s),))


def _is_p_power(n: int, p: int) -> bool:
    """Whether n = p**k for some k >= 0, in a constant number of big-integer
    operations.  If n = p**k has bit length b, then (b - 1)/log2(p) lies in
    (k - 1, k], so the first power below is p**(k - 1) or p**k even after
    float rounding; for any n it is at most two factors of p short of n."""
    if n < 1:
        return False
    if p == 2:
        return n & (n - 1) == 0
    q = p ** int((n.bit_length() - 1) / math.log2(p))
    while q < n:
        q *= p
    return q == n


@dataclass(frozen=True)
class ValueGroup:
    """One of the four supported groups; p is required for INT_INV_P and is
    the prime used by is_p_divisible in every kind."""

    kind: GroupKind
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise UsageError("the prime p must be at least 2")

    @property
    def rank(self) -> int:
        return 2 if self.kind is GroupKind.LEX2 else 1

    def zero(self) -> GroupElt:
        return GroupElt((0,) * self.rank)

    def contains(self, a: GroupElt) -> bool:
        if a.rank != self.rank:
            return False
        if self.kind is GroupKind.INT:
            return a.den == 1
        if self.kind is GroupKind.INT_INV_P:
            return _is_p_power(a.den, self.p)
        return True

    def check_member(self, a: GroupElt) -> GroupElt:
        if not self.contains(a):
            raise UsageError(f"{a} does not lie in the {self.kind.value} group")
        return a

    def is_p_divisible(self, a: GroupElt) -> GroupElt | None:
        """Return a/p when that stays in the group, else None.

        Only the integer group can refuse; the other kinds are p-divisible.
        """
        self.check_member(a)
        half = divide_by_p(a.num, a.den, self.p, self.kind is GroupKind.INT)
        return None if half is None else GroupElt.packed(*half)
