"""Ordered abelian groups of values, with exact rational arithmetic.

Four kinds are supported: the integers, the rationals whose denominator is a
power of a fixed prime p, the full rationals, and the lexicographic product
of two copies of the rationals.  Elements are plain tuples of
``fractions.Fraction`` so comparison, addition and scaling never round.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError


class GroupKind(enum.Enum):
    INT = "int"
    INT_INV_P = "int-inv-p"
    RAT = "rat"
    LEX2 = "lex2"


@dataclass(frozen=True, order=False)
class GroupElt:
    """A value, of rank one (one component) or rank two (lexicographic pair)."""

    parts: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.parts) not in (1, 2):
            raise UsageError("a value has one or two components")

    @property
    def rank(self) -> int:
        return len(self.parts)

    def _check(self, other: "GroupElt") -> None:
        if not isinstance(other, GroupElt):
            raise TypeError(f"cannot combine GroupElt with {type(other).__name__}")
        if other.rank != self.rank:
            raise UsageError("mixed-rank value comparison")

    def __add__(self, other):
        self._check(other)
        return GroupElt(tuple([a + b for a, b in zip(self.parts, other.parts)]))

    def __sub__(self, other):
        self._check(other)
        return GroupElt(tuple([a - b for a, b in zip(self.parts, other.parts)]))

    def __neg__(self):
        return GroupElt(tuple([-a for a in self.parts]))

    def scale(self, n: int) -> "GroupElt":
        """n-fold sum of self, n any integer."""
        return GroupElt(tuple([a * n for a in self.parts]))

    def divide(self, n: int) -> "GroupElt":
        """Exact division inside the divisible hull; result may leave the group."""
        return GroupElt(tuple([a / n for a in self.parts]))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.parts)

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return True
        self._check(other)
        return self.parts < other.parts

    def __le__(self, other):
        if isinstance(other, _Infinity):
            return True
        self._check(other)
        return self.parts <= other.parts

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return False
        self._check(other)
        return self.parts > other.parts

    def __ge__(self, other):
        if isinstance(other, _Infinity):
            return False
        self._check(other)
        return self.parts >= other.parts

    def __str__(self):
        if self.rank == 1:
            return str(self.parts[0])
        return "({}, {})".format(self.parts[0], self.parts[1])

    def __repr__(self):
        return f"GroupElt({self})"


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
    if b is None:
        return GroupElt((Fraction(a),))
    return GroupElt((Fraction(a), Fraction(b)))


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
        return GroupElt((Fraction(0),) * self.rank)

    def contains(self, a: GroupElt) -> bool:
        if a.rank != self.rank:
            return False
        if self.kind is GroupKind.INT:
            return a.parts[0].denominator == 1
        if self.kind is GroupKind.INT_INV_P:
            return _is_p_power(a.parts[0].denominator, self.p)
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
        half = a.divide(self.p)
        return half if self.contains(half) else None
