"""Expression parser and round-trip glue for the CLI.

Grammar (whitespace insensitive):

    expr     := ['-'] term (('+'|'-') term)* ['+' 'O' '(' 'X' '^' '(' exp ')' ')']
    term     := factor (('*'|'/') factor)*
    factor   := ['-'] atom ['^' exponent]
    atom     := 'X' | 'z' | 'pi' | 'y' | 'w' | integer | '(' expr ')'
    exponent := integer | '(' exp ')'
    exp      := rational | '(' rational ',' rational ')'
    rational := ['-'] integer ['/' integer]

Which atoms are legal depends on the target field: X and w belong to series
fields, pi and z to the p-adic cyclotomic fields, y to either when the
residue field carries it.  A builder per field kind supplies only those
atoms (integers, symbols, X powers) and the O-term truncation; the parser
applies the elements' own operators to them.  Division is multiplication by
the inverse; for series it therefore requires a denominator that parses to
a single term, which is the only shape the formatters emit.  An integer
power n goes through ``residue_field.power``, about 2*log2(n) products, and
a negative one inverts first.  The trailing O term truncates a series to
the named precision.  format/parse round trip: parsing ``str()`` of any
element reproduces it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import UsageError
from .hahn_series import SeriesElt, SeriesField
from .kummer import CycloElt, CycloField
from .residue_field import RatFunc, power
from .value_group import GroupElt

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([-+*/^(),]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise UsageError(f"syntax error at position {pos}: {text[pos:pos+10]!r}")
        if m.group(1):
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2):
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("sym", m.group(3), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, builder):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.b = builder

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, s: str):
        kind, value, pos = self.next()
        if kind != "sym" or value != s:
            raise UsageError(f"expected {s!r} at position {pos}")

    def fail(self, message):
        raise UsageError(f"{message} at position {self.peek()[2]}")

    # expr := ['-'] term (('+'|'-') term)* [O-term]
    def expr(self):
        negate = False
        if self.peek()[:2] == ("sym", "-"):
            self.next()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            op = self.next()[1]
            if op == "+" and self.peek()[:2] == ("name", "O"):
                return self.o_term(value)
            nxt = self.term()
            value = value + nxt if op == "+" else value - nxt
        return value

    def o_term(self, value):
        self.next()
        self.expect_sym("(")
        kind, name, pos = self.next()
        if (kind, name) != ("name", "X"):
            raise UsageError(f"precision bound must be O(X^(...)), position {pos}")
        self.expect_sym("^")
        self.expect_sym("(")
        bound = self.group_exp()
        self.expect_sym(")")
        self.expect_sym(")")
        if self.peek()[0] != "end":
            self.fail("precision bound must end the expression")
        return self.b.truncate(value, bound)

    def term(self):
        value = self.factor()
        while self.peek()[:2] in (("sym", "*"), ("sym", "/")):
            op = self.next()[1]
            nxt = self.factor()
            value = value * nxt if op == "*" else value * nxt.invert()
        return value

    def factor(self):
        if self.peek()[:2] == ("sym", "-"):
            self.next()
            return -self.factor()
        kind, value, pos = self.peek()
        if kind == "name" and value == "X":
            self.next()
            exp = self.exponent_group() if self.peek()[:2] == ("sym", "^") \
                else self.b.one_exp()
            return self.b.x_power(exp)
        base = self.atom()
        if self.peek()[:2] == ("sym", "^"):
            self.next()
            n = self.int_exponent()
            if n < 0:
                base, n = base.invert(), -n
            one = self.b.integer(1)
            # x^1 is the product 1 * x, as the printed layout of a
            # cyclotomic symbol (pi, z) differs from a product's
            return one * base if n == 1 else power(base, n, one)
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            return self.b.integer(value)
        if kind == "name":
            return self.b.symbol(value, pos)
        if (kind, value) == ("sym", "("):
            inner = self.expr()
            self.expect_sym(")")
            return inner
        raise UsageError(f"unexpected {value!r} at position {pos}")

    # exponent after X^: always parenthesized group element
    def exponent_group(self):
        self.expect_sym("^")
        self.expect_sym("(")
        value = self.group_exp()
        self.expect_sym(")")
        return value

    def group_exp(self) -> GroupElt:
        if self.peek()[:2] == ("sym", "("):
            self.next()
            first = self.rational()
            self.expect_sym(",")
            second = self.rational()
            self.expect_sym(")")
            return GroupElt((first, second))
        return GroupElt((self.rational(),))

    def int_exponent(self) -> int:
        if self.peek()[0] == "int":
            return self.next()[1]
        self.expect_sym("(")
        r = self.rational()
        self.expect_sym(")")
        if r.denominator != 1:
            self.fail("this symbol takes integer powers only")
        return int(r)

    def rational(self) -> Fraction:
        sign = 1
        if self.peek()[:2] == ("sym", "-"):
            self.next()
            sign = -1
        kind, value, pos = self.next()
        if kind != "int":
            raise UsageError(f"expected a number at position {pos}")
        num = value
        if self.peek()[:2] == ("sym", "/"):
            self.next()
            kind, den, pos = self.next()
            if kind != "int":
                raise UsageError(f"expected a denominator at position {pos}")
            if den == 0:
                raise UsageError(f"zero denominator at position {pos}")
            return Fraction(sign * num, den)
        return Fraction(sign * num)


class _SeriesBuilder:
    def __init__(self, field: SeriesField):
        self.field = field

    def integer(self, n):
        return self.field.from_int(n)

    def symbol(self, name, pos):
        residue = self.field.residue
        if name == "y":
            if isinstance(residue, RatFunc):
                return self.field.from_residue(residue.gen())
            raise UsageError(f"'y' needs a rational-function residue field (position {pos})")
        if name == "w":
            if isinstance(residue, RatFunc):
                if residue.base.m > 1:
                    return self.field.from_residue(residue.from_base(residue.base.gen()))
            elif residue.m > 1:
                return self.field.from_residue(residue.gen())
            raise UsageError(f"'w' needs a proper finite-field extension (position {pos})")
        raise UsageError(f"unknown symbol {name!r} for a series field (position {pos})")

    def one_exp(self):
        return GroupElt((1,) * self.field.group.rank)

    def x_power(self, exp: GroupElt):
        return self.field.monomial(self.field.residue.one(), exp)

    def truncate(self, a, bound: GroupElt):
        return a.truncate(bound)


class _CycloBuilder:
    def __init__(self, field: CycloField):
        self.field = field

    def integer(self, n):
        return self.field.from_int(n)

    def symbol(self, name, pos):
        if name == "pi":
            return self.field.pi()
        if name == "z":
            return self.field.z()
        if name == "y":
            if self.field.with_y:
                return self.field.y_gen()
            raise UsageError(f"'y' needs with_y=True (position {pos})")
        raise UsageError(f"unknown symbol {name!r} for a p-adic field (position {pos})")

    def one_exp(self):
        raise UsageError("'X' does not belong to p-adic fields")

    def x_power(self, exp):
        raise UsageError("'X' does not belong to p-adic fields")

    def truncate(self, a, bound):
        raise UsageError("O(...) bounds apply to series fields only")


def parse_expr(text: str, field) -> SeriesElt | CycloElt:
    """Parse text in the grammar above into an element of the given field."""
    if isinstance(field, SeriesField):
        builder = _SeriesBuilder(field)
    elif isinstance(field, CycloField):
        builder = _CycloBuilder(field)
    else:
        raise UsageError(f"no parser for field {field!r}")
    parser = _Parser(text, builder)
    try:
        value = parser.expr()
    except RecursionError:
        raise UsageError("expression nested too deeply") from None
    kind, _, pos = parser.peek()
    if kind != "end":
        raise UsageError(f"trailing input at position {pos}")
    return value

