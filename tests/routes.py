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
"""

from valuata.as_extension import ExtElt
from valuata.errors import ZeroToPrecisionError
from valuata.hahn_series import SeriesElt, SeriesField, artin_schreier_shift
from valuata.kummer import CycloElt
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
    return all(c.is_represented_zero() for c in diff.num)


def is_p_divisible(group: ValueGroup, a: GroupElt) -> GroupElt | None:
    """Return a/p when that stays in the group, else None.

    Only the integer group can refuse; the other kinds are p-divisible.
    """
    group.check_member(a)
    half = divide_by_p(a.num, a.den, group.p, group.kind is GroupKind.INT)
    return None if half is None else GroupElt.packed(*half)
