"""The polynomial kernels under RatFunc against a reference copy of the
code-tuple kernel.

Over GF(2) ``poly_add``, ``poly_mul``, ``poly_divmod`` and ``poly_gcd`` pack
their operands into byte-slot ints; every other field runs the code-tuple
loops.  The reference below is the code-tuple kernel for every field,
together with the RatFunc operations written on top of it.  Results must be
equal tuples, over GF(2), GF(3), GF(4), GF(5), GF(7) and GF(257), whose
codes reach 256 and so do not fit a byte.  GF(2) products run at the
no-carry bound: operands of 255, 256 and 300 coefficients.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.residue_field import (GF, RatFunc, RatFuncElt, _solve_mod_p,
                                   poly_add, poly_divmod, poly_frobenius,
                                   poly_gcd, poly_mul, poly_pth_root)

GF2 = GF(2)
FIELDS = (GF2, GF(3), GF(2, 2), GF(5), GF(7), GF(257))
RATFUNCS = {f: RatFunc(f) for f in FIELDS}


# -- the reference: the code-tuple kernel for every field ---------------------------


def ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = field.ring.add
    out = [add(x, y) for x, y in zip(a, b)]
    if len(a) > len(b):
        return tuple(out) + a[len(b):]
    return ref_trim(out)


def ref_neg(field, a):
    return tuple([field.ring.neg(c) for c in a])


def ref_mul(field, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if field.m == 1:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return tuple([c % field.p for c in out])
    add, mul = field.ring.add, field.ring.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] = add(out[j], mul(x, y))
    return tuple(out)


def ref_scale(field, a, c):
    if not c:
        return ()
    return tuple([field.ring.mul(x, c) for x in a])


def ref_divmod(field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(b) - 1
    if len(a) <= n:
        return (), a
    r = list(a)
    q = [0] * (len(a) - n)
    lead_inv = field.ring.inv(b[-1])
    low = b[:n]
    if field.m == 1:
        p = field.p
        for k in range(len(q) - 1, -1, -1):
            f = r[k + n] * lead_inv % p
            if f:
                q[k] = f
                for i, c in enumerate(low, k):
                    r[i] -= f * c
        return tuple(q), ref_trim([c % p for c in r[:n]])
    add, neg, mul = field.ring.add, field.ring.neg, field.ring.mul
    for k in range(len(q) - 1, -1, -1):
        f = mul(r[k + n], lead_inv)
        if f:
            q[k] = f
            f = neg(f)
            for i, c in enumerate(low, k):
                r[i] = add(r[i], mul(f, c))
    return tuple(q), ref_trim(r[:n])


def ref_gcd(field, a, b):
    while b:
        a, b = b, ref_divmod(field, a, b)[1]
    return ref_scale(field, a, field.ring.inv(a[-1])) if a else a


def ref_power(field, c, e):
    """The code of c**e, by square-and-multiply on GFElt."""
    return (field.from_code(c) ** e).code


def ref_frobenius(field, a):
    if not a:
        return a
    p = field.p
    out = [0] * ((len(a) - 1) * p + 1)
    out[::p] = [ref_power(field, c, p) for c in a]
    return tuple(out)


def ref_pth_root(field, a):
    p = field.p
    if any(c for i, c in enumerate(a) if i % p):
        return None
    return tuple([ref_power(field, c, field.q // p) for c in a[::p]])


# -- the reference RatFunc: reduced (num, den) pairs, den monic -----------------------


def ref_cancel(field, a, b):
    if len(b) == 1:
        return a, b
    g = ref_gcd(field, a, b)
    if len(g) == 1:
        return a, b
    return ref_divmod(field, a, g)[0], ref_divmod(field, b, g)[0]


def ref_reduced(field, num, den):
    num, den = ref_cancel(field, num, den)
    inv = field.ring.inv(den[-1])
    return ref_scale(field, num, inv), ref_scale(field, den, inv)


def ref_frac_add(field, x, y):
    (n1, d1), (n2, d2) = x, y
    if d1 == d2:
        g = d1
        num = ref_add(field, n1, n2)
        d1 = d2 = (1,)
    else:
        g = (1,) if len(d1) == 1 or len(d2) == 1 else ref_gcd(field, d1, d2)
        if len(g) > 1:
            d1, d2 = ref_divmod(field, d1, g)[0], ref_divmod(field, d2, g)[0]
        num = ref_add(field, ref_mul(field, n1, d2), ref_mul(field, n2, d1))
    num, g = ref_cancel(field, num, g)
    if not num:
        return (), (1,)
    return num, ref_mul(field, ref_mul(field, g, d1), d2)


def ref_frac_mul(field, x, y):
    (n1, d1), (n2, d2) = x, y
    if not n1 or not n2:
        return (), (1,)
    n1, d2 = ref_cancel(field, n1, d2)
    n2, d1 = ref_cancel(field, n2, d1)
    return ref_mul(field, n1, n2), ref_mul(field, d1, d2)


def ref_frac_inv(field, x):
    num, den = x
    if not num:
        raise ZeroDivisionError("inverse of zero in a residue field")
    lead_inv = field.ring.inv(num[-1])
    return ref_scale(field, den, lead_inv), ref_scale(field, num, lead_inv)


def ref_frac_pow(field, x, n):
    if n < 0:
        x, n = ref_frac_inv(field, x), -n
    out = ((1,), (1,))
    for _ in range(n):
        out = ref_frac_mul(field, out, x)
    return out


def ref_frac_frobenius(field, x):
    return ref_frobenius(field, x[0]), ref_frobenius(field, x[1])


def ref_frac_pth_root(field, x):
    num, den = ref_pth_root(field, x[0]), ref_pth_root(field, x[1])
    return None if num is None or den is None else (num, den)


def ref_artin_schreier_preimage(field, c):
    p, mdeg = field.p, field.m
    num, den = c
    if not num:
        return (), (1,)
    d = ref_pth_root(field, den)
    if d is None:
        return None
    bound = (max(len(num), len(den)) - 1) // p + 1
    dpow = ref_frac_pow(field, (d, (1,)), p - 1)[0]
    images = []
    for t in range(bound + 1):
        for b in range(mdeg):
            mono = (0,) * t + (p ** b,)
            images.append(ref_add(field, ref_frobenius(field, mono),
                                  ref_neg(field, ref_mul(field, mono, dpow))))
    max_len = max(len(num), *map(len, images))

    def coords(a):
        return [n // p ** b % p for n in a + (0,) * (max_len - len(a))
                for b in range(mdeg)]

    solution = _solve_mod_p(list(map(coords, images)), coords(num), max_len * mdeg, p)
    if solution is None:
        return None
    ncoeffs = [sum(solution[t * mdeg + b] * p ** b for b in range(mdeg))
               for t in range(bound + 1)]
    x = ref_reduced(field, ref_trim(ncoeffs), d)
    assert ref_artin_schreier(field, x) == c
    return x


def ref_artin_schreier(field, x):
    """x**p - x, with x**p read off Frobenius."""
    return ref_frac_add(field, ref_frac_frobenius(field, x), (ref_neg(field, x[0]), x[1]))


def ref_format_poly_y(terms):
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


def ref_format(field, x):
    def poly(a):
        return ref_format_poly_y((i, field.format_elt(field.from_code(a[i])))
                                 for i in range(len(a) - 1, -1, -1) if a[i])

    num, den = x
    return poly(num) if den == (1,) else f"({poly(num)})/({poly(den)})"


# -- drawing values --------------------------------------------------------------------


def polys(field, max_len=9):
    """Trimmed code tuples, the zero polynomial included."""
    return st.lists(st.integers(0, field.q - 1), max_size=max_len).map(ref_trim)


def nonzero(field, max_len=9):
    return st.one_of(
        st.integers(1, field.q - 1).map(lambda c: (c,)),      # constants
        polys(field, max_len).filter(bool))


def fractions(field):
    """Reference-reduced (num, den) pairs; constant denominators included."""
    return st.tuples(polys(field), nonzero(field)).map(
        lambda nd: ref_reduced(field, *nd))


def by_field(strategy):
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(st.just(f), strategy(f)))


def elt(field, x):
    return RatFuncElt(RATFUNCS[field], *x)


def pair(x):
    return x.num, x.den


# -- polynomial kernels ----------------------------------------------------------------


@given(by_field(lambda f: st.tuples(polys(f), polys(f))))
def test_add_and_mul(case):
    field, (a, b) = case
    assert poly_add(field, a, b) == ref_add(field, a, b)
    assert poly_mul(field, a, b) == ref_mul(field, a, b)
    assert poly_mul(field, b, a) == ref_mul(field, a, b)


@given(by_field(lambda f: st.tuples(polys(f, 14), nonzero(f))))
def test_divmod(case):
    field, (a, b) = case
    assert poly_divmod(field, a, b) == ref_divmod(field, a, b)


@given(by_field(lambda f: st.tuples(polys(f), polys(f))))
def test_gcd(case):
    field, (a, b) = case
    assert poly_gcd(field, a, b) == ref_gcd(field, a, b)


@given(by_field(lambda f: st.tuples(polys(f), polys(f))))
def test_gcd_of_multiples(case):
    """A common factor makes the gcd nontrivial."""
    field, (a, b) = case
    g = (1, 1) if field.p == 2 else (2, 1)
    a, b = ref_mul(field, a, g), ref_mul(field, b, g)
    assert poly_gcd(field, a, b) == ref_gcd(field, a, b)


@given(by_field(polys))
def test_frobenius_and_pth_root(case):
    field, a = case
    assert poly_frobenius(field, a) == ref_frobenius(field, a)
    assert poly_pth_root(field, a) == ref_pth_root(field, a)
    frob = ref_frobenius(field, a)
    assert poly_pth_root(field, frob) == ref_pth_root(field, frob)


def test_division_by_zero():
    for field in FIELDS:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(field, (1,), ())


# -- GF(2) at the no-carry bound of the byte slots ---------------------------------


def ones(n):
    return (1,) * n


@pytest.mark.parametrize("short", [1, 2, 255, 256, 300])
@pytest.mark.parametrize("long", [255, 256, 300])
def test_gf2_product_at_the_slot_bound(short, long):
    """All-ones operands put min(len a, len b) ones in the middle slots:
    255 is the most a byte holds, 256 takes the coefficient loop."""
    a, b = ones(long), ones(short)
    assert poly_mul(GF2, a, b) == ref_mul(GF2, a, b)
    assert poly_mul(GF2, b, a) == ref_mul(GF2, a, b)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([255, 256, 300]), st.sampled_from([255, 256, 300]),
       st.randoms(use_true_random=False))
def test_gf2_long_operands(n, k, rnd):
    a = tuple(rnd.randrange(2) for _ in range(n - 1)) + (1,)
    b = tuple(rnd.randrange(2) for _ in range(k - 1)) + (1,)
    g = tuple(rnd.randrange(2) for _ in range(rnd.randrange(1, 40))) + (1,)
    assert poly_mul(GF2, a, b) == ref_mul(GF2, a, b)
    assert poly_add(GF2, a, b) == ref_add(GF2, a, b)
    ab = ref_mul(GF2, a, b)
    assert poly_divmod(GF2, ab, a) == ref_divmod(GF2, ab, a)
    assert poly_divmod(GF2, a, g) == ref_divmod(GF2, a, g)
    ag, bg = ref_mul(GF2, a, g), ref_mul(GF2, b, g)
    assert poly_gcd(GF2, ag, bg) == ref_gcd(GF2, ag, bg)


# -- RatFunc operations ------------------------------------------------------------------


@given(by_field(lambda f: st.tuples(polys(f), nonzero(f))))
def test_reduction(case):
    field, (num, den) = case
    r = RATFUNCS[field]
    x = r.from_polys([field.from_code(c) for c in num], [field.from_code(c) for c in den])
    assert pair(x) == ref_reduced(field, num, den)


@given(by_field(lambda f: st.tuples(fractions(f), fractions(f))))
def test_sum_difference_and_product(case):
    field, (x, y) = case
    ex, ey = elt(field, x), elt(field, y)
    assert pair(ex + ey) == ref_frac_add(field, x, y)
    assert pair(ex - ey) == ref_frac_add(field, x, (ref_neg(field, y[0]), y[1]))
    assert pair(ex * ey) == ref_frac_mul(field, x, y)


@given(by_field(fractions), st.integers(-3, 5))
def test_inverse_and_power(case, n):
    field, x = case
    r, ex = RATFUNCS[field], elt(field, x)
    if not x[0]:
        with pytest.raises(ZeroDivisionError):
            r.inv(ex)
        if n < 0:
            with pytest.raises(ZeroDivisionError):
                ex ** n
            return
    else:
        assert pair(r.inv(ex)) == ref_frac_inv(field, x)
    assert pair(ex ** n) == ref_frac_pow(field, x, n)


@given(by_field(fractions))
def test_frobenius_and_root(case):
    field, x = case
    r, ex = RATFUNCS[field], elt(field, x)
    assert pair(r.frobenius(ex)) == ref_frac_frobenius(field, x)
    root = r.pth_root(ex)
    assert (None if root is None else pair(root)) == ref_frac_pth_root(field, x)
    frob = ref_frac_frobenius(field, x)
    assert pair(r.pth_root(elt(field, frob))) == ref_frac_pth_root(field, frob)


@settings(deadline=None)
@given(by_field(lambda f: st.tuples(fractions(f), st.booleans())))
def test_artin_schreier_preimage(case):
    """Drawn c, and half the time c = x^p - x, which always has a preimage."""
    field, (x, solvable) = case
    c = ref_artin_schreier(field, x) if solvable else x
    got = RATFUNCS[field].artin_schreier_preimage(elt(field, c))
    want = ref_artin_schreier_preimage(field, c)
    assert (None if got is None else pair(got)) == want
    if solvable:
        assert want is not None


@given(by_field(fractions))
def test_printer(case):
    field, x = case
    assert str(elt(field, x)) == ref_format(field, x)


def test_equality_and_hash_follow_the_value():
    r = RATFUNCS[GF2]
    a = r.from_polys([GF2.one(), GF2.one()], [GF2.zero(), GF2.one()])
    b = RatFuncElt(RatFunc(GF(2)), (1, 1), (0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != r.one() and a != RatFuncElt(RATFUNCS[GF(3)], (1, 1), (0, 1))
    assert r.gen() != RatFuncElt(r, (0, 1), (1, 1))       # same numerator
    assert len({a, b, r.one()}) == 2
    assert a.__eq__(object()) is NotImplemented
