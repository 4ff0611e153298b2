import pytest
from hypothesis import given
from hypothesis import strategies as st

from valuata.errors import UsageError
from valuata.residue_field import DEFAULT_MODULI, GF, RatFunc

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F9 = GF(3, 2)
R2 = RatFunc(GF(2))
R3 = RatFunc(GF(3))


def gf_elts(field):
    return st.builds(field.elt,
                     st.lists(st.integers(0, field.p - 1),
                              min_size=field.m, max_size=field.m))


def test_prime_field_arithmetic():
    two = F3.from_int(2)
    assert str(two + two) == "1"
    assert str(two * two) == "1"
    assert str(-two) == "1"
    assert str(F3.inv(two)) == "2"


def test_gf4_multiplication_table():
    w = F4.gen()
    one = F4.one()
    # the generator satisfies w^2 = w + 1
    assert w * w == w + one
    assert w * (w + one) == one
    assert F4.inv(w) == w + one


def test_gf9_frobenius_fixes_prime_field():
    for n in range(3):
        c = F9.from_int(n)
        assert F9.frobenius(c) == c
    g = F9.gen()
    assert F9.frobenius(g) != g
    assert F9.frobenius(F9.frobenius(g)) == g


def test_pth_root_exists_everywhere_in_gf():
    # finite fields are perfect: frobenius is onto
    for field in (F2, F3, F4, F9):
        for a in field.elements():
            r = field.pth_root(a)
            assert r is not None
            assert field.frobenius(r) == a


def test_artin_schreier_image_of_prime_field_is_zero():
    # x**p - x vanishes identically on GF(p)
    assert F2.artin_schreier_preimage(F2.one()) is None
    assert F3.artin_schreier_preimage(F3.from_int(1)) is None
    assert F3.artin_schreier_preimage(F3.from_int(2)) is None
    assert F2.artin_schreier_preimage(F2.zero()) is not None


def test_artin_schreier_preimage_in_gf4():
    w = F4.gen()
    one = F4.one()
    # w^2 + w = 1, so 1 has preimage w and w itself has none
    pre = F4.artin_schreier_preimage(one)
    assert pre is not None
    assert F4.frobenius(pre) - pre == one
    assert F4.artin_schreier_preimage(w) is None


def test_nonprime_modulus_rejected():
    with pytest.raises(UsageError):
        GF(4)


@pytest.mark.parametrize("p, m", [(7, 2), (2, 5), (3, 4)])
def test_extension_without_a_built_in_modulus_names_the_sizes(p, m):
    with pytest.raises(UsageError, match=rf"GF\({p ** m}\) is not built in.* "
                                         r"q = 4, 8, 9, 16, 25, 27$"):
        GF(p, m)


def test_elements_of_different_fields_differ_and_do_not_combine():
    assert GF(2).one() != GF(2, 2).one()
    with pytest.raises(UsageError, match="different residue fields"):
        GF(2).one() + GF(2, 2).one()


# -- the code arithmetic against a schoolbook reference ----------------------------


def _digits(field, a):
    return [a // field.p ** i % field.p for i in range(field.m)]


def _code(field, digits):
    return sum(c % field.p * field.p ** i for i, c in enumerate(digits))


def _schoolbook_mul(field, a, b):
    """a*b: the digit vectors convolved, then long division by the modulus."""
    p, m = field.p, field.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_digits(field, a)):
        for j, y in enumerate(_digits(field, b)):
            prod[i + j] += x * y
    if m > 1:
        modulus = DEFAULT_MODULI[field.q]
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top] % p
            for j in range(m + 1):
                prod[top - m + j] -= c * modulus[j]
    assert not any(c % p for c in prod[m:])
    return _code(field, prod[:m])


def _schoolbook_pow(field, a, e):
    out = 1
    for _ in range(e):
        out = _schoolbook_mul(field, out, a)
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7)]
                         + [GF(p, m) for p, m in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3))],
                         ids=lambda k: k.kind)
def test_ring_agrees_with_schoolbook_arithmetic_on_every_code(field):
    ring, p, q = field.ring, field.p, field.q
    assert (ring.prime, ring.one) == (p if field.m == 1 else 0, 1)
    for a in range(q):
        da = _digits(field, a)
        assert ring.neg(a) == _code(field, [-c for c in da])
        for b in range(q):
            db = _digits(field, b)
            assert ring.add(a, b) == _code(field, [x + y for x, y in zip(da, db)])
            assert ring.mul(a, b) == _schoolbook_mul(field, a, b)
        assert ring.frob(a) == _schoolbook_pow(field, a, p)
        assert _schoolbook_pow(field, ring.root(a), p) == a
        if a:
            assert _schoolbook_mul(field, a, ring.inv(a)) == 1
        assert ring.pack(ring.unpack(a)) == a
    assert [ring.from_int(n) for n in range(-p, p)] == [n % p for n in range(-p, p)]


def test_ratfunc_arithmetic_reduces():
    y = R2.gen()
    one = R2.one()
    a = (y + one) * y
    b = y
    q = a * R2.inv(b)
    assert q == y + one
    assert str(q) == "y + 1"


def test_ratfunc_pth_root_detects_imperfection():
    y = R2.gen()
    assert R2.pth_root(y) is None
    assert R2.pth_root(y * y) == y
    sq = (y + R2.one()) ** 2
    assert R2.pth_root(sq) == y + R2.one()


def test_ratfunc_pth_root_of_fraction():
    y = R3.gen()
    a = (y ** 3) * R3.inv((y + R3.one()) ** 3)
    root = R3.pth_root(a)
    assert root is not None
    assert root ** 3 == a


def test_ratfunc_artin_schreier_preimage():
    y = R2.gen()
    # x = y solves x^2 - x = y^2 + y
    c = y * y + y
    x = R2.artin_schreier_preimage(c)
    assert x is not None
    assert R2.frobenius(x) - x == c
    # y itself is not in the image
    assert R2.artin_schreier_preimage(y) is None


def test_ratfunc_artin_schreier_preimage_p3():
    y = R3.gen()
    c = R3.frobenius(y) - y
    x = R3.artin_schreier_preimage(c)
    assert x is not None
    assert R3.frobenius(x) - x == c


@given(gf_elts(F9), gf_elts(F9))
def test_gf_frobenius_is_additive(a, b):
    assert F9.frobenius(a + b) == F9.frobenius(a) + F9.frobenius(b)


@given(gf_elts(F4), gf_elts(F4), gf_elts(F4))
def test_gf_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gf_elts(F9))
def test_gf_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            F9.inv(a)
    else:
        assert F9.inv(a) * a == F9.one()
