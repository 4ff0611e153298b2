"""The lean cyclotomic ring against the frozen-dataclass ring it replaced.

``tests/routes.py`` keeps the earlier CycloField, CycloBase and CycloElt
(``RefCycloField`` and the rest).  Hypothesis draws p = 2, 3, 5 and 7,
m = 1 and 2, fields with and without y, random precisions, shifts and
element programs, and runs every program on both rings side by side.  Each
result must be ``==``-equal, layout and precision included, or both must
raise the same error with the same message.  Two results are compared
through their layout: shift, coefficient vector and nprec of every
coefficient of num and den.

One deliberate difference: the lean ``invert`` returns the layout a product
gives, so it is held to ``one * x.invert()`` of the reference, which is the
same value.  Powers are taken of products, as power now starts from its
first factor (x**1 is x itself) and the reference started from one * x.  ``classify_h`` and ``normalize_h`` are duck-typed, so they run
on reference elements too; their witnesses are compared layout for layout.
The last part checks that a FieldSpec builds one field per parameter set.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.corpus import FieldSpec
from valuata.kummer import CycloBase, CycloElt, CycloField, classify_h, normalize_h

from routes import RefCycloBase, RefCycloElt, RefCycloField


def lay_base(b):
    return (b.shift, b.coeffs, b.nprec)


def lay(x):
    """The layout of an element, of a base element, or of anything else
    (residues, integers, None), which is compared as it is."""
    if isinstance(x, (CycloElt, RefCycloElt)):
        return (tuple(map(lay_base, x.num)), tuple(map(lay_base, x.den)))
    if isinstance(x, (CycloBase, RefCycloBase)):
        return lay_base(x)
    return x


def outcome(fn, *args):
    try:
        return "value", lay(fn(*args))
    except Exception as exc:        # noqa: BLE001 - compared, not swallowed
        return "raised", type(exc), str(exc)


def both(fn, new, ref):
    """fn on the pair; the two outcomes must agree."""
    got, want = outcome(fn, new), outcome(fn, ref)
    assert got == want, (new, ref)
    return got


fields = st.tuples(st.sampled_from([2, 3, 5, 7]), st.sampled_from([1, 2]),
                   st.booleans(), st.integers(2, 12))

# an element program: atoms, then operations on the stack of built elements
ATOMS = ("int", "pi", "z", "y", "lift")
OPS = ("add", "sub", "mul", "neg", "invert", "shift", "pow")


@st.composite
def programs(draw):
    steps = [("atom", draw(st.sampled_from(ATOMS)), draw(st.integers(-40, 40)))
             for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 7))):
        op = draw(st.sampled_from(OPS))
        steps.append((op, draw(st.integers(0, 99)), draw(st.integers(0, 99)),
                      draw(st.integers(-12, 12))))
    return steps


def atom(field, kind, k):
    if kind == "int":
        return field.from_int(k)
    if kind == "pi":
        return field.pi(k % 15 - 4)
    if kind == "z":
        return field.z()
    if kind == "y" and field.with_y:
        return field.y_gen()
    residue = field.residue
    if field.with_y:
        y = residue.gen()
        return field.lift_residue((y + residue.from_int(k)) * residue.inv(y) if k % 3
                                  else y * y + residue.from_int(k))
    return field.lift_residue(residue.from_int(k))


def apply(op, x, y, t):
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "neg":
        return -x
    if op == "invert":
        inv = x.invert()
        # the reference's inverse in the layout a product gives
        return inv if isinstance(x.field, CycloField) else x.field.one() * inv
    if op == "shift":
        return x.shift_pi(t)
    # powers of a product: power takes its first factor as it is, and only
    # a product or an inverse is sure to have a product's layout
    return (x.field.one() * x).pow(t % 5 - 1)


def run_program(field, steps):
    """Every intermediate outcome of the program on one ring."""
    stack, seen = [], []
    for step in steps:
        if step[0] == "atom":
            stack.append(atom(field, step[1], step[2]))
            continue
        op, i, j, t = step
        x, y = stack[i % len(stack)], stack[j % len(stack)]
        try:
            stack.append(apply(op, x, y, t))
            seen.append(("value", lay(stack[-1])))
        except Exception as exc:     # noqa: BLE001 - compared, not swallowed
            seen.append(("raised", type(exc), str(exc)))
    return stack, seen


def pair_fields(p, m, with_y, nprec):
    return CycloField(p, m, with_y, nprec), RefCycloField(p, m, with_y, nprec)


@settings(max_examples=400, deadline=None)
@given(fields, programs())
def test_element_arithmetic_matches_reference(spec, steps):
    new_field, ref_field = pair_fields(*spec)
    new_stack, new_seen = run_program(new_field, steps)
    ref_stack, ref_seen = run_program(ref_field, steps)
    assert new_seen == ref_seen
    assert list(map(lay, new_stack)) == list(map(lay, ref_stack))
    for new, ref in zip(new_stack, ref_stack):
        both(lambda x: x.valuation(), new, ref)
        for threshold in (-3, 0, new_field.threshold):
            both(lambda x: x.valuation_is_above(threshold), new, ref)
        both(lambda x: x.residue_class(), new, ref)
        for t in (-5, 3):
            both(lambda x: x.shift_pi(t), new, ref)


def classification_layout(c):
    return {name: lay(value) for name, value in vars(c).items()}


@settings(max_examples=250, deadline=None)
@given(fields, programs(), st.integers(0, 6))
def test_classify_and_normalize_match_reference(spec, steps, budget):
    new_field, ref_field = pair_fields(*spec)
    new, ref = run_program(new_field, steps)[0][-1], run_program(ref_field, steps)[0][-1]
    got = both(lambda h: classification_layout(classify_h(h)), new, ref)
    if got[0] == "value":
        new_out, ref_out = outcome(normalize_h, new, budget), outcome(normalize_h, ref, budget)
        if new_out[0] == "raised" or ref_out[0] == "raised":
            assert new_out == ref_out
        else:
            new_o, ref_o = normalize_h(new, budget), normalize_h(ref, budget)
            assert (new_o.kind, new_o.steps, new_o.trajectory, lay(new_o.f_star)) == \
                (ref_o.kind, ref_o.steps, ref_o.trajectory, lay(ref_o.f_star))
            assert classification_layout(new_o.classification) == \
                classification_layout(ref_o.classification)


@st.composite
def base_pairs(draw):
    p, m, with_y, nprec = draw(fields)
    new_field, ref_field = pair_fields(p, m, with_y, nprec)
    D = new_field.degree
    out = []
    for _ in range(2):
        shift = draw(st.integers(-2 * D - 3, 2 * D + 3))
        n = draw(st.integers(1, nprec))
        coeffs = tuple(draw(st.integers(0, p ** n - 1)) for _ in range(D))
        if draw(st.booleans()):
            coeffs = tuple(c * p ** draw(st.integers(0, 2)) % p ** n for c in coeffs)
        out.append((CycloBase(new_field, shift, coeffs, n),
                    RefCycloBase(ref_field, shift, coeffs, n)))
    return out


@settings(max_examples=400, deadline=None)
@given(base_pairs(), st.integers(-6, 6))
def test_base_arithmetic_matches_reference(pairs, t):
    (a, ra), (b, rb) = pairs
    for fn in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        assert outcome(fn, a, b) == outcome(fn, ra, rb)
    for x, rx in pairs:
        both(lambda u: -u, x, rx)
        both(lambda u: u.invert(), x, rx)
        both(lambda u: u.valuation(), x, rx)
        both(lambda u: u.div_pi(t), x, rx)
        both(lambda u: u.residue_at(u.shift + t), x, rx)
        both(lambda u: u.bound, x, rx)


def test_inverse_is_laid_out_as_a_product():
    """1 * x.invert() == x.invert() also where the inverse of an element of
    negative valuation has a positive shift, which the reference keeps."""
    for p, m in ((2, 1), (3, 1), (2, 2)):
        field = CycloField(p, m, nprec=12)
        ref = RefCycloField(p, m, nprec=12)
        for k in (-3, -1, 0, 2):
            inv = field.pi(k).invert()
            assert field.one() * inv == inv
            assert lay(inv) == lay(ref.one() * ref.pi(k).invert())
            assert (lay(inv) == lay(ref.pi(k).invert())) is (k >= 0)


# -- one field per parameter set ----------------------------------------------------

SPECS = [FieldSpec("cyclo", p=3, m=2, with_y=True, precision=36),
         FieldSpec("series", "gf:4", "int", precision=24),
         FieldSpec("series", "ratfunc:2", "rat", precision=12)]


@pytest.mark.parametrize("spec", SPECS)
def test_equal_specs_build_one_field(spec):
    again = FieldSpec(**vars(spec))
    assert again == spec and again is not spec
    assert again.build() is spec.build()


def test_unequal_specs_build_distinct_fields():
    built = [spec.build() for spec in SPECS]
    built += [FieldSpec("cyclo", p=3, m=2, with_y=True, precision=48).build(),
              FieldSpec("series", "gf:4", "int", precision=48).build()]
    assert len({id(f) for f in built}) == len(built)
    assert built[0] != built[3] and built[1] != built[4]
