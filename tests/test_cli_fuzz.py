"""Fuzzing the DSL and the CLI: any expression text and any flag values give
a report or a clean exit with a message, never a traceback.

Expressions are mostly sums of well-formed terms for the command's engine,
otherwise token soup: the DSL's own tokens mixed with arbitrary non-digit
text.  Flag values are mostly sensible, otherwise arbitrary text.  Integers
stay single digits, separated by spaces: ``^`` takes about 2*log2(n)
products, but the exact result of a power can still have a number of terms
that grows with n, such as (1 + X)^n over GF(3) with the product of d + 1
over the base-3 digits d of n, and nothing yet bounds that work.

One property spans two commands: on well-formed generators over the field
presets, verify-norm-ideal refuses exactly those whose normalize-as run ends
trivial.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from valuata.cli import main
from valuata.corpus import FIELD_PRESETS
from valuata.dsl import parse_expr
from valuata.errors import ValuataError

TOKENS = ["X", "X^", "^", "(", ")", ",", "-", "+", "*", "/", "O", "y", "w", "pi",
          "z", "0", "1", "2", "3", "9", "1/2", "-1/3", "(-1, 0)", "(0, -1/2)"]
JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=3)
SOUP = st.lists(st.sampled_from(TOKENS) | JUNK, max_size=10).map(" ".join)
EXPONENTS = st.sampled_from(["-3", "-2", "-1", "-1/2", "-2/3", "0", "1", "1/3",
                             "(-1, 0)", "(0, -1)", "(-1/2, 2)"])
SERIES_TERMS = st.builds("{}*X^({})".format,
                         st.sampled_from(["1", "1", "2", "y", "w", "(1 + y)"]), EXPONENTS)
SERIES = st.builds("{}{}".format,
                   st.lists(SERIES_TERMS, min_size=1, max_size=3).map(" + ".join),
                   st.just("") | EXPONENTS.map(" + O(X^({}))".format))
KUMMER_TERMS = st.builds("{}*pi^{}".format,
                         st.sampled_from(["1", "2", "z", "y", "(1 + z)"]), st.integers(0, 4))
KUMMER = st.lists(KUMMER_TERMS, min_size=1, max_size=3).map(" + ".join).map("1 + {}".format)


@st.composite
def mostly(draw, usual, other=JUNK):
    """A draw from usual three times in four, else from other."""
    return draw(usual if draw(st.integers(0, 3)) else other)


def values(*choices):
    return mostly(st.sampled_from(choices))


SERIES_FLAGS = {
    "--field": values(*FIELD_PRESETS),
    "--residue": values("gf:2", "gf:3", "gf:4", "ratfunc:2", "ratfunc:4", "gf:6", "gf:1"),
    "--group": values("int", "int-inv-p", "rat", "lex2"),
    "--p": values("2", "3", "0", "-2"),
    "--precision": values("-1", "0", "1", "4", "24"),
    "--seed": values("0", "7", "-1"),
}
KUMMER_FLAGS = {
    "--p": values("2", "3", "0", "4"),
    "--m": values("1", "2", "0"),
    "--precision": values("-1", "0", "8", "24"),
    "--seed": values("0", "7"),
}
COMMANDS = {
    "analyze-as": SERIES_FLAGS,
    "normalize-as": {**SERIES_FLAGS, "--budget": values("-1", "0", "3", "16")},
    "verify-norm-ideal": {**SERIES_FLAGS, "--count": values("1", "2", "0")},
    "classify-kummer": KUMMER_FLAGS,
    "normalize-kummer": {**KUMMER_FLAGS, "--budget": values("-1", "0", "4")},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    kummer = command.endswith("kummer")
    argv = [command, draw(mostly(KUMMER if kummer else SERIES, SOUP))]
    flags = COMMANDS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True))
    if command == "verify-norm-ideal" and "--count" not in chosen:
        chosen.append("--count")       # the default of 25 samples is slow
    for flag in chosen:
        argv += [flag, draw(flags[flag])]
    if kummer and draw(st.booleans()):
        argv.append("--with-y")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_gives_a_report_or_a_message(argv):
    code, out, err = run(argv)
    if out.startswith("usage:"):       # an expression that reads as -h
        assert code == 0
        return
    assert code in (0, 1, 2), (argv, code, err)
    if out:
        assert json.loads(out)["command"] == argv[0]
        assert code in (0, 2)
    else:
        # exit 1, or 2 when a theorem check fails before the report
        assert code in (1, 2) and err.strip(), argv


PRESET_EXPONENTS = {"int": ["-4", "-3", "-2", "-1", "0", "1"],
                    "int-inv-p": ["-2", "-1", "-1/2", "-1/4", "0", "1/2"],
                    "rat": ["-1", "-2/3", "-1/2", "-1/3", "0", "1/3"],
                    "lex2": ["(-1, 0)", "(-2, 0)", "(0, -1)", "(-1/2, 2)", "(0, 0)"]}
PRESET_COEFFS = {"gf:3": ["1", "2"], "gf:4": ["1", "w", "(1 + w)"],
                 "ratfunc:2": ["1", "y", "(1 + y)"], "ratfunc:3": ["1", "2", "y"]}


@st.composite
def series_requests(draw):
    """A generator over a named preset, in its own exponents and
    coefficients, with an optional bound and precision."""
    preset = draw(st.sampled_from(sorted(FIELD_PRESETS)))
    spec = FIELD_PRESETS[preset]
    exps = st.sampled_from(PRESET_EXPONENTS[spec.group])
    coeffs = st.sampled_from(PRESET_COEFFS.get(spec.residue, ["1"]))
    terms = draw(st.lists(st.tuples(coeffs, exps), min_size=1, max_size=3))
    expr = " + ".join(f"{c}*X^({e})" for c, e in terms)
    if draw(st.booleans()):
        expr += f" + O(X^({draw(exps)}))"
    request = [expr, "--field", preset]
    if draw(st.booleans()):
        request += ["--precision", draw(st.sampled_from(["2", "6"]))]
    return request


@settings(max_examples=120, deadline=None)
@given(series_requests())
def test_verify_norm_ideal_runs_only_where_normalize_does_not_split(request):
    """verify-norm-ideal refuses a generator exactly when normalize-as, with
    the extension's budget, ends trivial."""
    code, _, err = run(["verify-norm-ideal", *request, "--count", "1"])
    normalized, out, _ = run(["normalize-as", *request, "--budget", "32"])
    trivial = normalized == 0 and json.loads(out)["outcome"] == "trivial"
    if code == 0:
        assert normalized == 0 and not trivial, request
    if trivial:
        assert code == 1 and "splits over the base" in err, request


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELD_PRESETS)), mostly(SERIES, SOUP))
def test_parse_expr_returns_a_value_or_a_library_error(preset, text):
    """A value, or one of the errors the CLI turns into exit 1."""
    field = FIELD_PRESETS[preset].build()
    try:
        value = parse_expr(text, field)
    except (ValuataError, ZeroDivisionError) as exc:
        assert str(exc)
    else:
        assert value.field == field
