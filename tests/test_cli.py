import json
import sys

import pytest

from valuata import cli
from valuata.cli import main
from valuata.corpus import FieldSpec
from valuata.value_group import ge


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out else None), err


# -- analyze-as ------------------------------------------------------------------


def test_analyze_best_wild(capsys):
    code, report, _ = run_json(capsys, "analyze-as", "X^(-3)")
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "analyze-as"
    assert report["input"] == "X^(-3)"
    assert report["classification"]["verdict"] == "best-i"
    inv = report["invariants"]
    assert (inv["e"], inv["f_res"], inv["d"]) == (2, 1, 1)
    assert inv["type"] == "wild"
    assert inv["swan"] == "3"
    assert inv["product"] == 2
    assert report["swan_check"] == {"conductor": "3", "agree": True}


def test_analyze_improvable_has_witness(capsys):
    code, report, _ = run_json(capsys, "analyze-as", "X^(-6)")
    assert code == 0
    c = report["classification"]
    assert c["verdict"] == "not-best"
    assert c["improvement"] == "X^(-3)"
    assert report["invariants"] is None
    assert report["swan_check"] is None


def test_analyze_trivial_reports_unit_invariants(capsys):
    code, report, _ = run_json(capsys, "analyze-as", "X^(2)")
    assert code == 0
    assert report["classification"]["verdict"] == "trivial"
    assert report["invariants"]["product"] == 1


# -- normalize-as ----------------------------------------------------------------


def test_normalize_single_step(capsys):
    code, report, _ = run_json(capsys, "normalize-as", "X^(-6)")
    assert code == 0
    assert report["outcome"] == "best-found"
    assert report["steps"] == 1
    assert report["trajectory"] == ["-6", "-3"]
    assert report["f_star"] == "X^(-3)"
    assert report["swan_check"] == {"conductor": "3", "agree": True}


def test_normalize_defect_trajectory(capsys):
    code, report, _ = run_json(capsys, "normalize-as", "X^(-1)",
                               "--field", "gf2-half-powers", "--budget", "12")
    assert code == 0
    assert report["outcome"] == "defect-evidence"
    assert report["steps"] == 12
    assert len(report["trajectory"]) == 13
    assert report["trajectory"][0] == "-1"
    assert report["trajectory"][-1] == "-1/4096"
    inv = report["invariants"]
    assert (inv["e"], inv["f_res"], inv["d"]) == (1, 1, 2)
    assert inv["swan"] is None
    assert report["field"]["group"] == "int-inv-p"


# -- kummer commands -------------------------------------------------------------


def test_classify_kummer_unramified(capsys):
    code, report, _ = run_json(capsys, "classify-kummer", "5", "--p", "2")
    assert code == 0
    assert report["classification"]["verdict"] == "best-v"
    inv = report["invariants"]
    assert (inv["e"], inv["f_res"], inv["d"]) == (1, 2, 1)
    assert inv["type"] == "unramified"
    assert inv["swan"] == "0"


def test_classify_kummer_trivial(capsys):
    code, report, _ = run_json(capsys, "classify-kummer", "9", "--p", "2")
    assert code == 0
    assert report["classification"]["verdict"] == "trivial"
    assert report["invariants"]["product"] == 1


def test_normalize_kummer_chain(capsys):
    code, report, _ = run_json(capsys, "normalize-kummer", "1 + pi^2",
                               "--p", "2", "--m", "2")
    assert code == 0
    assert report["outcome"] == "best-found"
    assert report["steps"] == 1
    assert report["trajectory"] == [2, 3]
    assert report["classification"]["verdict"] == "best-iii"
    assert report["invariants"]["swan"] == "1"
    assert report["h_star"]


# -- verify-norm-ideal -----------------------------------------------------------


def test_verify_norm_ideal_passes(capsys):
    code, report, _ = run_json(capsys, "verify-norm-ideal", "X^(-3)",
                               "--count", "6", "--seed", "0")
    assert code == 0
    assert report["aggregate_pass"] is True
    assert report["count"] == 6
    assert len(report["samples"]) == 6
    assert all(s["pass"] for s in report["samples"])
    assert all(s["s"] == s["s_prime"] for s in report["samples"])
    assert report["trace_checks"] == {"count": 1, "all_pass": True}
    assert report["seed"] == 0


def test_verify_norm_ideal_reports_violation(capsys):
    # p = 3 samples can break the displacement inequality; that surfaces as
    # a failed identity, exit code 2
    code, out, err = run(capsys, "verify-norm-ideal", "X^(-1)",
                         "--field", "gf3-laurent", "--count", "4",
                         "--seed", "0")
    assert code == 2
    assert out == ""
    assert "theorem check failed" in err


def test_verify_norm_ideal_refuses_trivial_extension(capsys):
    code, out, err = run(capsys, "verify-norm-ideal", "X^(2)")
    assert code == 1
    assert "error" in err


# -- run-corpus ------------------------------------------------------------------


def test_run_corpus_green(capsys):
    code, report, _ = run_json(capsys, "run-corpus")
    assert code == 0
    assert report["aggregate_pass"] is True
    assert report["count"] == 26
    assert report["failures"] == 0


# -- report plumbing -------------------------------------------------------------


def test_json_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze-as", "X^(-3)", "--json", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text)["command"] == "analyze-as"


def test_reports_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["verify-norm-ideal", "X^(-1)", "--field",
                     "gf2-half-powers", "--count", "8", "--seed", "3",
                     "--json", str(target)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("VALUATA_SEED", "7")
    code, report, _ = run_json(capsys, "verify-norm-ideal", "X^(-3)",
                               "--count", "2")
    assert code == 0
    assert report["seed"] == 7


def test_seed_env_is_read_on_every_call(capsys, monkeypatch):
    """main() keeps one parser across calls; the --seed default still
    follows VALUATA_SEED at each call."""
    argv = ("verify-norm-ideal", "X^(-1)", "--field", "gf2-half-powers", "--count", "3")
    by_flag = {}
    for seed in ("3", "11"):
        code, out, _ = run(capsys, *argv, "--seed", seed)
        assert code == 0
        by_flag[seed] = out
    assert by_flag["3"] != by_flag["11"]
    for seed in ("3", "11"):
        monkeypatch.setenv("VALUATA_SEED", seed)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == by_flag[seed]


def test_malformed_seed_env_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("VALUATA_SEED", "abc")
    code, out, err = run(capsys, "analyze-as", "X^(-1)")
    assert code == 1
    assert out == ""
    assert err.startswith("error: VALUATA_SEED")
    # an explicit --seed needs no environment
    code, _, _ = run(capsys, "verify-norm-ideal", "X^(-3)", "--count", "2", "--seed", "5")
    assert code == 0


# -- failure modes ---------------------------------------------------------------


def test_unknown_preset_lists_choices(capsys):
    code, out, err = run(capsys, "analyze-as", "X^(-3)", "--field", "nope")
    assert code == 1
    assert "unknown field preset" in err
    assert "gf2-laurent" in err


def test_parse_error_exits_one(capsys):
    code, out, err = run(capsys, "analyze-as", "X^^")
    assert code == 1
    assert "error" in err


def test_p_residue_conflict(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze-as", "X^(-3)", "--p", "3", "--residue", "gf:2"])
    assert info.value.code == 1
    capsys.readouterr()


def test_missing_command_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    capsys.readouterr()


def test_group_choice_is_validated(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze-as", "X^(-3)", "--group", "weird"])
    assert info.value.code == 1
    capsys.readouterr()


# -- regressions -----------------------------------------------------------------


@pytest.mark.parametrize("residue", ["gf:17", "ratfunc:17"])
def test_residue_prime_above_13_is_accepted(capsys, residue):
    code, report, _ = run_json(capsys, "analyze-as", "X^(-1)", "--residue", residue)
    assert code == 0
    assert report["field"]["residue"] == residue
    assert report["classification"]["verdict"] == "best-i"
    assert report["invariants"]["product"] == 17


@pytest.mark.parametrize("command", ["analyze-as", "normalize-as"])
def test_w_names_the_base_generator_over_gf4_y(capsys, monkeypatch, command):
    """Over GF(4)(y), w is the generator of GF(4): the typed expression gives
    the report of the element built through the field API."""
    argv = [command, "w*y*X^(-2) + X^(-4)", "--residue", "ratfunc:4"]
    code, typed, err = run_json(capsys, *argv)
    assert code == 0, err
    field = FieldSpec("series", "ratfunc:4", "int").build()
    k = field.residue
    f = (field.monomial(k.from_base(k.base.gen()) * k.gen(), ge(-2))
         + field.monomial(k.one(), ge(-4)))
    monkeypatch.setattr(cli, "parse_expr", lambda text, fld: f)
    assert run_json(capsys, *argv) == (0, typed, "")


@pytest.mark.parametrize("residue", ["gf:12", "gf:1"])
def test_residue_that_is_not_a_prime_power_exits_one(capsys, residue):
    code, out, err = run(capsys, "analyze-as", "X^(-1)", "--residue", residue)
    assert code == 1
    assert not out
    assert "is not a prime power" in err


@pytest.mark.parametrize("argv", [("analyze-as", "X^(-3)"),
                                  ("classify-kummer", "5", "--p", "2")])
@pytest.mark.parametrize("precision", ["0", "-5"])
def test_nonpositive_precision_exits_one(capsys, argv, precision):
    code, out, err = run(capsys, *argv, "--precision", precision)
    assert code == 1
    assert not out
    assert "precision" in err


@pytest.mark.parametrize("residue", ["gf:49", "ratfunc:49", "gf:32"])
def test_field_size_without_a_built_in_field_names_the_sizes(capsys, residue):
    code, out, err = run(capsys, "analyze-as", "X^(-1)", "--residue", residue)
    assert code == 1
    assert not out
    assert "is not built in" in err and "q = 4, 8, 9, 16, 25, 27" in err


@pytest.mark.parametrize("extra", [(), ("--p", "2")])
def test_non_integer_field_size_exits_one(capsys, extra):
    code, out, err = run(capsys, "analyze-as", "X^(-1)", "--residue", "gf:x", *extra)
    assert code == 1
    assert not out
    assert "is not an integer" in err


@pytest.mark.parametrize("expr", ["(" * 2000 + "X" + ")" * 2000,
                                  "X + " + "-" * 2000 + "X"],
                         ids=["parentheses", "unary-minus"])
def test_deeply_nested_expression_exits_one(capsys, expr):
    code, out, err = run(capsys, "analyze-as", expr)
    assert code == 1
    assert not out
    assert "nested too deeply" in err


@pytest.mark.parametrize("flag, message", [("--p", "not prime"),
                                           ("--m", "must be positive")])
def test_kummer_zero_p_or_m_exits_one(capsys, flag, message):
    code, out, err = run(capsys, "classify-kummer", "2", flag, "0")
    assert code == 1
    assert not out
    assert message in err


@pytest.mark.parametrize("argv", [
    ("analyze-as", "X^(-3)", "--field", "gf2-laurent", "--p", "3"),
    ("analyze-as", "X^(-3)", "--p", "3"),
    ("analyze-as", "X^(-3)", "--residue", "gf:2", "--p", "1"),
    ("analyze-as", "X^(-3)", "--residue", "gf:16", "--p", "4"),
    ("verify-norm-ideal", "X^(-1)", "--field", "gf3-laurent", "--p", "2"),
])
def test_series_p_must_match_the_characteristic(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert "conflicts with the residue field" in captured.err


@pytest.mark.parametrize("argv", [
    ("analyze-as", "X^(-3)", "--residue", "gf:16", "--p", "2"),
    ("normalize-as", "X^(-1)", "--field", "gf3-laurent", "--p", "3"),
])
def test_series_p_matching_the_characteristic_is_accepted(capsys, argv):
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert report["invariants"]["product"] == int(argv[-1])


@pytest.mark.parametrize("count", ["0", "-5"])
def test_verify_norm_ideal_count_below_one_exits_one(capsys, count):
    code, out, err = run(capsys, "verify-norm-ideal", "X^(-3)", "--count", count)
    assert code == 1
    assert not out
    assert "--count" in err


@pytest.mark.parametrize("command", ["analyze-as", "normalize-as"])
def test_zero_to_a_positive_bound_is_trivial(capsys, command):
    code, report, _ = run_json(capsys, command, "X^(30) + O(X^(24))")
    assert code == 0
    c = report["classification"]
    assert c["verdict"] == "trivial"
    assert c["valuation"] is None
    assert "24" in c["note"]
    assert report["invariants"]["type"] == "trivial"
    if command == "normalize-as":
        assert report["outcome"] == "trivial"
        assert report["steps"] == 0


@pytest.mark.parametrize("command", ["analyze-as", "normalize-as"])
@pytest.mark.parametrize("expr", ["X^(5) + O(X^(0))", "X^(5) + O(X^(-2))"])
def test_zero_to_a_nonpositive_bound_still_exits_one(capsys, command, expr):
    code, out, err = run(capsys, command, expr)
    assert code == 1
    assert not out
    assert "zero to working precision" in err


def test_a_value_past_the_integer_digit_limit_exits_one(capsys):
    # the halving chain of X^(-1) over Z[1/2] reaches denominators 2**steps;
    # at the lowest digit limit Python allows, 2**2200 is past it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "normalize-as", "X^(-1)",
                             "--field", "gf2-half-powers", "--budget", "2200")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    assert not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "640-digit limit" in err
