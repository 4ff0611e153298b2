"""End-to-end acceptance run: ten criteria, one line of output each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts,
or add -s to see the summary lines.  Each criterion is independent; a failure
in one never masks another.
"""

import hashlib
import json
import random
import time

from valuata.as_extension import ASExtension
from valuata.best_f import (bestness_probe, classical_swan, classify, invariants,
                            normalize)
from valuata.cli import main
from valuata.corpus import ENTRIES, FIELD_PRESETS, FieldSpec
from valuata.dsl import parse_expr
from valuata.kummer import classify_h, kummer_bestness_probe, normalize_h
from valuata.norm_ideal import s_inequality_suite, trace_lemma_suite
from valuata.sampling import random_ext_elt
from valuata.hahn_series import agrees_to_precision
from valuata.value_group import ge

from helpers import random_cyclo_unit, random_shift_probe
from routes import norm_via_matrix


def _line(num: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} - {text}")
    assert ok, f"criterion {num:02d} {status} - {text}"


def _cli_json(tmp_path, *argv):
    target = tmp_path / "out.json"
    t0 = time.perf_counter()
    code = main([*argv, "--json", str(target)])
    elapsed = time.perf_counter() - t0
    report = json.loads(target.read_text(encoding="utf-8")) if code == 0 else None
    return code, report, elapsed


def _build(preset: str, expr: str) -> ASExtension:
    field = FIELD_PRESETS[preset].build()
    return ASExtension(field, parse_expr(expr, field))


def _as_best_instances():
    for entry in ENTRIES:
        if entry.kind != "as" or entry.expected.get("outcome") != "best-found":
            continue
        field = entry.field.build()
        yield entry, field, normalize(parse_expr(entry.expr, field), entry.budget)


def _kummer_best_instances():
    for entry in ENTRIES:
        if entry.kind != "kummer" or entry.expected.get("outcome") != "best-found":
            continue
        field = entry.field.build()
        yield entry, field, normalize_h(parse_expr(entry.expr, field), entry.budget)


def test_criterion_01_wild_cubic_pole_analysis(tmp_path):
    code, report, elapsed = _cli_json(tmp_path, "analyze-as", "X^(-3)")
    inv = (report or {}).get("invariants") or {}
    ok = (code == 0 and inv.get("type") == "wild" and inv.get("e") == 2
          and inv.get("f_res") == 1 and inv.get("d") == 1
          and inv.get("swan") == "3" and elapsed < 1.0)
    _line(1, ok, f"analyze-as X^(-3): type={inv.get('type')} e={inv.get('e')} "
                 f"f_res={inv.get('f_res')} d={inv.get('d')} "
                 f"swan={inv.get('swan')} in {elapsed:.3f}s")


def test_criterion_02_single_step_normalization(tmp_path):
    code, report, elapsed = _cli_json(tmp_path, "normalize-as", "X^(-6)")
    report = report or {}
    field = FIELD_PRESETS["gf2-laurent"].build()
    swan_from_input = invariants(
        normalize(parse_expr("X^(-6)", field))).swan
    swan_from_star = invariants(
        normalize(parse_expr("X^(-3)", field))).swan
    ok = (code == 0 and report.get("steps") == 1
          and report.get("f_star") == "X^(-3)"
          and report.get("trajectory") == ["-6", "-3"]
          and swan_from_input == ge(3) and swan_from_star == ge(3)
          and (report.get("swan_check") or {}).get("agree") is True
          and elapsed < 1.0)
    _line(2, ok, f"normalize-as X^(-6): steps={report.get('steps')} "
                 f"f*={report.get('f_star')} swan(input ext)={swan_from_input} "
                 f"swan(f* ext)={swan_from_star} in {elapsed:.3f}s")


def test_criterion_03_defect_evidence_trajectory(tmp_path):
    code, report, elapsed = _cli_json(
        tmp_path, "normalize-as", "X^(-1)",
        "--field", "gf2-half-powers", "--budget", "12")
    report = report or {}
    expected = [f"-1/{2 ** k}" if k else "-1" for k in range(13)]
    inv = report.get("invariants") or {}
    ok = (code == 0 and report.get("outcome") == "defect-evidence"
          and report.get("trajectory") == expected
          and inv.get("d") == 2 and inv.get("e") == 1 and inv.get("f_res") == 1
          and elapsed < 1.0)
    _line(3, ok, f"normalize-as X^(-1) over half powers, budget 12: "
                 f"outcome={report.get('outcome')} "
                 f"trajectory length {len(report.get('trajectory') or [])}, "
                 f"d={inv.get('d')} in {elapsed:.3f}s")


def test_criterion_04_conductor_equals_norm_on_corpus():
    count = 0
    for entry, field, outcome in _as_best_instances():
        classical_swan(outcome.f_star)
        count += 1
    ok = count >= 10
    _line(4, ok, f"v(N(1/alpha)) = -v(f*) on {count} normalized corpus "
                 f"instances (need >= 10)")


def test_criterion_05_trace_identities_at_sample_scale():
    t0 = time.perf_counter()
    results = []
    for preset, expr in (("gf2-laurent", "X^(-3)"), ("gf3-laurent", "X^(-1)")):
        ext = _build(preset, expr)
        rng = random.Random(50)
        results.extend(trace_lemma_suite(ext, rng, 50))
    elapsed = time.perf_counter() - t0
    failures = [r for r in results if not r.passed]
    ok = len(results) == 100 and not failures and elapsed < 30.0
    _line(5, ok, f"trace identities on {len(results)} random generators "
                 f"(p=2 and p=3), {len(failures)} failures in {elapsed:.1f}s")


def test_criterion_06_displacement_inequality_three_families():
    t0 = time.perf_counter()
    reports = []
    for preset, expr in (("gf2-laurent", "X^(-3)"),
                         ("gf2-half-powers", "X^(-1)"),
                         ("gf2-lex2", "X^((-1, 0))")):
        ext = _build(preset, expr)
        rng = random.Random(60)
        reports.extend(s_inequality_suite(ext, rng, 34))
    elapsed = time.perf_counter() - t0
    failures = [r for r in reports if not r.holds]
    ok = len(reports) >= 100 and not failures and elapsed < 60.0
    _line(6, ok, f"s >= s' on {len(reports)} samples across defectless, "
                 f"defect and rank-2 defect families, {len(failures)} "
                 f"failures in {elapsed:.1f}s")


def test_criterion_07_bestness_probes_find_no_improvement():
    rng = random.Random(70)
    checked = 0
    violations = 0
    for entry, field, outcome in _as_best_instances():
        probes = [random_shift_probe(field, rng) for _ in range(200)]
        violations += len(bestness_probe(outcome.f_star, probes))
        checked += 1
    for entry, field, outcome in _kummer_best_instances():
        probes = [random_cyclo_unit(field, rng) for _ in range(200)]
        violations += len(kummer_bestness_probe(outcome.f_star, probes))
        checked += 1
    ok = checked >= 10 and violations == 0
    _line(7, ok, f"200 probes against each of {checked} normalized "
                 f"generators: {violations} violations")


def test_criterion_08_kummer_coverage_and_product():
    from valuata.corpus import run_corpus
    body = run_corpus()
    kummer_rows = [(e, r) for e, r in zip(ENTRIES, body["entries"])
                   if e.kind == "kummer"]
    verdicts = {r["got"].get("verdict") for _, r in kummer_rows}
    coverage = {"best-i", "best-ii", "best-iii", "best-iv",
                "best-v"} <= verdicts
    chain = next(r["got"] for e, r in kummer_rows
                 if e.name == "kummer-ramified-chain")
    chain_ok = (chain["outcome"] == "best-found" and chain["steps"] == 1
                and chain["trajectory"] == [2, 3])
    classified = all(r["pass"] for _, r in kummer_rows)
    product_ok = True
    for e, r in kummer_rows:
        inv = r["got"].get("invariants")
        if inv is None:
            continue
        want = 1 if r["got"].get("outcome") == "trivial" else e.field.p
        product_ok = product_ok and (
            inv["e"] * inv["f_res"] * inv["d"] == want)
    ok = coverage and chain_ok and classified and product_ok
    _line(8, ok, f"kummer corpus: shapes {sorted(v for v in verdicts if v)} "
                 f"with improvement chain steps={chain['steps']}, "
                 f"product identity {'holds' if product_ok else 'fails'}")


def test_criterion_09_norm_routes_agree_on_random_elements():
    rng = random.Random(90)
    families = (("gf2-laurent", "X^(-3)"), ("gf3-laurent", "X^(-1)"),
                ("gf4-laurent", "w*X^(-1)"), ("gf2y-laurent", "y*X^(-2)"),
                ("gf2-half-powers", "X^(-1)"), ("gf2-lex2", "X^((-1, 0))"))
    total = 0
    mismatches = 0
    for preset, expr in families:
        ext = _build(preset, expr)
        for _ in range(100):
            x = random_ext_elt(ext, rng, -2, 2)
            if not agrees_to_precision(x.norm(), norm_via_matrix(x)):
                mismatches += 1
            total += 1
    ok = total == 600 and mismatches == 0
    _line(9, ok, f"conjugate-product norm vs matrix determinant on {total} "
                 f"random elements over 6 families: {mismatches} mismatches")


def test_criterion_10_triviality_gates():
    field = FIELD_PRESETS["gf2-laurent"].build()
    positive = classify(parse_expr("X^(2)", field)).verdict.value
    gf4 = FIELD_PRESETS["gf4-laurent"].build()
    split = normalize(parse_expr("1 + X", gf4)).kind.value
    q2 = FieldSpec("cyclo", p=2, m=1, precision=48).build()
    nine = classify_h(parse_expr("9", q2)).verdict.value
    ok = positive == "trivial" and split == "trivial" and nine == "trivial"
    _line(10, ok, f"gates: v(f)>0 -> {positive}, residue in the "
                  f"Artin-Schreier image -> {split}, h=9 over the 2-adics "
                  f"-> {nine}")


def test_criterion_11_ferocious_family_verifies_fast(tmp_path):
    code, report, elapsed = _cli_json(tmp_path, "verify-norm-ideal", "y*X^(-2)",
                                      "--field", "gf2y-laurent", "--count", "25")
    digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
    samples = (report or {}).get("samples") or []
    equal = sum(s["s"] == s["s_prime"] for s in samples)
    ok = (code == 0 and len(samples) == 25 and equal == 25 and elapsed < 20.0
          and digest == "9716bba03c415dc012df51132f82b1a6de18915acd5974461f180c789e33d228")
    _line(11, ok, f"verify-norm-ideal y*X^(-2) over GF(2)(y), 25 samples: "
                  f"s = s' on {equal}, report sha256 {digest[:12]} in {elapsed:.2f}s")
