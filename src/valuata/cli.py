"""Command-line front end.

Six commands over the two engines:

    analyze-as EXPR        classify an equal-characteristic generator
    normalize-as EXPR      run the improvement loop to a best shape
    classify-kummer EXPR   classify a p-adic Kummer generator
    normalize-kummer EXPR  run the p-adic improvement loop
    verify-norm-ideal EXPR build L from EXPR and check the displacement
                           inequality and trace identities on random samples
    run-corpus             execute the built-in corpus against expectations

Reports are deterministic JSON (schema 1, sorted keys, LF endings): the same
request with the same seed is byte-identical.  Exit codes: 0 success, 1 for
usage or precision problems, 2 when a checked mathematical identity fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .as_extension import ASExtension
from .best_f import (NormalizeOutcome, OutcomeKind, classical_swan, classify,
                     invariants, normalize)
from .corpus import FIELD_PRESETS, FieldSpec, run_corpus
from .dsl import parse_expr
from .errors import MathAssertError, UsageError, ValuataError
from .hahn_series import format_series
from .kummer import (KummerOutcome, classify_h, format_cyclo,
                     kummer_invariants, normalize_h)
from .norm_ideal import s_inequality_suite, trace_lemma_suite


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for failed math asserts
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _series_spec(args) -> FieldSpec:
    if args.field:
        if args.field not in FIELD_PRESETS:
            known = ", ".join(sorted(FIELD_PRESETS))
            raise UsageError(f"unknown field preset {args.field!r}; known: {known}")
        spec = FIELD_PRESETS[args.field]
        residue = args.residue or spec.residue
        group = args.group or spec.group
    else:
        residue = args.residue or "gf:2"
        group = args.group or "int"
    precision = 24 if args.precision is None else args.precision
    return FieldSpec("series", residue, group, precision=precision)


def _cyclo_spec(args) -> FieldSpec:
    return FieldSpec("cyclo", p=args.p or 2, m=args.m or 1,
                     with_y=bool(args.with_y),
                     precision=48 if args.precision is None else args.precision)


def _invariants_dict(inv) -> dict:
    return {"e": inv.e, "f_res": inv.f_res, "d": inv.d, "type": inv.type,
            "swan": None if inv.swan is None else str(inv.swan),
            "product": inv.product()}


def _maybe(value, fmt=str):
    return None if value is None else fmt(value)


def _as_classification_dict(c) -> dict:
    return {
        "verdict": c.verdict.value,
        "valuation": _maybe(c.valuation),
        "unit_residue": _maybe(c.unit_residue),
        "residue": _maybe(c.residue),
        "improvement": _maybe(c.improvement_h, format_series),
        "note": c.note,
    }


def _kummer_classification_dict(c) -> dict:
    return {
        "verdict": c.verdict.value,
        "valuation": c.valuation,
        "w_valuation": c.w_valuation,
        "unit_residue": _maybe(c.unit_residue),
        "c_residue": _maybe(c.c_residue),
        "s_exponent": c.s_exponent,
        "improvement_g": _maybe(c.g, format_cyclo),
        "improvement_i": c.i if c.g is not None else None,
        "note": c.note,
    }


def cmd_analyze_as(args) -> dict:
    spec = _series_spec(args)
    field = spec.build()
    f = parse_expr(args.expr, field)
    c = classify(f)
    report = {"classification": _as_classification_dict(c),
              "invariants": None, "swan_check": None}
    if c.is_best:
        outcome = NormalizeOutcome(OutcomeKind.BEST_FOUND, f, c, 0, 0,
                                   (f.valuation(),))
        report["invariants"] = _invariants_dict(invariants(outcome))
        swan = classical_swan(f)
        report["swan_check"] = {"conductor": str(swan), "agree": True}
    elif c.verdict.value == "trivial":
        outcome = NormalizeOutcome(OutcomeKind.TRIVIAL, None, c, 0, 0, ())
        report["invariants"] = _invariants_dict(invariants(outcome))
    return _wrap(report, "analyze-as", spec, args.expr)


def cmd_normalize_as(args) -> dict:
    spec = _series_spec(args)
    field = spec.build()
    f = parse_expr(args.expr, field)
    outcome = normalize(f, args.budget)
    inv = invariants(outcome)
    report = {
        "outcome": outcome.kind.value,
        "steps": outcome.steps,
        "budget": outcome.budget,
        "trajectory": [str(v) for v in outcome.trajectory],
        "invariants": _invariants_dict(inv),
        "f_star": _maybe(outcome.f_star, format_series),
        "classification": None if outcome.classification is None
        else _as_classification_dict(outcome.classification),
        "swan_check": None,
    }
    if outcome.kind is OutcomeKind.BEST_FOUND:
        swan = classical_swan(outcome.f_star)
        report["swan_check"] = {"conductor": str(swan), "agree": True}
    return _wrap(report, "normalize-as", spec, args.expr)


def cmd_classify_kummer(args) -> dict:
    spec = _cyclo_spec(args)
    field = spec.build()
    h = parse_expr(args.expr, field)
    c = classify_h(h)
    report = {"classification": _kummer_classification_dict(c),
              "invariants": None}
    if c.is_best:
        outcome = KummerOutcome(OutcomeKind.BEST_FOUND, c.h, c, 0, 0, ())
        report["invariants"] = _invariants_dict(kummer_invariants(outcome))
    elif c.verdict.value == "trivial":
        outcome = KummerOutcome(OutcomeKind.TRIVIAL, None, c, 0, 0, ())
        report["invariants"] = _invariants_dict(kummer_invariants(outcome))
    return _wrap(report, "classify-kummer", spec, args.expr)


def cmd_normalize_kummer(args) -> dict:
    spec = _cyclo_spec(args)
    field = spec.build()
    h = parse_expr(args.expr, field)
    outcome = normalize_h(h, args.budget)
    report = {
        "outcome": outcome.kind.value,
        "steps": outcome.steps,
        "budget": outcome.budget,
        "trajectory": list(outcome.trajectory),
        "invariants": _invariants_dict(kummer_invariants(outcome)),
        "h_star": _maybe(outcome.h_star, format_cyclo),
        "classification": None if outcome.classification is None
        else _kummer_classification_dict(outcome.classification),
    }
    return _wrap(report, "normalize-kummer", spec, args.expr)


def cmd_verify_norm_ideal(args) -> dict:
    spec = _series_spec(args)
    field = spec.build()
    f = parse_expr(args.expr, field)
    ext = ASExtension(field, f)
    ext.require_nontrivial()
    rng = random.Random(args.seed)
    s_reports = s_inequality_suite(ext, rng, args.count)
    trace_reports = trace_lemma_suite(ext, rng, max(1, args.count // 4))
    samples = [{"b": str(r.b), "s": str(r.s), "s_prime": str(r.s_prime),
                "pass": r.holds} for r in s_reports]
    report = {
        "samples": samples,
        "count": len(samples),
        "trace_checks": {"count": len(trace_reports),
                         "all_pass": all(t.passed for t in trace_reports)},
        "aggregate_pass": all(r.holds for r in s_reports)
        and all(t.passed for t in trace_reports),
        "seed": args.seed,
    }
    return _wrap(report, "verify-norm-ideal", spec, args.expr)


def cmd_run_corpus(args) -> dict:
    body = run_corpus()
    report = dict(body)
    report["schema"] = 1
    report["command"] = "run-corpus"
    return report


def _wrap(body: dict, command: str, spec: FieldSpec, expr: str) -> dict:
    report = dict(body)
    report["schema"] = 1
    report["command"] = command
    report["field"] = spec.descriptor()
    report["input"] = expr
    return report


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="valuata",
                     description="classify and normalize degree-p generators "
                                 "of valued fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_series_flags(p):
        p.add_argument("expr", help="generator expression, e.g. 'X^(-3)'")
        p.add_argument("--field", help="named field preset, e.g. gf2-laurent")
        p.add_argument("--residue", help="residue descriptor gf:q or ratfunc:q")
        p.add_argument("--group", choices=["int", "int-inv-p", "rat", "lex2"])
        p.add_argument("--p", type=int, help="residue characteristic (checked)")
        p.add_argument("--precision", type=int)
        p.add_argument("--json", dest="json_path")
        p.add_argument("--seed", type=int,
                       default=int(os.environ.get("VALUATA_SEED", "0")))

    def add_cyclo_flags(p):
        p.add_argument("expr", help="generator expression, e.g. '1 + pi^(2)'")
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--with-y", action="store_true")
        p.add_argument("--precision", type=int)
        p.add_argument("--json", dest="json_path")
        p.add_argument("--seed", type=int,
                       default=int(os.environ.get("VALUATA_SEED", "0")))

    p = sub.add_parser("analyze-as", help="classify an equal-characteristic generator")
    add_series_flags(p)
    p.set_defaults(run=cmd_analyze_as)

    p = sub.add_parser("normalize-as", help="improve a generator to a best shape")
    add_series_flags(p)
    p.add_argument("--budget", type=int, default=16)
    p.set_defaults(run=cmd_normalize_as)

    p = sub.add_parser("classify-kummer", help="classify a p-adic Kummer generator")
    add_cyclo_flags(p)
    p.set_defaults(run=cmd_classify_kummer)

    p = sub.add_parser("normalize-kummer", help="improve a Kummer generator")
    add_cyclo_flags(p)
    p.add_argument("--budget", type=int, default=8)
    p.set_defaults(run=cmd_normalize_kummer)

    p = sub.add_parser("verify-norm-ideal",
                       help="sample displacement and trace identities over "
                            "the extension generated by EXPR")
    add_series_flags(p)
    p.add_argument("--count", type=int, default=25)
    p.set_defaults(run=cmd_verify_norm_ideal)

    p = sub.add_parser("run-corpus", help="run the built-in regression corpus")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(run=cmd_run_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p", None) and getattr(args, "residue", None):
        tag = args.residue.split(":")[-1]
        # a malformed size is reported by the field builder
        if tag.isdigit() and int(tag) % args.p != 0:
            parser.error(f"--p {args.p} conflicts with --residue {args.residue}")
    try:
        report = args.run(args)
    except MathAssertError as exc:
        sys.stderr.write(f"theorem check failed: {exc}\n")
        return 2
    except (ValuataError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(report, getattr(args, "json_path", None))
    # corpus regressions and failed sample checks are theorem-level events
    if report.get("aggregate_pass") is False:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
