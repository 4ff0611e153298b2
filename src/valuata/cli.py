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
request with the same seed is byte-identical.  The normalize report bodies,
and the invariants and classification dicts of every report, are built in
``corpus``, whose entries check a fixed slice of those same bodies.  Exit
codes: 0 success, 1 for usage or precision problems, 2 when a checked
mathematical identity fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .as_extension import ASExtension
from .best_f import classify, invariants, normalize, settled
from .corpus import (FIELD_PRESETS, FieldSpec, as_classification_dict,
                     as_normalize_body, invariants_dict,
                     kummer_classification_dict, kummer_normalize_body,
                     run_corpus, swan_check)
from .dsl import parse_expr
from .errors import MathAssertError, UsageError, ValuataError
from .kummer import classify_h, kummer_invariants, normalize_h
from .norm_ideal import s_inequality_suite, trace_lemma_suite


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for failed math asserts
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _FlagConflict(UsageError):
    """Flags that contradict each other; reported like argparse's errors."""


def _series_input(args):
    """The field spec and the parsed generator of a series command; --p must
    name the characteristic of the residue field actually used."""
    if args.field:
        if args.field not in FIELD_PRESETS:
            known = ", ".join(sorted(FIELD_PRESETS))
            raise UsageError(f"unknown field preset {args.field!r}; known: {known}")
        preset = FIELD_PRESETS[args.field]
        residue = args.residue or preset.residue
        group = args.group or preset.group
    else:
        residue = args.residue or "gf:2"
        group = args.group or "int"
    precision = 24 if args.precision is None else args.precision
    spec = FieldSpec("series", residue, group, precision=precision)
    field = spec.build()
    if args.p is not None and args.p != field.p:
        raise _FlagConflict(f"--p {args.p} conflicts with the residue field "
                            f"{spec.residue} of characteristic {field.p}")
    return spec, parse_expr(args.expr, field)


def _cyclo_input(args):
    spec = FieldSpec("cyclo", p=args.p, m=args.m, with_y=bool(args.with_y),
                     precision=48 if args.precision is None else args.precision)
    return spec, parse_expr(args.expr, spec.build())


def cmd_analyze_as(args):
    spec, f = _series_input(args)
    c = classify(f)
    outcome = settled(c, f)
    report = {"classification": as_classification_dict(c),
              "invariants": None if outcome is None
              else invariants_dict(invariants(outcome)),
              "swan_check": swan_check(f, c) if c.is_best else None}
    return report, spec


def cmd_normalize_as(args):
    spec, f = _series_input(args)
    report = as_normalize_body(normalize(f, args.budget))
    return report, spec


def cmd_classify_kummer(args):
    spec, h = _cyclo_input(args)
    c = classify_h(h)
    outcome = settled(c, c.h)
    report = {"classification": kummer_classification_dict(c),
              "invariants": None if outcome is None
              else invariants_dict(kummer_invariants(outcome))}
    return report, spec


def cmd_normalize_kummer(args):
    spec, h = _cyclo_input(args)
    report = kummer_normalize_body(normalize_h(h, args.budget))
    return report, spec


def cmd_verify_norm_ideal(args):
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    spec, f = _series_input(args)
    ext = ASExtension(f.field, f)
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
    return report, spec


def cmd_run_corpus(args):
    return run_corpus(), None


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
        p.add_argument("--seed", type=int)

    def add_cyclo_flags(p):
        p.add_argument("expr", help="generator expression, e.g. '1 + pi^(2)'")
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--with-y", action="store_true")
        p.add_argument("--precision", type=int)
        p.add_argument("--json", dest="json_path")
        p.add_argument("--seed", type=int)

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


def _env_seed() -> int:
    """The --seed default, read when a command runs so that a parser
    built once still follows the environment."""
    raw = os.environ.get("VALUATA_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"VALUATA_SEED must be an integer, got {raw!r}") from None


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of main(), built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _env_seed()
        # a command returns its report body and the field it ran over
        body, spec = args.run(args)
    except _FlagConflict as exc:
        parser.error(str(exc))
    except MathAssertError as exc:
        sys.stderr.write(f"theorem check failed: {exc}\n")
        return 2
    except (ValuataError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report = {**body, "schema": 1, "command": args.command}
    if spec is not None:
        report.update(field=spec.descriptor(), input=args.expr)
    _emit(report, getattr(args, "json_path", None))
    # corpus regressions and failed sample checks are theorem-level events
    if report.get("aggregate_pass") is False:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
