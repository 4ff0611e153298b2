"""Built-in instance corpus with expected reports, and the report bodies.

Each entry names a field, a generator expression, and the exact report
fragment a run must reproduce.  The entries cover every classification
verdict on both sides (equal characteristic and p-adic), the improvement
chains, the defect-evidence loops over dense value groups, and the trivial
gates; the suite runners in the CLI and the tests compare reports against
these frozen expectations.

The JSON bodies of the normalize reports are built here, once per engine,
and the CLI prints the same bodies; a corpus fragment is a fixed slice of
the body (see run_entry), so the corpus checks the CLI's own report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

from .best_f import OutcomeKind, classical_swan, invariants, normalize, settled
from .dsl import parse_expr
from .errors import UsageError
from .hahn_series import SeriesField, format_series
from .kummer import CycloField, format_cyclo, kummer_invariants, normalize_h
from .residue_field import GF, RatFunc, _is_prime
from .value_group import GroupKind, ValueGroup, ge


@dataclass(frozen=True)
class FieldSpec:
    """Serializable description of a coefficient field.

    kind 'series' builds a generalized power-series field from a residue
    descriptor ('gf:q' or 'ratfunc:q') and a value-group name; kind 'cyclo'
    builds the p-adic cyclotomic field from (p, m, with_y).
    """

    kind: str
    residue: str = "gf:2"
    group: str = "int"
    precision: int = 24
    p: int = 2
    m: int = 1
    with_y: bool = False

    def build(self):
        """The field this spec describes: one instance per parameter set,
        built on the first request for it and kept in a bounded cache
        (_build), so later requests share the field and the rings and
        tables it caches.  Nothing is built at import."""
        return _build(self)

    def _residue_field(self):
        tag, _, q_text = self.residue.partition(":")
        try:
            q = int(q_text or "0")
        except ValueError:
            raise UsageError(f"field size {q_text!r} is not an integer") from None
        if tag == "gf":
            p, m = _prime_power(q)
            return GF(p, m)
        if tag == "ratfunc":
            p, m = _prime_power(q)
            return RatFunc(GF(p, m))
        raise UsageError(f"unknown residue descriptor {self.residue!r}")

    def descriptor(self) -> dict:
        if self.kind == "cyclo":
            return {"kind": "cyclo", "p": self.p, "m": self.m,
                    "with_y": self.with_y, "precision": self.precision}
        return {"kind": "series", "residue": self.residue, "group": self.group,
                "precision": self.precision}


@functools.lru_cache(maxsize=128)
def _build(spec: FieldSpec):
    if spec.kind == "cyclo":
        return CycloField(spec.p, spec.m, spec.with_y, spec.precision)
    if spec.kind != "series":
        raise UsageError(f"unknown field kind {spec.kind!r}")
    residue = spec._residue_field()
    try:
        kind = GroupKind(spec.group)
    except ValueError:
        names = ", ".join([k.value for k in GroupKind])
        raise UsageError(f"unknown value group {spec.group!r}; "
                         f"the groups are {names}") from None
    group = ValueGroup(kind, residue.p)
    prec = ge(spec.precision, 0) if group.rank == 2 else ge(spec.precision)
    return SeriesField(residue, group, prec)


def _prime_power(q: int):
    """(p, m) with q = p**m; the smallest factor of q is its only candidate p."""
    p = next((d for d in range(2, math.isqrt(max(q, 0)) + 1) if q % d == 0), q)
    m, n = 0, q
    while _is_prime(p) and n % p == 0:
        n //= p
        m += 1
    if m == 0 or n != 1:
        raise UsageError(f"{q} is not a prime power")
    return p, m


# named presets shared by the CLI
FIELD_PRESETS = {
    "gf2-laurent": FieldSpec("series", "gf:2", "int"),
    "gf3-laurent": FieldSpec("series", "gf:3", "int"),
    "gf4-laurent": FieldSpec("series", "gf:4", "int"),
    "gf2y-laurent": FieldSpec("series", "ratfunc:2", "int"),
    "gf3y-laurent": FieldSpec("series", "ratfunc:3", "int"),
    "gf2-half-powers": FieldSpec("series", "gf:2", "int-inv-p"),
    "gf2-rationals": FieldSpec("series", "gf:2", "rat"),
    "gf2-lex2": FieldSpec("series", "gf:2", "lex2"),
}


@dataclass(frozen=True)
class CorpusEntry:
    """One regression instance: input plus the report fragment it must yield."""

    name: str
    kind: str                       # "as" | "kummer"
    field: FieldSpec
    expr: str
    expected: dict
    budget: int = 16
    annotation: dict = dc_field(default_factory=dict)


def _as(name, spec, expr, expected, budget=16, annotation=None):
    return CorpusEntry(name, "as", spec, expr, expected, budget, annotation or {})


def _ku(name, spec, expr, expected, budget=8, annotation=None):
    return CorpusEntry(name, "kummer", spec, expr, expected, budget, annotation or {})


_GF2 = FIELD_PRESETS["gf2-laurent"]
_GF3 = FIELD_PRESETS["gf3-laurent"]
_GF4 = FIELD_PRESETS["gf4-laurent"]
_GF2Y = FIELD_PRESETS["gf2y-laurent"]
_GF3Y = FIELD_PRESETS["gf3y-laurent"]
_HALF = FIELD_PRESETS["gf2-half-powers"]
_LEX2 = FIELD_PRESETS["gf2-lex2"]


ENTRIES: tuple[CorpusEntry, ...] = (
    # equal characteristic: wild shapes, pole order coprime to p
    _as("wild-cubic-pole-p2", _GF2, "X^(-3)",
        {"outcome": "best-found", "verdict": "best-i", "steps": 0,
         "f_star": "X^(-3)",
         "invariants": {"e": 2, "f_res": 1, "d": 1, "type": "wild", "swan": "3"}}),
    _as("wild-quintic-pole-p2", _GF2, "X^(-5)",
        {"outcome": "best-found", "verdict": "best-i", "steps": 0,
         "invariants": {"e": 2, "f_res": 1, "d": 1, "type": "wild", "swan": "5"}}),
    _as("wild-simple-pole-p3", _GF3, "X^(-1)",
        {"outcome": "best-found", "verdict": "best-i", "steps": 0,
         "invariants": {"e": 3, "f_res": 1, "d": 1, "type": "wild", "swan": "1"}}),
    _as("wild-double-pole-p3", _GF3, "X^(-2)",
        {"outcome": "best-found", "verdict": "best-i", "steps": 0,
         "invariants": {"e": 3, "f_res": 1, "d": 1, "type": "wild", "swan": "2"}}),
    _as("wild-w-pole-gf4", _GF4, "w*X^(-1)",
        {"outcome": "best-found", "verdict": "best-i", "steps": 0,
         "invariants": {"e": 2, "f_res": 1, "d": 1, "type": "wild", "swan": "1"}}),
    # one improvement step folds the even pole in half
    _as("square-pole-collapse-p2", _GF2, "X^(-6)",
        {"outcome": "best-found", "verdict": "best-i", "steps": 1,
         "f_star": "X^(-3)", "trajectory": ["-6", "-3"],
         "invariants": {"e": 2, "f_res": 1, "d": 1, "type": "wild", "swan": "3"}}),
    # ferocious shapes need an imperfect residue field
    _as("ferocious-y-pole-p2", _GF2Y, "y*X^(-2)",
        {"outcome": "best-found", "verdict": "best-ii", "steps": 0,
         "invariants": {"e": 1, "f_res": 2, "d": 1, "type": "ferocious", "swan": "2"}}),
    _as("ferocious-y-deep-pole-p2", _GF2Y, "y*X^(-4)",
        {"outcome": "best-found", "verdict": "best-ii", "steps": 0,
         "invariants": {"e": 1, "f_res": 2, "d": 1, "type": "ferocious", "swan": "4"}}),
    _as("ferocious-y-pole-p3", _GF3Y, "y*X^(-3)",
        {"outcome": "best-found", "verdict": "best-ii", "steps": 0,
         "invariants": {"e": 1, "f_res": 3, "d": 1, "type": "ferocious", "swan": "3"}}),
    # unramified shapes: unit with residue outside x^p - x
    _as("unramified-unit-p2", _GF2, "1",
        {"outcome": "best-found", "verdict": "best-iii", "steps": 0,
         "invariants": {"e": 1, "f_res": 2, "d": 1, "type": "unramified", "swan": "0"}}),
    _as("unramified-unit-p3", _GF3, "1",
        {"outcome": "best-found", "verdict": "best-iii", "steps": 0,
         "invariants": {"e": 1, "f_res": 3, "d": 1, "type": "unramified", "swan": "0"}}),
    _as("unramified-w-gf4", _GF4, "w",
        {"outcome": "best-found", "verdict": "best-iii", "steps": 0,
         "invariants": {"e": 1, "f_res": 2, "d": 1, "type": "unramified", "swan": "0"}}),
    # defect evidence over dense value groups: the pole halves forever
    _as("defect-half-powers-p2", _HALF, "X^(-1)",
        {"outcome": "defect-evidence", "steps": 12,
         "trajectory": ["-1", "-1/2", "-1/4", "-1/8", "-1/16", "-1/32",
                        "-1/64", "-1/128", "-1/256", "-1/512", "-1/1024",
                        "-1/2048", "-1/4096"],
         "invariants": {"e": 1, "f_res": 1, "d": 2, "type": "defect", "swan": None}},
        budget=12, annotation={"d": 2, "note": "value group dense at 0"}),
    _as("defect-rank2-p2", _LEX2, "X^((-1, 0))",
        {"outcome": "defect-evidence", "steps": 6,
         "invariants": {"e": 1, "f_res": 1, "d": 2, "type": "defect", "swan": None}},
        budget=6, annotation={"d": 2, "note": "rank-two value group"}),
    # trivial gates
    _as("trivial-positive-val-p2", _GF2, "X^(2)",
        {"outcome": "trivial", "steps": 0}),
    _as("trivial-split-unit-gf4", _GF4, "1 + X",
        {"outcome": "trivial", "steps": 1}),
    # p-adic side: square roots of small integers over the 2-adics
    _ku("kummer-q2-sqrt2", FieldSpec("cyclo", p=2, m=1, precision=48), "2",
        {"outcome": "best-found", "verdict": "best-i", "steps": 0,
         "invariants": {"e": 2, "f_res": 1, "d": 1, "type": "wild", "swan": "2"}}),
    _ku("kummer-q2-sqrt3", FieldSpec("cyclo", p=2, m=1, precision=48), "3",
        {"outcome": "best-found", "verdict": "best-iii", "steps": 0,
         "invariants": {"e": 2, "f_res": 1, "d": 1, "type": "wild", "swan": "1"}}),
    _ku("kummer-q2-sqrt5", FieldSpec("cyclo", p=2, m=1, precision=48), "5",
        {"outcome": "best-found", "verdict": "best-v", "steps": 0,
         "invariants": {"e": 1, "f_res": 2, "d": 1, "type": "unramified", "swan": "0"}}),
    _ku("kummer-q2-sqrt9-trivial", FieldSpec("cyclo", p=2, m=1, precision=48), "9",
        {"outcome": "trivial", "steps": 0}),
    # ramified base pi^2 = zeta - 1: one improvement reveals the best shape
    _ku("kummer-ramified-chain", FieldSpec("cyclo", p=2, m=2, precision=48),
        "1 + pi^(2)",
        {"outcome": "best-found", "verdict": "best-iii", "steps": 1,
         "trajectory": [2, 3],
         "invariants": {"e": 2, "f_res": 1, "d": 1, "type": "wild", "swan": "1"}}),
    # imperfect residue field: ferocious shapes
    _ku("kummer-ferocious-unit", FieldSpec("cyclo", p=2, m=2, with_y=True,
                                           precision=48), "y",
        {"outcome": "best-found", "verdict": "best-ii", "steps": 0,
         "invariants": {"e": 1, "f_res": 2, "d": 1, "type": "ferocious", "swan": "4"}}),
    _ku("kummer-ferocious-deep", FieldSpec("cyclo", p=2, m=2, with_y=True,
                                           precision=48), "1 + y*pi^(2)",
        {"outcome": "best-found", "verdict": "best-iv", "steps": 0,
         "invariants": {"e": 1, "f_res": 2, "d": 1, "type": "ferocious", "swan": "2"}}),
    _ku("kummer-rescale-trivial", FieldSpec("cyclo", p=2, m=1, with_y=True,
                                            precision=48), "y^2",
        {"outcome": "trivial", "steps": 1}),
    _ku("kummer-p3-cbrt3", FieldSpec("cyclo", p=3, m=1, precision=36), "3",
        {"outcome": "best-found", "verdict": "best-i", "steps": 0,
         "invariants": {"e": 3, "f_res": 1, "d": 1, "type": "wild", "swan": "3"}}),
    _ku("kummer-p3-unramified", FieldSpec("cyclo", p=3, m=1, precision=36),
        "1 + pi^(3)",
        {"outcome": "best-found", "verdict": "best-v", "steps": 0,
         "invariants": {"e": 1, "f_res": 3, "d": 1, "type": "unramified", "swan": "0"}}),
)


def _maybe(value, fmt=str):
    return None if value is None else fmt(value)


def invariants_dict(inv) -> dict:
    return {"e": inv.e, "f_res": inv.f_res, "d": inv.d, "type": inv.type,
            "swan": _maybe(inv.swan), "product": inv.product()}


def as_classification_dict(c) -> dict:
    return {
        "verdict": c.verdict.value,
        "valuation": _maybe(c.valuation),
        "unit_residue": _maybe(c.unit_residue),
        "residue": _maybe(c.residue),
        "improvement": _maybe(c.improvement_h, format_series),
        "note": c.note,
    }


def kummer_classification_dict(c) -> dict:
    return {
        "verdict": c.verdict.value,
        "valuation": c.valuation,
        "w_valuation": c.w_valuation,
        "unit_residue": _maybe(c.unit_residue),
        "c_residue": _maybe(c.c_residue),
        "s_exponent": c.s_exponent,
        "improvement_g": _maybe(c.g, format_cyclo),
        "improvement_i": 1 if c.g is not None else None,
        "note": c.note,
    }


def swan_check(f_star, c) -> dict:
    """Swan conductor of a best element, cross-checked through norms; c is
    the classification that certified f_star best, so the check does not
    normalize f_star again."""
    return {"conductor": str(classical_swan(f_star, settled(c, f_star))), "agree": True}


def as_normalize_body(outcome) -> dict:
    """Report body of an equal-characteristic normalization."""
    best = outcome.kind is OutcomeKind.BEST_FOUND
    return {
        "outcome": outcome.kind.value,
        "steps": outcome.steps,
        "budget": outcome.budget,
        "trajectory": [str(v) for v in outcome.trajectory],
        "invariants": invariants_dict(invariants(outcome)),
        "f_star": _maybe(outcome.f_star, format_series),
        "classification": as_classification_dict(outcome.classification),
        "swan_check": swan_check(outcome.f_star, outcome.classification) if best else None,
    }


def kummer_normalize_body(outcome) -> dict:
    """Report body of a Kummer normalization."""
    return {
        "outcome": outcome.kind.value,
        "steps": outcome.steps,
        "budget": outcome.budget,
        "trajectory": list(outcome.trajectory),
        "invariants": invariants_dict(kummer_invariants(outcome)),
        "h_star": _maybe(outcome.f_star, format_cyclo),
        "classification": kummer_classification_dict(outcome.classification),
    }


def run_entry(entry: CorpusEntry) -> dict:
    """Execute one corpus instance and return its report fragment.

    The fragment is a fixed slice of the normalize report body: the
    invariants without their product, the verdict, the final element only
    for best-found, and the swan check only when it ran.
    """
    value = parse_expr(entry.expr, entry.field.build())
    if entry.kind == "as":
        body, star = as_normalize_body(normalize(value, entry.budget)), "f_star"
    else:
        body, star = kummer_normalize_body(normalize_h(value, entry.budget)), "h_star"
    fragment = {key: body[key] for key in ("outcome", "steps", "budget", "trajectory")}
    fragment["invariants"] = {k: v for k, v in body["invariants"].items()
                              if k != "product"}
    fragment["verdict"] = body["classification"]["verdict"]
    fragment[star] = body[star] if body["outcome"] == "best-found" else None
    if body.get("swan_check") is not None:
        fragment["swan_check"] = body["swan_check"]
    return fragment


def matches_expected(expected: dict, got: dict) -> bool:
    """Recursive subset comparison: every expected key must match."""
    for key, want in expected.items():
        if key not in got:
            return False
        have = got[key]
        if isinstance(want, dict):
            if not isinstance(have, dict) or not matches_expected(want, have):
                return False
        elif want != have:
            return False
    return True


def run_corpus() -> dict:
    """Run every entry; report name, pass flag, and both report fragments."""
    results = []
    for entry in ENTRIES:
        got = run_entry(entry)
        ok = matches_expected(entry.expected, got)
        results.append({"name": entry.name, "pass": ok,
                        "expected": entry.expected, "got": got,
                        "annotation": entry.annotation})
    return {
        "entries": results,
        "count": len(results),
        "failures": sum(1 for r in results if not r["pass"]),
        "aggregate_pass": all(r["pass"] for r in results),
    }
