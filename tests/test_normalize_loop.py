"""The classify/improve loop both engines share, seen through each engine."""

import dataclasses

import pytest

from valuata.best_f import InvariantsReport, OutcomeKind, invariants, normalize
from valuata.dsl import parse_expr
from valuata.errors import UsageError
from valuata.kummer import KummerVerdict, kummer_invariants, normalize_h

from routes import cyclo_agrees

P3_DEFECT = InvariantsReport(1, 1, 3, "defect", None)


def test_kummer_negative_budget_rejected(q2):
    with pytest.raises(UsageError):
        normalize_h(parse_expr("2", q2), budget=-1)


def test_series_budget_exhausted_at_p3(gf3_laurent):
    out = normalize(parse_expr("X^(-3)", gf3_laurent), 0)
    assert out.kind is OutcomeKind.DEFECT_EVIDENCE
    assert out.p == 3
    assert invariants(out) == P3_DEFECT
    # p comes from the outcome, not from a witness element
    assert invariants(dataclasses.replace(out, f_star=None)) == P3_DEFECT


def test_kummer_budget_exhausted_at_p3(q3_zeta):
    out = normalize_h(parse_expr("2", q3_zeta), 0)
    assert out.kind is OutcomeKind.DEFECT_EVIDENCE
    assert out.classification.verdict is KummerVerdict.NOT_BEST
    assert out.p == 3
    assert kummer_invariants(out) == P3_DEFECT
    assert kummer_invariants(dataclasses.replace(out, f_star=None)) == P3_DEFECT


def test_kummer_strip_replaces_the_working_element(q2):
    # 12 = pi^2 * 3 over Q_2: the classifier strips pi^2 and decides on 3
    out = normalize_h(parse_expr("12", q2))
    assert out.kind is OutcomeKind.BEST_FOUND
    assert out.f_star is out.classification.h
    assert cyclo_agrees(out.f_star, parse_expr("3", q2))
