"""The classify/improve loop both engines share, seen through each engine."""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from valuata import best_f
from valuata.best_f import InvariantsReport, OutcomeKind, invariants, normalize
from valuata.corpus import FIELD_PRESETS
from valuata.dsl import parse_expr
from valuata.hahn_series import SeriesElt
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


# -- work of a defect chain ----------------------------------------------------------

COUNTED = [(best_f, "classify"), (best_f, "improve"), (SeriesElt, "__add__")]


def count_work(monkeypatch, fn, *args):
    counts = Counter()
    for owner, name in COUNTED:
        original = getattr(owner, name)

        def wrapper(*a, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*a, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    try:
        out = fn(*args)
    finally:
        monkeypatch.undo()
    return out, {name: counts[name] for _, name in COUNTED}


@pytest.mark.parametrize("preset, expr", [
    ("gf2-half-powers", "X^(-1)"), ("gf2-rationals", "X^(-1)"),
    ("gf2-lex2", "X^((-1, 0))")])
def test_defect_chain_is_classified_where_it_starts_and_stops(monkeypatch, preset, expr):
    """400 not-best steps run as one packed chain: classify sees the first
    and the last element only, and no step goes through improve or a
    series sum.  A rise means the chain is built step by step again."""
    f = parse_expr(expr, FIELD_PRESETS[preset].build())
    out, counts = count_work(monkeypatch, normalize, f, 400)
    assert counts == {"classify": 2, "improve": 0, "__add__": 0}
    assert out.kind is OutcomeKind.DEFECT_EVIDENCE and out.steps == 400
    traj = out.trajectory
    assert len(traj) == 401
    assert all(a < b for a, b in zip(traj, traj[1:]))
    assert traj[-1].parts[0] == Fraction(-1, 2 ** 400)
