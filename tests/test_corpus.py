import pytest

from valuata.corpus import ENTRIES, FIELD_PRESETS, FieldSpec, run_corpus
from valuata.dsl import parse_expr
from valuata.errors import UsageError


def test_every_entry_passes():
    body = run_corpus()
    assert body["count"] == len(ENTRIES) == 26
    assert body["failures"] == 0
    assert body["aggregate_pass"] is True
    bad = [r["name"] for r in body["entries"] if not r["pass"]]
    assert bad == []


def test_entry_names_are_unique():
    names = [e.name for e in ENTRIES]
    assert len(names) == len(set(names))


def test_both_engines_are_covered():
    kinds = {e.kind for e in ENTRIES}
    assert kinds == {"as", "kummer"}


def test_enough_normalized_instances_for_the_conductor_identity():
    # the conductor/norm agreement is checked on every normalized instance;
    # the corpus must supply a double-digit pool of them
    body = run_corpus()
    done = [r for e, r in zip(ENTRIES, body["entries"])
            if e.kind == "as" and r["got"].get("outcome") == "best-found"]
    assert len(done) >= 10
    for r in done:
        assert r["got"]["swan_check"]["agree"] is True


def test_kummer_covers_all_five_best_shapes():
    body = run_corpus()
    verdicts = {r["got"].get("verdict")
                for e, r in zip(ENTRIES, body["entries"]) if e.kind == "kummer"}
    assert {"best-i", "best-ii", "best-iii", "best-iv", "best-v"} <= verdicts


def test_improvement_chain_entry_lands_on_best():
    body = run_corpus()
    by_name = {r["name"]: r["got"] for r in body["entries"]}
    got = by_name["kummer-ramified-chain"]
    assert got["outcome"] == "best-found"
    assert got["steps"] == 1
    assert got["trajectory"] == [2, 3]
    assert got["verdict"] == "best-iii"


def test_defect_entries_report_no_conductor():
    body = run_corpus()
    for r in body["entries"]:
        if r["got"].get("outcome") == "defect-evidence":
            assert r["got"]["invariants"]["d"] > 1
            assert r["got"]["invariants"]["swan"] is None


def test_runs_are_reproducible():
    assert run_corpus() == run_corpus()


def test_presets_build_and_describe():
    for name, spec in FIELD_PRESETS.items():
        field = spec.build()
        desc = spec.descriptor()
        assert desc["kind"] == "series"
        assert set(desc) >= {"kind", "residue", "group", "precision"}
        assert field.group.kind.value == desc["group"]


def test_corpus_expressions_parse_and_round_trip():
    for entry in ENTRIES:
        field = entry.field.build()
        value = parse_expr(entry.expr, field)
        text = str(value)
        assert str(parse_expr(text, field)) == text


def test_product_identity_on_every_reported_invariants():
    body = run_corpus()
    for r in body["entries"]:
        inv = r["got"].get("invariants")
        if inv is None:
            continue
        product = inv["e"] * inv["f_res"] * inv["d"]
        assert product in (1, 2, 3)
        if r["got"].get("outcome") != "trivial":
            assert product > 1


def test_unknown_group_name_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown value group 'foo'; "
                                         "the groups are int, int-inv-p, rat, lex2"):
        FieldSpec("series", "gf:2", "foo").build()
