"""Traced passes at self-test size, with the benchmark's tracer.

``perfbench/tracer.py`` wraps ``poly_gcd`` in every module that binds it,
reads ``len()`` of gcds and of RatFunc numerators and denominators,
wraps ``GroupElt``'s arithmetic and comparisons on the class, and spans
``ExtElt.norm``, ``invert`` and ``valuation_L``, and on the interactive
pass counts the Kummer layer (``CycloElt.__mul__`` and ``invert``,
``classify_h``, ``normalize_h``) and ``FieldSpec.build``.  A change of
representation that hides these calls from the wrappers, or that the
counters can no longer read, fails here before it fails the benchmark.  The
tracer is installed and removed directly, so nothing is written to
``perfbench/out/``.
"""

import importlib.util
import sys
from pathlib import Path

from valuata import residue_field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_pass(workload):
    """Run one traced pass of the workload at self-test size; return the
    labels of the failed operations and the per-layer metrics."""
    tracer, workloads = load("tracer"), load("workloads")
    built = workloads.build_fields(workload)
    ops = workloads.generate(workload, built, 0, 0.1)
    assert ops
    tr = tracer.Tracer()
    tr.install()
    try:
        failed = [op.label for op in ops
                  if not workloads.check_op(op, tr.op_span(op.label, workloads.run_op, op))[0]]
    finally:
        tr.uninstall()
    return failed, tracer.layer_metrics(tr)


def test_traced_ferocious_pass():
    gcd = residue_field.poly_gcd
    failed, metrics = traced_pass("ferocious")
    assert residue_field.poly_gcd is gcd
    assert failed == []
    assert metrics["residue_field.poly_gcd.calls"][0] > 0
    assert metrics["residue_field.RatFunc.mul.calls"][0] > 0
    assert metrics["residue_field.RatFunc.max_deg_y"][0] > 0


def test_traced_dense_groups_pass():
    failed, metrics = traced_pass("dense-groups")
    assert failed == []
    assert metrics["value_group.GroupElt.arith.calls"][0] > 0
    assert metrics["value_group.GroupElt.compare.calls"][0] > 0


def test_traced_norm_ideal_pass():
    failed, metrics = traced_pass("norm-ideal")
    assert failed == []
    assert metrics["as_extension.ExtElt.norm.calls"][0] > 0
    assert metrics["as_extension.ExtElt.invert.calls"][0] > 0
    assert metrics["as_extension.ExtElt.valuation_L.calls"][0] > 0


def test_traced_interactive_pass():
    failed, metrics = traced_pass("interactive")
    assert failed == []
    for name in ("kummer.CycloElt.mul", "kummer.CycloElt.invert",
                 "kummer.classify_h", "kummer.normalize_h",
                 "corpus.FieldSpec.build"):
        assert metrics[f"{name}.calls"][0] > 0, name
