"""One traced ferocious pass at self-test size, with the benchmark's tracer.

``perfbench/tracer.py`` wraps ``poly_gcd`` in every module that binds it and
reads ``len()`` of gcds and of RatFunc numerators and denominators.  A change
of representation that hides the gcd calls from the wrapper, or that the
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


def test_traced_ferocious_pass():
    tracer, workloads = load("tracer"), load("workloads")
    built = workloads.build_fields("ferocious")
    ops = workloads.generate("ferocious", built, 0, 0.1)
    assert ops
    gcd = residue_field.poly_gcd
    tr = tracer.Tracer()
    tr.install()
    try:
        failed = [op.label for op in ops
                  if not workloads.check_op(op, tr.op_span(op.label, workloads.run_op, op))[0]]
    finally:
        tr.uninstall()
    assert residue_field.poly_gcd is gcd
    assert failed == []
    metrics = tracer.layer_metrics(tr)
    assert metrics["residue_field.poly_gcd.calls"][0] > 0
    assert metrics["residue_field.RatFunc.mul.calls"][0] > 0
    assert metrics["residue_field.RatFunc.max_deg_y"][0] > 0
