"""Every function the benchmark's traced pass wraps still exists.

``perfbench/tracer.py`` names its targets in ``TRACED`` as (module,
attribute path) pairs and fails in the middle of a benchmark run when one is
gone.  Reading that table here makes such a deletion fail the tests first.
The table is read as a literal, so the tracer is neither imported nor run.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in perfbench/tracer.py")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for module_name, path, _, _ in targets:
        module = importlib.import_module(f"valuata.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            found = inspect.isclass(cls) and attr in cls.__dict__
        else:
            found = inspect.isfunction(getattr(module, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert not missing, f"traced by perfbench but gone from valuata: {missing}"
