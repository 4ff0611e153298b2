"""Fast self-test of the benchmark, run by ``run.py --selftest``.

Each workload runs at a tiny size, twice, traced.  The test checks that no
operation fails, that both runs give identical output digests and identical
exact counts, that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted, that every wrapped function is reached through
the tracer at least once, and that no valuata module keeps an unwrapped
binding of a traced function.
"""

from __future__ import annotations

import json
import time

import run

TINY = 0.1
EXACT = ("holds_ratio", "normalize.steps", "normalize_h.steps", ".calls",
         "max_terms", "max_deg_y", "term_pairs")


def main() -> int:
    workloads, tracer_mod = run._import_program()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in bench["end_to_end"]}
    want_layer = {m["name"] for m in bench["per_layer"]}
    problems = []
    hit = set()

    probe = tracer_mod.Tracer()
    probe.install()
    try:
        left = probe.unwrapped_bindings()
    finally:
        probe.uninstall()
    if left:
        problems.append(f"unwrapped bindings of traced functions: {left}")

    for name in workloads.WORKLOADS:
        start = time.perf_counter()
        built = workloads.build_fields(name)
        seen = []
        for _ in range(2):
            ops = workloads.generate(name, built, run.DEFAULT_SEED, TINY)
            result = run.Result(ops)
            layer, tr = run.traced(workloads, tracer_mod, f"selftest-{name}",
                                  run.DEFAULT_SEED, result, 0.0)
            e2e, _ = run.end_to_end(result, run.measure_setup(name, 1))
            hit |= {key for key, n in tr.hits.items() if n}
            if result.failed:
                problems.append(f"{name}: {result.failed} of {result.attempted} "
                                "operations failed")
            if set(e2e) != want_e2e:
                problems.append(f"{name}: end-to-end metrics {sorted(set(e2e) ^ want_e2e)}")
            if set(layer) != want_layer:
                problems.append(f"{name}: per-layer metrics {sorted(set(layer) ^ want_layer)}")
            exact = {k: v for k, (v, _) in layer.items() if any(x in k for x in EXACT)}
            seen.append((result.digest(), exact))
        (d1, c1), (d2, c2) = seen
        if d1 != d2:
            problems.append(f"{name}: digests differ between two runs at one seed")
        changed = sorted(k for k in c1 if c1[k] != c2[k])
        if changed:
            problems.append(f"{name}: exact counts differ between runs: {changed}")
        print(f"selftest {name}: {len(ops)} ops, digest {d1[:16]}, "
              f"{time.perf_counter() - start:.1f} s", flush=True)

    every = {f"{module}.{path}" for module, path, _, _ in tracer_mod.TRACED}
    missed = sorted(every - hit)
    if missed:
        problems.append(f"wrapped functions never reached: {missed}")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0
