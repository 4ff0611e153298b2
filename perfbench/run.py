"""valuata benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --repeat N   # steadiness mode
    python3 perfbench/run.py --selftest                   # fast self-test
    python3 perfbench/run.py --workload NAME --record-digest

Each run is one process with no threads and one caller in a closed loop.
It measures set-up in fresh interpreters, draws the workload's fixed input
set from the seed (untimed), then runs the whole set in passes until
``--seconds`` have gone by (at least one pass).  An operation's time is its
median over passes.  With ``--trace 1`` it instead makes one untimed and one
traced pass, prints the per-layer table and writes the spans to
``perfbench/out/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
SHOW_SLOWEST = 3
DEFAULT_SEED = 0
P_SHARES = (2, 3, 5, 7)


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import valuata  # noqa: F401
    import tracer
    import workloads
    return workloads, tracer


# -- measuring ---------------------------------------------------------------------


class Result:
    """Outcome of running an input set: times, checks and digests."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]
        self.texts = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def record(self, i, elapsed, ok, text):
        self.attempted += 1
        self.times[i].append(elapsed)
        if self.texts[i] is None:
            self.texts[i] = text
        elif self.texts[i] != text:    # same input, different answer
            ok = False
        if not ok:
            self.failed += 1

    def op_digests(self):
        return [hashlib.sha256(t.encode()).hexdigest()[:16] for t in self.texts]

    def digest(self):
        return hashlib.sha256("\n".join(self.op_digests()).encode()).hexdigest()

    def op_times(self):
        # a shared host's speed drifts from pass to pass; the median over
        # passes varied least between runs, less than the fastest pass
        return [statistics.median(ts) for ts in self.times]


def run_pass(workloads, result, wrap=None):
    clock = time.perf_counter
    for i, op in enumerate(result.ops):
        start = clock()
        try:
            out = wrap(op) if wrap else workloads.run_op(op)
            elapsed = clock() - start
            ok, text = workloads.check_op(op, out)
        except Exception as exc:  # an unexpected raise is a failed operation
            elapsed = clock() - start
            ok, text = False, f"raised {type(exc).__name__}: {exc}"
        result.record(i, elapsed, ok, text)
    result.passes += 1


def measure_setup(workload, probes):
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest value, with its percentile and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None, ordered[-1], n
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def peak_rss_mb():
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def end_to_end(result, setup_s):
    times = result.op_times()
    q, t, n = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_ms.p50": (statistics.median(times) * 1e3, "ms"),
        "latency_ms.tail": (t * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "latency_ms.p50": f"n={n} ops, median of {result.passes} passes each",
        "latency_ms.tail": f"p{q:.3g}, n={n} ops" if q is not None else f"max, n={n} ops",
        "ops_per_s": f"{n} ops per pass, {result.passes} passes",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
    }
    return metrics, notes


# -- one run -----------------------------------------------------------------------


def load_digests():
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_digests(name, seed, result):
    """At the default seed, compare each operation's output with the stored
    digest; a mismatch is a failed operation."""
    stored = load_digests().get(name)
    if seed != DEFAULT_SEED or stored is None:
        return None
    mine = result.op_digests()
    if len(stored["ops"]) != len(mine):
        result.failed += len(mine)
        return False
    bad = sum(1 for a, b in zip(stored["ops"], mine) if a != b)
    result.failed += bad
    return bad == 0


def header(args):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"machine {platform.machine()} {platform.platform()}  nproc {os.cpu_count()}  "
          f"python {platform.python_version()}")


def run_once(args):
    workloads, tracer_mod = _import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    header(args)
    built = workloads.build_fields(args.workload)
    start = time.perf_counter()
    ops = workloads.generate(args.workload, built, args.seed)
    generate_s = time.perf_counter() - start

    result = Result(ops)
    if args.trace:
        metrics, _ = traced(workloads, tracer_mod, args.workload, args.seed,
                            result, generate_s)
        notes = {}
    else:
        setup_s = measure_setup(args.workload, SETUP_PROBES)
        # whole passes only, and another only if it fits in the time left
        start = time.perf_counter()
        run_pass(workloads, result)
        while True:
            now = time.perf_counter()
            if now + (now - start) / result.passes > start + args.seconds:
                break
            run_pass(workloads, result)
        metrics, notes = end_to_end(result, setup_s)
    stored = check_digests(args.workload, args.seed, result)
    print(f"ops {len(ops)}  passes {result.passes}  attempted {result.attempted}  "
          f"failed {result.failed}  failed_ratio {result.failed / result.attempted:.6g}")
    print(f"digest {result.digest()}"
          + ("" if stored is None else f"  stored digest {'matches' if stored else 'DIFFERS'}"))
    if not args.trace:
        slow = sorted(zip(result.op_times(), result.ops), key=lambda x: -x[0])
        for t, op in slow[:SHOW_SLOWEST]:
            print(f"  slow {t * 1e3:10.2f} ms  {op.label}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<50} {value:>16.6g} {unit:<7} {note}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def traced(workloads, tracer_mod, workload, seed, result, generate_s):
    """One untraced pass for the overhead base, then one traced pass."""
    run_pass(workloads, result)
    untraced_s = sum(ts[0] for ts in result.times)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        run_pass(workloads, result,
                 wrap=lambda op: tr.op_span(op.label, workloads.run_op, op))
    finally:
        tr.uninstall()
    traced_times = [ts[-1] for ts in result.times]
    traced_s = sum(traced_times)
    metrics = tracer_mod.layer_metrics(tr)
    metrics["sampling.generate_s"] = (generate_s, "s")
    metrics["trace.ops_per_s"] = (len(traced_times) / traced_s, "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    by_p = {}
    for op, t in zip(result.ops, traced_times):
        by_p[op.p] = by_p.get(op.p, 0.0) + t
    for p in P_SHARES:
        metrics[f"ops.time_share.p{p}"] = (by_p.get(p, 0.0) / traced_s, "ratio")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(tr.dump()))
    print(f"spans {len(tr.spans)} written to {path.relative_to(ROOT)}")
    return metrics, tr


# -- steadiness mode -----------------------------------------------------------------


def repeat(args):
    """Run the workload N times at successive seeds, each in its own process,
    and report every metric's median, quartiles and spread against its bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    attempted = failed = 0
    for k in range(args.repeat):
        seed = args.seed + k
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                              check=True)
        line = done.stdout.strip().splitlines()[-1]
        digest = next((l for l in done.stdout.splitlines() if l.startswith("digest")), "")
        got = json.loads(line)
        attempted += got["attempted"]
        failed += got["failed"]
        for name, m in got["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{n}={m['value']:.5g}" for n, m in got["metrics"].items())
            + f"  failed={got['failed']}  {digest}", flush=True)
    summary = {}
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, (vals, unit) in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else
                                         "WIDE" if spread <= bound else "OVER")
        print(f"{name:<32} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6} {flag}")
        summary[name] = {"value": med, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": summary}


# -- recording digests -------------------------------------------------------------


def record_digest(args):
    workloads, _ = _import_program()
    built = workloads.build_fields(args.workload)
    result = Result(workloads.generate(args.workload, built, DEFAULT_SEED))
    run_pass(workloads, result)
    if result.failed:
        raise SystemExit(f"{result.failed} operations failed; digest not recorded")
    stored = load_digests()
    stored[args.workload] = {"seed": DEFAULT_SEED, "all": result.digest(),
                             "ops": result.op_digests()}
    (HERE / "digests.json").write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(result.ops)} operation digests for {args.workload}")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: N runs at successive seeds")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digest", action="store_true",
                        help="store the default-seed output digests of a workload")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main()
    if not args.workload:
        parser.error("--workload is required")
    if args.record_digest:
        record_digest(args)
        return 0
    summary = repeat(args) if args.repeat else run_once(args)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
