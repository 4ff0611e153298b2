"""The four workloads: what each operation is, how inputs are drawn from the
seed, and how every output is checked.

An operation of ``interactive`` is one ``valuata.cli.main(argv)`` request
with stdout and stderr captured in memory.  An operation of the sampled
workloads is one sample, ``y_construct(b)`` plus ``verify_trace_lemma(b)``
on every fourth sample of a field, as ``verify-norm-ideal`` does; a few
``dense-groups`` operations are ``normalize`` defect chains instead.

Sampled inputs come from the library's own samplers, alternating
``sample_unit_generator`` and ``sample_generator`` as ``s_inequality_suite``
does.  Each field draws from two ``random.Random`` streams, a fixed core
stream and the run's seed (as the CLI's ``--seed``), and each stream's draws
fill, in order, fixed quotas per alpha-support shape (see ``shape``).  The
quotas come from the shape frequencies of a fixed pilot stream, so they are
the same at every seed; which draw fills a slot is still the stream's.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from valuata import best_f, cli, corpus, dsl, norm_ideal
from valuata.as_extension import ASExtension
from valuata.value_group import parse_group_elt

PILOT_SEED = 1_000_003
PILOT_DRAWS = 400
# Three quarters of each field's samples come from this fixed stream, the
# rest from the run's seed.  A seed-drawn set alone moves a sampled
# workload's figures by a quarter or more between seeds: single draws cost
# from milliseconds to seconds.  The fixed core holds that steady; the
# seeded rest keeps every seed's inputs and digest its own.
CORE_SEED = 2_147_483_647
CORE_SHARE = 0.75


@dataclass
class Op:
    """One operation: what runs, the residue characteristic it runs over,
    and what the check needs to know."""

    label: str
    p: int
    kind: str          # "cli" | "sample" | "normalize"
    args: tuple
    expect: dict


# -- running and checking ------------------------------------------------------


def run_op(op: Op):
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.args))
            except SystemExit as exc:     # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    if op.kind == "sample":
        b, with_trace = op.args
        sample = norm_ideal.y_construct(b)
        trace = norm_ideal.verify_trace_lemma(b) if with_trace else None
        return sample, trace
    f, budget = op.args
    return best_f.normalize(f, budget)


def check_op(op: Op, result) -> tuple[bool, str]:
    """Whether the output is right, and the text that enters the digest."""
    if op.kind == "cli":
        return _check_cli(op, *result)
    if op.kind == "sample":
        return _check_sample(op, *result)
    return _check_normalize(op, result)


def _check_sample(op: Op, sample, trace):
    p = op.p
    ok = sample.s_prime == sample.s.scale(p - 1) - sum(sample.c_increments,
                                                       sample.s.scale(0))
    if p == 2:
        ok = ok and sample.s == sample.s_prime
    verdicts = ()
    if trace is not None:
        verdicts = tuple(flag for _, flag in trace.checks)
        ok = ok and len(verdicts) == p - 1 and all(verdicts)
    text = f"{sample.s}|{sample.s_prime}|{int(sample.holds)}|{verdicts}"
    return ok, text


def _check_normalize(op: Op, outcome):
    traj = outcome.trajectory
    ok = (outcome.kind.value == "defect-evidence"
          and outcome.steps == op.expect["steps"]
          and all(a < b for a, b in zip(traj, traj[1:])))
    return ok, f"{outcome.kind.value}|{outcome.steps}|{[str(v) for v in traj]}"


def _check_cli(op: Op, code, out, err):
    text = f"{code}\n{out}"
    want = op.expect
    if code != want["exit"]:
        return False, text
    if code != 0:
        return (not out and want["stderr"] in err), text
    report = json.loads(out)
    ok = report.get("schema") == 1 and report.get("command") == op.args[0]
    inv = report.get("invariants")
    if inv is not None:
        ok = ok and inv["product"] == (1 if inv["type"] == "trivial" else op.p)
    for key, value in want.get("report", {}).items():
        ok = ok and _lookup(report, key) == value
    if "steps_up_to" in want:
        traj = [parse_group_elt(v) for v in report["trajectory"]]
        ok = ok and all(a < b for a, b in zip(traj, traj[1:]))
    if op.args[0] == "verify-norm-ideal":
        ok = ok and all(s["s"] == s["s_prime"] for s in report["samples"])
    return ok, text


def _lookup(report, dotted):
    value = report
    for part in dotted.split("."):
        value = value[part]
    return value


# -- interactive -----------------------------------------------------------------

# (preset flags, p, group) for every series field the calculator offers
SERIES_FIELDS = (
    (("--field", "gf2-laurent"), 2, "int"),
    (("--field", "gf3-laurent"), 3, "int"),
    (("--field", "gf4-laurent"), 2, "int"),
    (("--field", "gf2y-laurent"), 2, "int"),
    (("--field", "gf3y-laurent"), 3, "int"),
    (("--field", "gf2-half-powers"), 2, "int-inv-p"),
    (("--field", "gf2-rationals"), 2, "rat"),
    (("--field", "gf2-lex2"), 2, "lex2"),
    (("--residue", "gf:5"), 5, "int"),
    (("--residue", "gf:7"), 7, "int"),
)
KUMMER_FIELDS = tuple((p, m, with_y, prec)
                      for p in (2, 3, 5, 7) for m in (1, 2)
                      for with_y in (False, True) for prec in (48, 96))
MALFORMED = ("X^(-3", "X^^2", "1 + + X", "X^(1/0)", "(X", "X^(-1) *", "3 $ X")


def interactive_ops(seed: int, rounds: int) -> list[Op]:
    """A fixed mix of all six commands.  The round number fixes each slot's
    shape (precision, pole structure, expression kind), which sets its cost;
    the seed picks poles, coefficients, budgets and sampler seeds inside the
    slot, and the order of all requests."""
    rng = random.Random(seed)
    ops = []
    for r in range(rounds):
        for flags, p, group in SERIES_FIELDS:
            ops.append(_analyze(rng, r, flags, p, group))
            ops.append(_normalize_as(rng, r, flags, p, group))
        for spec in KUMMER_FIELDS:
            ops.append(_kummer(rng, r, "classify-kummer", *spec))
            ops.append(_kummer(rng, r + 1, "normalize-kummer", *spec))
        ops.append(_verify(rng, "gf2-laurent", "X^(-3)"))
        ops.append(_verify(rng, "gf4-laurent", "w*X^(-1)"))
        ops.append(_verify(rng, "gf2-lex2", "X^((-1, 0))"))
        ops.append(_cli("verify-norm-ideal", ["X^(-1)", "--field", "gf3-laurent",
                                              "--count", "8", "--seed", "0"],
                        3, {"exit": 2, "stderr": "theorem check failed: s = 2/3 < s' = 1"}))
        ops.append(_cli("analyze-as", [rng.choice(MALFORMED)], 2,
                        {"exit": 1, "stderr": "error:"}))
        split = rng.choice(("1 + X", "X^(2)", "X^(1) + X^(3)"))
        ops.append(_cli("verify-norm-ideal", [split, "--field", "gf4-laurent"], 2,
                        {"exit": 1, "stderr": "splits over the base"}))
        ops.append(_cli("run-corpus", [], 2,
                        {"exit": 0, "report": {"aggregate_pass": True, "failures": 0}}))
    rng.shuffle(ops)
    return ops


def _cli(command, rest, p, expect):
    argv = (command, *rest)
    return Op(" ".join(argv), p, "cli", argv, expect)


def _coprime_pole(rng, p, lo=1, hi=9):
    return rng.choice([n for n in range(lo, hi + 1) if n % p])


def _unit_coeff(rng, p):
    return "" if p == 2 else f"{rng.randrange(1, p)}*"


def _analyze(rng, r, flags, p, group):
    prec = ("24", "48")[r % 2]
    if group == "int":
        n = _coprime_pole(rng, p)
        ferocious = "y-laurent" in flags[1]
        if ferocious and r % 2 == 0:
            n = p * _coprime_pole(rng, p, 1, 3)
            expr = f"y*X^(-{n})"
            report = {"classification.verdict": "best-ii", "invariants.swan": str(n)}
        else:
            expr = f"{_unit_coeff(rng, p)}X^(-{n})"
            report = {"classification.verdict": "best-i", "invariants.swan": str(n),
                      "swan_check.conductor": str(n)}
        if p <= 3 and not ferocious and r % 2 == 1:
            # a positive tail; over larger p or GF(q)(y) it makes
            # classical_swan's norm cost seconds and swamp the mix
            expr += f" + X^({rng.randint(1, 4)})"
    elif group == "lex2":
        expr = f"X^((-{rng.randint(1, 4)}, {rng.randint(-2, 2)}))"
        report = {"classification.verdict": "not-best"}
    else:
        den = rng.choice((1, 2, 4)) if group == "int-inv-p" else rng.choice((1, 3, 5))
        expr = f"X^(-{rng.choice((1, 3, 5))}/{den})"
        report = {"classification.verdict": "not-best"}
    return _cli("analyze-as", [expr, *flags, "--precision", prec], p,
                {"exit": 0, "report": report})


def _normalize_as(rng, r, flags, p, group):
    if group == "int":
        k = 1 + r % 2
        n = rng.choice((3, 5)) if p == 2 else _coprime_pole(rng, p, 1, 3)
        expr = f"{_unit_coeff(rng, p)}X^(-{p ** k * n})"
        if p == 2:
            # a second, coprime pole below the chain's end
            expr += f" + X^(-{rng.randrange(1, n, 2)})"
        report = {"outcome": "best-found", "steps": k,
                  "swan_check.conductor": str(n)}
        return _cli("normalize-as", [expr, *flags, "--precision", "48"], p,
                    {"exit": 0, "report": report})
    budget = rng.randint(20, 30) if group == "int-inv-p" else rng.randint(8, 14)
    expr = "X^((-1, 0))" if group == "lex2" else "X^(-1)"
    return _cli("normalize-as", [expr, *flags, "--budget", str(budget)], p,
                {"exit": 0, "steps_up_to": budget,
                 "report": {"outcome": "defect-evidence", "steps": budget}})


def _kummer(rng, r, command, p, m, with_y, prec):
    c = rng.randrange(1, p) if p > 2 else 1
    kind = r % 4
    if kind == 0:
        expr = str(rng.choice([a for a in range(2, 30) if a % p]))
    elif kind == 1:
        expr = f"1 + {c}*pi^({rng.randint(1, 2 * m * (p - 1))})"
    elif kind == 2:
        expr = f"{c} + pi^({rng.randint(1, p)}) + pi^({p + 1})"
    else:
        expr = f"1 + pi^({rng.randint(1, m * p)})"
    if with_y and r % 3 == 1:
        expr = f"y*({expr})"
    elif with_y and r % 3 == 2:
        expr = f"1 + y*pi^({rng.randint(1, m * p)})"
    argv = [expr, "--p", str(p), "--m", str(m), "--precision", str(prec)]
    if with_y:
        argv.append("--with-y")
    return _cli(command, argv, p, {"exit": 0})


def _verify(rng, preset, expr):
    count = 4
    argv = [expr, "--field", preset, "--count", str(count),
            "--seed", str(rng.randrange(1_000_000))]
    return _cli("verify-norm-ideal", argv, 2,
                {"exit": 0, "report": {"count": count, "aggregate_pass": True}})


# -- sampled workloads -----------------------------------------------------------


@dataclass(frozen=True)
class SampledField:
    """One extension and how many samples of it a pass takes."""

    residue: str
    group: str
    expr: str
    precision: int
    count: int

    @property
    def label(self) -> str:
        return f"{self.residue}/{self.group} {self.expr} @{self.precision}"

    def spec(self) -> corpus.FieldSpec:
        return corpus.FieldSpec("series", self.residue, self.group,
                                precision=self.precision)


NORM_IDEAL = (
    SampledField("gf:2", "int", "X^(-3)", 24, 16),
    SampledField("gf:2", "int", "X^(-3)", 48, 16),
    SampledField("gf:2", "int", "X^(-3)", 96, 16),
    SampledField("gf:2", "int", "X^(-3)", 192, 16),
    SampledField("gf:3", "int", "X^(-1)", 24, 12),
    SampledField("gf:3", "int", "X^(-1)", 48, 4),
    SampledField("gf:3", "int", "X^(-1)", 96, 1),
    SampledField("gf:3", "int", "X^(-2)", 24, 12),
    SampledField("gf:3", "int", "X^(-2)", 48, 4),
    SampledField("gf:4", "int", "w*X^(-1)", 24, 16),
    SampledField("gf:4", "int", "w*X^(-1)", 48, 12),
    SampledField("gf:4", "int", "w*X^(-1)", 96, 4),
    SampledField("gf:5", "int", "X^(-1)", 24, 2),
)

FEROCIOUS = (
    SampledField("ratfunc:2", "int", "y*X^(-2)", 4, 60),
    SampledField("ratfunc:2", "int", "y*X^(-4)", 4, 30),
    SampledField("ratfunc:3", "int", "y*X^(-3)", 4, 1),
)

DENSE_GROUPS = (
    SampledField("gf:2", "int-inv-p", "X^(-1)", 48, 64),
    SampledField("gf:2", "int-inv-p", "X^(-1)", 96, 32),
    SampledField("gf:2", "rat", "X^(-1)", 48, 64),
    SampledField("gf:2", "rat", "X^(-1)", 96, 32),
    SampledField("gf:2", "lex2", "X^((-1, 0))", 48, 64),
    SampledField("gf:2", "lex2", "X^((-1, 0))", 96, 64),
)
# normalize defect chains: (field, how many, budget range)
DENSE_CHAINS = (
    (SampledField("gf:2", "int-inv-p", "X^(-1)", 96, 0), 16, (300, 500)),
    (SampledField("gf:2", "rat", "X^(-1)", 96, 0), 16, (300, 500)),
    (SampledField("gf:2", "lex2", "X^((-1, 0))", 96, 0), 16, (120, 200)),
)
# Fixed inputs, the same at every seed: single draws whose cost is far out
# in the tail.  Drawn at random they would land in a run or not by chance
# and make the seed, not the program, decide the figure; kept fixed, every
# run carries them.  (field, stream seed, draw index)
ANCHORS = {
    # the draw behind known defect 1: y-degree 31 at precision 10
    "ferocious": ((SampledField("ratfunc:2", "int", "y*X^(-2)", 10, 0), 0, 19),),
    # alpha gap 1/4: about precision/gap terms in every inversion
    "dense-groups": ((SampledField("gf:2", "int-inv-p", "X^(-1)", 32, 0), 0, 21),),
}


def build_extension(field: SampledField) -> ASExtension:
    base = field.spec().build()
    return ASExtension(base, dsl.parse_expr(field.expr, base))


def shape(b) -> tuple[int, int, int, int]:
    """The alpha support of b: nonzero alpha coefficients, their terms, the
    distinct exponents among those terms, and a bucket for the smallest gap
    between two exponents of one coefficient (0 for monomials, then gaps of
    at least 1, at least 1/4, and below).  The inverse of a coefficient with
    gap g has about precision/g terms, so the gap sets the cost."""
    alpha = [c for c in b.coeffs[1:] if c.has_terms()]
    exps = {e for c in alpha for e, _ in c.terms}
    gaps = [y.parts[0] - x.parts[0] for c in alpha
            for (x, _), (y, _) in zip(c.terms, c.terms[1:])]
    gap = min(gaps, default=None)
    bucket = 0 if gap is None else 1 if gap >= 1 else 2 if gap >= Fraction(1, 4) else 3
    return (len(alpha), sum(len(c.terms) for c in alpha), len(exps), bucket)


def _draw(ext, rng, k):
    if k % 2 == 0:
        return norm_ideal.sample_unit_generator(ext, rng)
    return norm_ideal.sample_generator(ext, rng)


def pilot(ext) -> dict:
    """Shape frequencies over a fixed pilot stream."""
    rng = random.Random(PILOT_SEED)
    freq = {}
    for k in range(PILOT_DRAWS):
        key = shape(_draw(ext, rng, k))
        freq[key] = freq.get(key, 0) + 1
    return freq


def quotas(freq: dict, count: int) -> dict:
    """Samples per alpha-support shape, proportional to the pilot
    frequencies (largest remainders), so every seed gets the same mix."""
    exact = {key: count * n / PILOT_DRAWS for key, n in freq.items()}
    out = {key: int(v) for key, v in exact.items()}
    spare = count - sum(out.values())
    for key in sorted(exact, key=lambda k: (out[k] - exact[k], k))[:spare]:
        out[key] += 1
    return out


def sample_ops(field: SampledField, ext, quota: dict, stream_seed: int,
               scale: float = 1.0) -> list[Op]:
    """Draws from one stream, in order, into the shape quotas."""
    want = {key: max(1, round(n * scale)) for key, n in quota.items() if n}
    rng = random.Random(stream_seed)
    ops = []
    k = 0
    while any(want.values()):
        b = _draw(ext, rng, k)
        k += 1
        key = shape(b)
        if want.get(key, 0) == 0:
            continue
        want[key] -= 1
        with_trace = len(ops) % 4 == 0
        ops.append(Op(f"{field.label} stream {stream_seed} draw {k - 1}", ext.p,
                      "sample", (b, with_trace), {}))
        if k > 100 * PILOT_DRAWS:
            raise RuntimeError(f"{field.label}: stream cannot fill the quotas")
    return ops


def chain_ops(field: SampledField, ext, count: int, budgets, rng) -> list[Op]:
    """Defect chains from the field's generator, one budget in each of
    ``count`` equal slices of the range; the seed picks within the slice."""
    lo, hi = budgets
    step = (hi - lo) // count
    return [Op(f"{field.label} normalize budget {b}", ext.p, "normalize",
               (ext.f, b), {"steps": b})
            for b in (lo + i * step + rng.randrange(step) for i in range(count))]


def anchor_op(field: SampledField, ext, stream_seed: int, index: int) -> Op:
    rng = random.Random(stream_seed)
    for k in range(index + 1):
        b = _draw(ext, rng, k)
    return Op(f"anchor {field.label} seed {stream_seed} draw {index}", ext.p,
              "sample", (b, False), {})


# -- the registry ------------------------------------------------------------------

SAMPLED = {"norm-ideal": NORM_IDEAL, "ferocious": FEROCIOUS,
           "dense-groups": DENSE_GROUPS}
WORKLOADS = ("interactive", "norm-ideal", "ferocious", "dense-groups")
INTERACTIVE_ROUNDS = 4


def build_fields(name: str) -> dict:
    """Every field (and, for sampled workloads, extension) a workload uses."""
    if name == "interactive":
        built = {}
        for flags, _, _ in SERIES_FIELDS:
            if flags[0] == "--field":
                spec = corpus.FIELD_PRESETS[flags[1]]
            else:
                spec = corpus.FieldSpec("series", flags[1], "int")
            built[flags] = spec.build()
        for p, m, with_y, prec in KUMMER_FIELDS:
            built[(p, m, with_y, prec)] = corpus.FieldSpec(
                "cyclo", p=p, m=m, with_y=with_y, precision=prec).build()
        return built
    fields = list(SAMPLED[name])
    fields += [field for field, _, _ in ANCHORS.get(name, ())]
    if name == "dense-groups":
        fields += [field for field, _, _ in DENSE_CHAINS]
    return {field: build_extension(field) for field in fields}


def generate(name: str, built: dict, seed: int, scale: float = 1.0) -> list[Op]:
    """The workload's input set at this seed; scale < 1 shrinks it for the
    self-test (anchors are left out there, being slow by design)."""
    if name == "interactive":
        return interactive_ops(seed, max(1, round(INTERACTIVE_ROUNDS * scale)))
    ops = []
    for field in SAMPLED[name]:
        ext = built[field]
        freq = pilot(ext)
        core = round(field.count * CORE_SHARE)
        ops += sample_ops(field, ext, quotas(freq, core), CORE_SEED, scale)
        ops += sample_ops(field, ext, quotas(freq, field.count - core), seed, scale)
    if name == "dense-groups":
        rng = random.Random(seed)
        for field, count, budgets in DENSE_CHAINS:
            if scale < 1:
                count, budgets = 1, (4, 8)
            ops += chain_ops(field, built[field], count, budgets, rng)
    if scale == 1:
        ops += [anchor_op(field, built[field], s, k)
                for field, s, k in ANCHORS.get(name, ())]
    return ops
