"""Tracing for the untimed second pass: spans at coarse boundaries, counts
and self time for the hot element operations.

Every traced function is replaced by a wrapper in every valuata module that
binds it, because ``cli``, ``corpus`` and ``norm_ideal`` import several of
them by name; patching only the defining module would miss those calls.
Methods are patched on their class, which every instance shares.

A frame is pushed for every wrapped call, so self time (duration minus the
time covered by wrapped children) is exact for spans and hot operations
alike.  Spans are kept in memory with name, start, end, parent and the
operation they belong to; hot operations are aggregated per enclosing span
name instead of being recorded one by one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, metric name, kind).  kind "span" records a span
# per call; kind "hot" only aggregates.  Several attributes may share one
# metric name (GroupElt.arith covers +, -, negation, scale and divide).
TRACED = (
    ("cli", "main", "cli.main", "span"),
    ("dsl", "parse_expr", "dsl.parse_expr", "span"),
    ("corpus", "FieldSpec.build", "corpus.FieldSpec.build", "span"),
    ("corpus", "run_corpus", "corpus.run_corpus", "span"),
    ("best_f", "classify", "best_f.classify", "span"),
    ("best_f", "normalize", "best_f.normalize", "span"),
    ("best_f", "classical_swan", "best_f.classical_swan", "span"),
    ("kummer", "classify_h", "kummer.classify_h", "span"),
    ("kummer", "normalize_h", "kummer.normalize_h", "span"),
    ("kummer", "CycloElt.__mul__", "kummer.CycloElt.mul", "hot"),
    ("kummer", "CycloElt.invert", "kummer.CycloElt.invert", "hot"),
    ("norm_ideal", "y_construct", "norm_ideal.y_construct", "span"),
    ("norm_ideal", "verify_trace_lemma", "norm_ideal.verify_trace_lemma", "span"),
    ("as_extension", "ExtElt.__mul__", "as_extension.ExtElt.mul", "hot"),
    ("as_extension", "ExtElt.sigma", "as_extension.ExtElt.sigma", "hot"),
    ("as_extension", "ExtElt.norm", "as_extension.ExtElt.norm", "span"),
    ("as_extension", "ExtElt.invert", "as_extension.ExtElt.invert", "span"),
    ("as_extension", "ExtElt.valuation_L", "as_extension.ExtElt.valuation_L", "span"),
    ("hahn_series", "SeriesElt.__mul__", "hahn_series.SeriesElt.mul", "hot"),
    ("hahn_series", "SeriesElt.__add__", "hahn_series.SeriesElt.add", "hot"),
    ("hahn_series", "SeriesElt.invert", "hahn_series.SeriesElt.invert", "span"),
    ("value_group", "GroupElt.__add__", "value_group.GroupElt.arith", "hot"),
    ("value_group", "GroupElt.__sub__", "value_group.GroupElt.arith", "hot"),
    ("value_group", "GroupElt.__neg__", "value_group.GroupElt.arith", "hot"),
    ("value_group", "GroupElt.scale", "value_group.GroupElt.arith", "hot"),
    ("value_group", "GroupElt.divide", "value_group.GroupElt.arith", "hot"),
    ("value_group", "GroupElt.__lt__", "value_group.GroupElt.compare", "hot"),
    ("value_group", "GroupElt.__gt__", "value_group.GroupElt.compare", "hot"),
    ("value_group", "GroupElt.__ge__", "value_group.GroupElt.compare", "hot"),
    ("value_group", "GroupElt.__eq__", "value_group.GroupElt.compare", "hot"),
    ("value_group", "GroupElt.__hash__", "value_group.GroupElt.compare", "hot"),
    ("residue_field", "GFElt.__mul__", "residue_field.GF.mul", "hot"),
    ("residue_field", "GFElt.__add__", "residue_field.GF.add", "hot"),
    ("residue_field", "GFElt.__sub__", "residue_field.GF.add", "hot"),
    ("residue_field", "RatFuncElt.__mul__", "residue_field.RatFunc.mul", "hot"),
    ("residue_field", "RatFuncElt.__add__", "residue_field.RatFunc.add", "hot"),
    ("residue_field", "poly_gcd", "residue_field.poly_gcd", "hot"),
)

PACKAGE_MODULES = ("cli", "dsl", "corpus", "best_f", "kummer", "norm_ideal",
                   "as_extension", "hahn_series", "value_group",
                   "residue_field", "sampling")


class Tracer:
    """Installs wrappers, collects spans and aggregates, and removes them."""

    def __init__(self):
        self._clock = time.perf_counter
        # a frame is [metric name, time covered by wrapped children]
        self.stack = [["root", 0.0]]
        self.span_stack = [None]          # ids of the open spans
        self.spans = []                   # [id, name, start, end, parent, op]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.by_parent = defaultdict(lambda: [0, 0.0])
        self.marks = defaultdict(int)     # counters and high-water marks
        self.hits = defaultdict(int)      # calls per wrapped attribute
        self.op_label = None
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        for module_name, path, metric, kind in TRACED:
            module = sys.modules[f"valuata.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, metric, kind, f"{module_name}.{path}")
                self._set(cls, attr, original, wrapper)
            else:
                original = getattr(module, path)
                wrapper = self._wrap(original, metric, kind, f"{module_name}.{path}")
                for binder in self._binders():
                    for name, value in list(vars(binder).items()):
                        if value is original:
                            self._set(binder, name, original, wrapper)

    @staticmethod
    def _binders():
        names = ("valuata",) + tuple(f"valuata.{m}" for m in PACKAGE_MODULES)
        return [sys.modules[n] for n in names if n in sys.modules]

    def _set(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def unwrapped_bindings(self):
        """Names in valuata modules still bound to an original traced function."""
        wrapped = {id(orig) for _, _, orig in self._undo}
        left = []
        for binder in self._binders():
            for name, value in vars(binder).items():
                if callable(value) and id(value) in wrapped:
                    left.append(f"{binder.__name__}.{name}")
        return left

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, metric, kind, key):
        clock = self._clock
        stack = self.stack
        span_stack = self.span_stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        by_parent = self.by_parent
        after = _AFTER.get(metric)
        hits = self.hits
        tracer = self

        if kind == "span":
            def wrapper(*args, **kwargs):
                frame = [metric, 0.0]
                parent = stack[-1]
                span_id = len(spans)
                record = [span_id, metric, 0.0, 0.0, span_stack[-1], tracer.op_label]
                spans.append(record)
                stack.append(frame)
                span_stack.append(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    span_stack.pop()
                    record[2] = start
                    record[3] = end
                    elapsed = end - start
                    parent[1] += elapsed
                    calls[metric] += 1
                    hits[key] += 1
                    self_s[metric] += elapsed - frame[1]
                if after is not None:
                    after(tracer, parent[0], args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                frame = [metric, 0.0]
                parent = stack[-1]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent[1] += elapsed
                    mine = elapsed - frame[1]
                    calls[metric] += 1
                    hits[key] += 1
                    self_s[metric] += mine
                    agg = by_parent[(_span_name(spans, span_stack[-1]), metric)]
                    agg[0] += 1
                    agg[1] += mine
                if after is not None:
                    after(tracer, parent[0], args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    # -- an operation of the workload --------------------------------------

    def op_span(self, label, fn, *args):
        """Run one workload operation as the root span of its own tree."""
        self.op_label = label
        try:
            return self._wrap(fn, "op", "span", "op")(*args)
        finally:
            self.op_label = None

    # -- results ------------------------------------------------------------

    def dump(self):
        return {
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "op": s[5]} for s in self.spans],
            "hot_by_parent": [{"parent": parent, "name": name, "calls": c,
                               "self_s": t}
                              for (parent, name), (c, t)
                              in sorted(self.by_parent.items(),
                                        key=lambda kv: (str(kv[0][0]), kv[0][1]))],
        }


def _span_name(spans, span_id):
    return None if span_id is None else spans[span_id][1]


# -- counters read from arguments and results --------------------------------


def _normalize_after(tracer, parent, args, outcome):
    tracer.marks["best_f.normalize.steps"] += outcome.steps


def _normalize_h_after(tracer, parent, args, outcome):
    tracer.marks["kummer.normalize_h.steps"] += outcome.steps


def _y_construct_after(tracer, parent, args, sample):
    tracer.marks["norm_ideal.samples"] += 1
    tracer.marks["norm_ideal.holds"] += int(sample.holds)


def _norm_after(tracer, parent, args, value):
    if parent == "as_extension.ExtElt.valuation_L":
        tracer.marks["valuation_L.norm_terms"] += len(value.terms)
        tracer.marks["valuation_L.norms"] += 1


def _series_mul_after(tracer, parent, args, out):
    a, b = args
    marks = tracer.marks
    marks["series_mul.term_pairs"] += len(a.terms) * len(b.terms)
    marks["series_mul.out_terms"] += len(out.terms)
    biggest = max(len(a.terms), len(b.terms), len(out.terms))
    if biggest > marks["series_mul.max_terms"]:
        marks["series_mul.max_terms"] = biggest
    if parent == "hahn_series.SeriesElt.invert":
        marks["series_invert.muls"] += 1


def _gcd_after(tracer, parent, args, g):
    tracer.marks["poly_gcd.useful"] += int(len(g) > 1)


def _ratfunc_after(tracer, parent, args, out):
    deg = max(len(out.num), len(out.den)) - 1
    if deg > tracer.marks["ratfunc.max_deg_y"]:
        tracer.marks["ratfunc.max_deg_y"] = deg


_AFTER = {
    "best_f.normalize": _normalize_after,
    "kummer.normalize_h": _normalize_h_after,
    "norm_ideal.y_construct": _y_construct_after,
    "as_extension.ExtElt.norm": _norm_after,
    "hahn_series.SeriesElt.mul": _series_mul_after,
    "residue_field.poly_gcd": _gcd_after,
    "residue_field.RatFunc.mul": _ratfunc_after,
    "residue_field.RatFunc.add": _ratfunc_after,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values from a finished traced pass."""
    out = {}
    for metric in dict.fromkeys(m for _, _, m, _ in TRACED):
        out[f"{metric}.calls"] = (tracer.calls[metric], "count")
        out[f"{metric}.self_s"] = (tracer.self_s[metric], "s")
    marks = tracer.marks
    out["best_f.normalize.steps"] = (marks["best_f.normalize.steps"], "count")
    out["kummer.normalize_h.steps"] = (marks["kummer.normalize_h.steps"], "count")
    out["norm_ideal.holds_ratio"] = (
        _ratio(marks["norm_ideal.holds"], marks["norm_ideal.samples"]), "ratio")
    out["as_extension.ExtElt.valuation_L.norm_terms"] = (
        _ratio(marks["valuation_L.norm_terms"], marks["valuation_L.norms"]), "terms")
    out["hahn_series.SeriesElt.mul.term_pairs"] = (marks["series_mul.term_pairs"], "count")
    out["hahn_series.SeriesElt.mul.kept_ratio"] = (
        _ratio(marks["series_mul.out_terms"], marks["series_mul.term_pairs"]), "ratio")
    out["hahn_series.SeriesElt.mul.max_terms"] = (marks["series_mul.max_terms"], "terms")
    out["hahn_series.SeriesElt.invert.mul_per_call"] = (
        _ratio(marks["series_invert.muls"],
               tracer.calls["hahn_series.SeriesElt.invert"]), "ratio")
    out["residue_field.poly_gcd.useful_ratio"] = (
        _ratio(marks["poly_gcd.useful"], tracer.calls["residue_field.poly_gcd"]), "ratio")
    out["residue_field.RatFunc.max_deg_y"] = (marks["ratfunc.max_deg_y"], "degree")
    return out
