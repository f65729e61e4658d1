"""Spans around the public functions of homtrees, recorded from outside.

`install()` replaces each traced function by a wrapper in every loaded
homtrees module that holds it, so a name imported with `from .trees
import parse` is traced as well as `trees.parse`.  RowSpace methods are
wrapped on the class.  A wrapper does nothing but call through while
the tracer is off, so the benchmark's own checks are not traced.

Each span has a name, start, end and parent.  Self time is a span's
duration minus the time of its child spans; calls nest on one thread,
so children never overlap.  Totals per name are kept for every span;
the spans themselves are kept up to SPAN_CAP and written out at the end
of the run.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

SPAN_CAP = 200_000

# (module, attribute, span name); RowSpace methods are listed in install()
FUNCTIONS = [
    ("trees", "parse", "trees.parse"),
    ("trees", "to_text", "trees.to_text"),
    ("trees", "enumerate_class", "trees.enumerate_class"),
    ("freehom", "class_context", "freehom.class_context"),
    ("freehom", "equal_mod_I", "freehom.equal_mod_I"),
    ("freehom", "normal_form", "freehom.normal_form"),
    ("freehom", "coproduct", "freehom.coproduct"),
    ("freehom", "reduce_tensor", "freehom.reduce_tensor"),
    ("freehom", "invertibility_index", "freehom.invertibility_index"),
    ("ueg", "build_level", "ueg.build_level"),
    ("ueg", "equal_mod_U", "ueg.equal_mod_U"),
    ("ueg", "coproduct_U", "ueg.coproduct_U"),
    ("ueg", "reduce_tensor_U", "ueg.reduce_tensor_U"),
    ("grouplike", "validate_sequence", "grouplike.validate_sequence"),
    ("grouplike", "homgroup_product", "grouplike.homgroup_product"),
    ("grouplike", "homgroup_inverse", "grouplike.homgroup_inverse"),
    ("grouplike", "exp_sequence", "grouplike.exp_sequence"),
    ("homlie", "load_algebra", "homlie.load_algebra"),
    ("homlie", "validate", "homlie.validate"),
]

LAYERS = ("trees", "linalg", "freehom", "ueg", "grouplike", "homlie")


class Tracer:
    def __init__(self):
        self.on = False
        self.stack = []  # [span id, start ns, child ns] per open span
        self.next_id = 0
        self.job = 0  # the job that spans belong to
        self.spans = []  # (job, id, name, start ns, end ns, parent id)
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [span_id, perf_counter_ns(), 0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after:
                    after(result, args, state)
                return result
            finally:
                tracer.stack.pop()
                end = perf_counter_ns()
                duration = end - frame[1]
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[2]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.job, span_id, name, frame[1], end, parent))

        traced.original = fn
        return traced

    def merge(self, stats: dict) -> None:
        """Add the totals that a traced child process wrote out."""
        for key in ("calls", "total_ns", "self_ns", "counts"):
            getattr(self, key).update(stats[key])

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in every loaded homtrees module."""
    from homtrees import freehom, linalg, ueg

    modules = [m for name, m in sys.modules.items()
               if name == "homtrees" or name.startswith("homtrees.")]
    counts = tracer.counts

    def count_trees(result, args, state):
        counts["trees.enumerate_class.trees"] += len(result)

    class_context = freehom.class_context

    def class_cache(args):
        return class_context.cache_info().misses

    def count_class(result, args, misses_before):
        if class_context.cache_info().misses > misses_before:
            counts["freehom.class_context.builds"] += 1
            counts["freehom.class_context.basis"] += len(result.basis)
            counts["freehom.class_context.rows"] += len(result.row_sources)
        else:
            counts["freehom.class_context.hits"] += 1

    def count_certificate(result, args, state):
        if result.equal:
            counts["freehom.cert_terms"] += sum(len(c) for c in result.certificates.values())

    def level_cache(args):
        return len(ueg._level_cache)

    def count_level(result, args, size_before):
        if len(ueg._level_cache) > size_before:
            counts["ueg.build_level.builds"] += 1
            counts["ueg.build_level.basis"] += len(result.basis)
            counts["ueg.build_level.rows"] += len(result.row_sources)
            counts["ueg.build_level.rank"] += result.space.rank

    hooks = {
        "trees.enumerate_class": (None, count_trees),
        "freehom.class_context": (class_cache, count_class),
        "freehom.equal_mod_I": (None, count_certificate),
        "ueg.build_level": (level_cache, count_level),
    }
    for module_name, attr, span in FUNCTIONS:
        module = sys.modules["homtrees." + module_name]
        target = getattr(module, attr)
        before, after = hooks.get(span, (None, None))
        wrapper = tracer.wrap(span, target, before, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is target:
                    setattr(m, key, wrapper)

    def count_rowspace(result, args, state):
        space = args[0]
        counts["linalg.rowspace.rows_in"] += space.n_inputs
        counts["linalg.rowspace.rank"] += space.rank
        counts["linalg.rowspace.nnz"] += sum(len(row) for row in space.rows())

    row_space = linalg.RowSpace
    row_space.__init__ = tracer.wrap("linalg.rowspace.build", row_space.__init__,
                                     after=count_rowspace)
    row_space.membership = tracer.wrap("linalg.membership", row_space.membership)
    row_space.reduce = tracer.wrap("linalg.reduce", row_space.reduce)


def original(fn):
    """The function a wrapper calls through to (fn itself if unwrapped)."""
    return getattr(fn, "original", fn)


def layer_metrics(stats: dict, scale: float) -> dict:
    """Per-layer metric values from tracer totals, each multiplied by scale.

    Counts and seconds are per round when scale is 1 / rounds.
    """
    calls = stats["calls"]
    total = stats["total_ns"]
    counts = stats["counts"]

    def c(name):
        return calls.get(name, 0) * scale

    def s(name):
        return total.get(name, 0) * 1e-9 * scale

    def k(name):
        return counts.get(name, 0) * scale

    out = {
        "trees.enumerate_class.calls": c("trees.enumerate_class"),
        "trees.enumerate_class.trees": k("trees.enumerate_class.trees"),
        "trees.enumerate_class.s": s("trees.enumerate_class"),
        "trees.parse.calls": c("trees.parse"),
        "trees.to_text.calls": c("trees.to_text"),
        "trees.parse.s": s("trees.parse"),
        "trees.to_text.s": s("trees.to_text"),
        "linalg.rowspace.builds": c("linalg.rowspace.build"),
        "linalg.rowspace.rows_in": k("linalg.rowspace.rows_in"),
        "linalg.rowspace.rank": k("linalg.rowspace.rank"),
        "linalg.rowspace.nnz": k("linalg.rowspace.nnz"),
        "linalg.rowspace.build_s": s("linalg.rowspace.build"),
        "linalg.membership.calls": c("linalg.membership"),
        "linalg.reduce.calls": c("linalg.reduce"),
        "linalg.membership.s": s("linalg.membership"),
        "linalg.reduce.s": s("linalg.reduce"),
        "freehom.class_context.builds": k("freehom.class_context.builds"),
        "freehom.class_context.hits": k("freehom.class_context.hits"),
        "freehom.class_context.basis": k("freehom.class_context.basis"),
        "freehom.class_context.rows": k("freehom.class_context.rows"),
        "freehom.class_context.s": s("freehom.class_context"),
        "freehom.cert_terms": k("freehom.cert_terms"),
        "freehom.equal_mod_I.calls": c("freehom.equal_mod_I"),
        "freehom.equal_mod_I.s": s("freehom.equal_mod_I"),
        "freehom.normal_form.s": s("freehom.normal_form"),
        "freehom.coproduct.s": s("freehom.coproduct"),
        "freehom.reduce_tensor.s": s("freehom.reduce_tensor"),
        "freehom.invertibility_index.s": s("freehom.invertibility_index"),
        "ueg.build_level.builds": k("ueg.build_level.builds"),
        "ueg.build_level.basis": k("ueg.build_level.basis"),
        "ueg.build_level.rows": k("ueg.build_level.rows"),
        "ueg.build_level.rank": k("ueg.build_level.rank"),
        "ueg.build_level.s": s("ueg.build_level"),
        "ueg.levels_tried": c("ueg.equal_mod_U"),
        "ueg.equal_mod_U.s": s("ueg.equal_mod_U"),
        "ueg.coproduct_U.s": s("ueg.coproduct_U"),
        "ueg.reduce_tensor_U.s": s("ueg.reduce_tensor_U"),
        "grouplike.validate_sequence.s": s("grouplike.validate_sequence"),
        "grouplike.homgroup_product.s": s("grouplike.homgroup_product"),
        "grouplike.homgroup_inverse.s": s("grouplike.homgroup_inverse"),
        "grouplike.exp_sequence.s": s("grouplike.exp_sequence"),
        "homlie.load_algebra.s": s("homlie.load_algebra"),
        "homlie.validate.s": s("homlie.validate"),
    }
    for layer in LAYERS:
        out["%s.self_s" % layer] = sum(
            ns for name, ns in stats["self_ns"].items() if name.split(".")[0] == layer
        ) * 1e-9 * scale
    return out
