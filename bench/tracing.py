"""Span tracing of qscond from outside the package.

``Tracer.install`` replaces every public function of the qscond modules with
a wrapper that records a span (id, parent id, operation id, name, start,
end).  A name can be bound in several module namespaces (``experiments``
imports ``cond_report`` and ``matrix_inverse`` by name, ``cli`` imports
``cond_qs`` and others), so the wrapper is installed in every namespace that
holds the function, not only where it is defined.  ``uninstall`` restores
the originals.  Spans stay in memory until ``write``.

Spans opened on a worker thread with no open span of their own take as
parent the innermost span open on the thread that installed the tracer;
this is how the spans of ``qscond verify``'s thread pool nest under
``cli.cmd_verify``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

MODULES = ("qsrep", "sensitivity", "condnum", "oracle", "experiments", "io", "cli")

# Per-layer metrics: name -> (unit, span names, what is summed).  "calls"
# counts spans, "self" sums self time (span minus its child spans) in ms.
# Every value is divided by the number of operations traced.
LAYER_METRICS = {
    "qsrep.materialize_calls": ("count", ("qsrep.qs_materialize", "qsrep.gv_materialize"), "calls"),
    "qsrep.materialize_ms": ("ms", ("qsrep.qs_materialize", "qsrep.gv_materialize"), "self"),
    "qsrep.from_dense_ms": ("ms", ("qsrep.qs_from_dense",), "self"),
    "condnum.inverse_calls": ("count", ("condnum.matrix_inverse",), "calls"),
    "condnum.inverse_ms": ("ms", ("condnum.matrix_inverse",), "self"),
    "condnum.cond_qs_ms": ("ms", ("condnum.cond_qs",), "self"),
    "condnum.cond_gv_ms": ("ms", ("condnum.cond_gv",), "self"),
    "condnum.cond_eff_ms": ("ms", ("condnum.cond_eff",), "self"),
    "condnum.cond_unstructured_ms": ("ms", ("condnum.cond_unstructured",), "self"),
    "condnum.cond_unstructured_sparse_ms": ("ms", ("condnum.cond_unstructuredA_sparseB",), "self"),
    "condnum.report_self_ms": ("ms", ("condnum.cond_report",), "self"),
    "sensitivity.derivatives_calls": (
        "count",
        ("sensitivity.qs_weighted_derivatives", "sensitivity.gv_weighted_derivatives"),
        "calls",
    ),
    "sensitivity.derivatives_ms": ("ms", "sensitivity.", "self"),
    "oracle.sup_calls": ("count", ("oracle.linearized_sup_oracle",), "calls"),
    "oracle.sup_ms": ("ms", ("oracle.linearized_sup_oracle",), "self"),
    "experiments.generate_ms": (
        "ms",
        ("experiments.gen_random_gv", "experiments.gen_illscaled_qs", "experiments.gen_sparse_rhs"),
        "self",
    ),
    "experiments.table_self_ms": ("ms", ("experiments.run_table",), "self"),
    "io.parse_ms": (
        "ms",
        ("io.params_from_json", "io.rhs_from_text", "io.matrix_from_text", "io.weights_from_text"),
        "self",
    ),
    "cli.self_ms": ("ms", "cli.", "self"),
}


class Tracer:
    """Records spans of qscond calls while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.mask_bytes: dict[int, int] = defaultdict(int)  # op -> SparseRhs mask bytes
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op, name, start, end))

        return wrapper

    def install(self) -> None:
        import importlib

        self._local.stack = self._home_stack
        modules = {m: importlib.import_module(f"qscond.{m}") for m in MODULES}
        package = importlib.import_module("qscond")
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for ns in [package, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

        # SparseRhs keeps one dense n-by-m pattern per term; count its bytes
        # (terms x n x m x 8) at construction.
        sparse_rhs = modules["condnum"].SparseRhs
        post_init = sparse_rhs.__post_init__
        tracer = self

        def counting_post_init(obj):
            post_init(obj)
            tracer.mask_bytes[tracer.op] += len(obj.terms) * obj.n * obj.m * 8

        self._patches.append((sparse_rhs, "__post_init__", post_init))
        sparse_rhs.__post_init__ = counting_post_init

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def write(self, path, **meta) -> None:
        fields = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump({**meta, "fields": fields, "spans": self.spans}, fh)

    def self_times(self) -> list[tuple[str, int, float]]:
        """(name, op, self seconds) per span: duration minus the union of its children."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for sid, _, op, name, start, end in self.spans:
            covered, cur_start, cur_end = 0.0, None, None
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, start), min(c_end, end)
                if cur_end is None or c_start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = c_start, c_end
                else:
                    cur_end = max(cur_end, c_end)
            if cur_end is not None:
                covered += cur_end - cur_start
            out.append((name, op, end - start - covered))
        return out

    def layer_metrics(self, ops: int) -> dict[str, dict]:
        """Per-operation per-layer metrics over ``ops`` traced operations."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, _, dur in self.self_times():
            calls[name] += 1
            self_s[name] += dur
        out = {}
        for metric, (unit, names, kind) in LAYER_METRICS.items():
            if isinstance(names, str):  # a module prefix
                picked = [k for k in self_s if k.startswith(names)]
            else:
                picked = names
            if kind == "calls":
                value = sum(calls[k] for k in picked) / ops
            else:
                value = 1e3 * sum(self_s[k] for k in picked) / ops
            out[metric] = {"value": value, "unit": unit}
        mib = sum(self.mask_bytes.values()) / 2**20 / ops
        out["condnum.rhs_mask_mb"] = {"value": mib, "unit": "MB-computed"}
        return out
