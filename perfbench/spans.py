"""Layer spans recorded from outside the package.

While a `Tracer` is installed, each public function named in `TARGETS`
is replaced by a wrapper in every `kfpls` module that holds it, so calls
between modules (``flows`` calling ``kernel_matrix`` and ``fit_pls``
directly, ``kpls`` calling ``gram_train``) are seen as well as calls from
the benchmark. A wrapper records one span: name, start, end and the index
of the span that was open when it started. Nothing under ``src/`` is
changed, and uninstalling restores the original functions.

A target that no longer exists is skipped, so a function that a later
change removes reports zero calls instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import re
import sys
import time
from collections import defaultdict

# Public functions wrapped per module of src/kfpls. ``datasets`` and
# ``metrics`` run only in set-up and checks, so they are not layers here.
TARGETS = {
    "kernels": ("pairwise_sq_dists", "train_sq_dists", "kernel_matrix",
                "gram_train", "center_train", "gram_test"),
    "pls": ("first_pc", "fit_pls", "predict_pls"),
    "kpls": ("fit_kpls", "predict_kpls", "load_model"),
    "flows": ("run_kernel_flows",),
    "pipeline": ("run_pipeline", "line_search_n_lv"),
    "cli": ("main", "load_calibrated_model", "write_table"),
    "_serialize": ("read_array_archive",),
}

# The CSV reader that `kfpls predict` calls, wherever it lives: today the
# private ``cli._read_feature_csv``; a merged reader in ``datasets`` would
# match too.
CSV_READER = re.compile(r"^_?(read|load)_\w*csv$")
CSV_READER_MODULES = ("cli", "datasets")


def _flow_info(result):
    trace = result[1]
    return (getattr(trace, "iterations_run", 0), getattr(trace, "n_skipped", 0))


# Counts taken from a call's result: kernel values computed, rows
# predicted, iterations run and skipped.
_INFO = {
    "kernels.kernel_matrix": lambda result: int(result.size),
    "kpls.predict_kpls": lambda result: int(result.shape[0]),
    "flows.run_kernel_flows": _flow_info,
}


def _span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr}"


def _targets():
    """(span name, function) for each target present."""
    found = []
    for module, attrs in TARGETS.items():
        mod = importlib.import_module(f"kfpls.{module}")
        for attr in attrs:
            fn = getattr(mod, attr, None)
            if callable(fn):
                found.append((_span_name(module, attr), fn))
    for module in CSV_READER_MODULES:
        mod = importlib.import_module(f"kfpls.{module}")
        for attr, fn in vars(mod).items():
            if CSV_READER.match(attr) and callable(fn) and fn.__module__ == mod.__name__:
                found.append((_span_name(module, attr), fn))
    return found


class Tracer:
    """Span recorder; spans stay in memory until `take` hands them over."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._targets = _targets()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        info = _INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target in every loaded kfpls module, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "kfpls" or n.startswith("kfpls.")) and m is not None]
        patched = []
        for name, fn in self._targets:
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one operation, derived from its spans.

    Self time is a span's duration minus the durations of its direct
    children. Spans are stored in start order, so a parent always precedes
    its children.
    """
    n = len(spans)
    child = [0.0] * n
    in_flow = [False] * n
    in_cli = [False] * n
    calls = defaultdict(int)
    wall = defaultdict(float)
    self_s = defaultdict(float)
    info = defaultdict(list)
    flow_calls = defaultdict(int)
    read_features_s = 0.0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_flow[i] = in_flow[parent]
            in_cli[i] = in_cli[parent]
        in_flow[i] = in_flow[i] or name == "flows.run_kernel_flows"
        in_cli[i] = in_cli[i] or name == "cli.main"
        if in_flow[i]:
            flow_calls[name] += 1
        if in_cli[i] and CSV_READER.match(name.split(".", 1)[1]):
            read_features_s += end - start
        if extra is not None:
            info[name].append(extra)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        wall[name] += end - start
        self_s[name] += end - start - child[i]

    iterations = sum(it for it, _ in info["flows.run_kernel_flows"])
    skipped = sum(sk for _, sk in info["flows.run_kernel_flows"])
    flow_wall = wall["flows.run_kernel_flows"]
    predict_wall = wall["kpls.predict_kpls"]
    rows = sum(info["kpls.predict_kpls"])

    def per_iter(value):
        return value / iterations if iterations else 0.0

    return {
        "kernels.kernel_matrix.self_s": self_s["kernels.kernel_matrix"],
        "kernels.kernel_matrix.entries": sum(info["kernels.kernel_matrix"]),
        "kernels.center_train.calls": calls["kernels.center_train"],
        "kernels.center_train.self_s": self_s["kernels.center_train"],
        "kernels.pairwise_sq_dists.self_s": self_s["kernels.pairwise_sq_dists"],
        "kernels.gram_test.self_s": self_s["kernels.gram_test"],
        "pls.fit_pls.calls": calls["pls.fit_pls"],
        "pls.fit_pls.self_s": self_s["pls.fit_pls"],
        "pls.first_pc.calls": calls["pls.first_pc"],
        "pls.first_pc.self_s": self_s["pls.first_pc"],
        "pls.predict_pls.self_s": self_s["pls.predict_pls"],
        "kpls.predict_kpls.wall_s": predict_wall,
        "kpls.predict_kpls.rows_per_s": rows / predict_wall if predict_wall else 0.0,
        "kpls.fit_kpls.calls": calls["kpls.fit_kpls"],
        "pipeline.line_search_n_lv.wall_s": wall["pipeline.line_search_n_lv"],
        "flows.run_kernel_flows.wall_s": flow_wall,
        "flows.run_kernel_flows.self_s": self_s["flows.run_kernel_flows"],
        "flows.iterations": iterations,
        "flows.iter_ms": 1e3 * per_iter(flow_wall),
        "flows.fits_per_iter": per_iter(flow_calls["pls.fit_pls"]),
        "flows.kernel_evals_per_iter": per_iter(flow_calls["kernels.kernel_matrix"]),
        "flows.skipped": skipped,
        "pipeline.post_flow_s": wall["pipeline.run_pipeline"] - flow_wall,
        "cli.load_calibrated_model.wall_s": wall["cli.load_calibrated_model"],
        "serialize.read_array_archive.calls": calls["serialize.read_array_archive"],
        "cli.read_features_s": read_features_s,
        "cli.write_table.wall_s": wall["cli.write_table"],
        "cli.main.self_s": self_s["cli.main"],
    }
