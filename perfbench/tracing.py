"""Spans at sigspline's module boundaries, installed from outside the package.

``Tracer.installed()`` replaces every public function of the layer modules
with a wrapper that records a span (name, start, end, parent span, run id).
A function imported by name into another module (``model.signature_of_sequence``,
``evaluation.extend_path``, the package ``__init__`` re-exports, ...) is
replaced in that namespace too, so every call path is seen. Leaving the
``with`` block restores the originals, so untraced repetitions run the
unmodified program.

Spans are kept in memory and written out once by :meth:`Tracer.write`.
Self time of a span is its duration minus the durations of its direct
child spans. Per-layer metrics aggregate spans into the groups of
``GROUPS``; a function that no longer exists, or is never called, yields
zero calls rather than an error.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = (
    "signature",
    "tensor_algebra",
    "augmentations",
    "calibration",
    "model",
    "spline",
    "evaluation",
    "dataio",
    "synthetic",
)

# Shape and validation helpers called at every boundary: a span around each
# would cost more than the helper and its time belongs to the caller.
UNTRACED = {"signature.as_sequence", "tensor_algebra.feature_count"}

PACKAGE = "sigspline"


def _module(prefix):
    return lambda name: name.startswith(prefix + ".")


def _functions(*names):
    return lambda name: name in names


# metric prefix -> which traced functions make up the group
GROUPS = {
    "signature": _module("signature"),
    "tensor_algebra.tensor_product": _functions("tensor_algebra.tensor_product"),
    "augmentations.embed": _module("augmentations"),
    "calibration.design": _functions("calibration.build_design"),
    "calibration.multi_seed_fit": _functions("calibration.multi_seed_fit"),
    "model.sample_step": _functions("model.sample_step"),
    "model.conditional_increments": _functions(
        "model.conditional_increments", "model.feature_map"
    ),
    "model.log_likelihood": _functions("model.log_likelihood"),
    "spline.spline_inverse": _functions("spline.spline_inverse"),
    "spline.softmax": _functions("spline.softmax"),
    "evaluation.statistics": _functions(
        "evaluation.dataset_statistics",
        "evaluation.acf",
        "evaluation.abs_return_acf",
        "evaluation.skewness",
        "evaluation.kurtosis",
        "evaluation.cross_correlation",
    ),
    "evaluation.evaluate": _functions("evaluation.evaluate"),
    "dataio.read": _functions("dataio.read_series_csv"),
    "dataio.write": _functions("dataio.write_series_csv", "dataio.write_batch_csv"),
    "synthetic.simulate": _module("synthetic"),
}


def _file_bytes(counter):
    def meter(count, args, kwargs):
        path = kwargs.get("path", args[0] if args else None)
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            count(counter, os.path.getsize(path))

    return meter


def _design_rows(count, args, kwargs):
    count("calibration.design.rows", len(kwargs.get("dataset", args[0] if args else ())))


# counts taken at a boundary after the call returns, outside the span
METERS = {
    "dataio.read_series_csv": _file_bytes("dataio.read.bytes"),
    "dataio.write_series_csv": _file_bytes("dataio.write.bytes"),
    "dataio.write_batch_csv": _file_bytes("dataio.write.bytes"),
    "calibration.build_design": _design_rows,
}


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self.run_ids: list[str] = []
        # [name index, start, end, parent span index or -1, run id index]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._name_index: dict[str, int] = {}
        self._run = -1
        self._stack: list[int] = []
        self.active = False

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def start_run(self, run_id: str) -> None:
        """Tag the spans that follow with ``run_id`` (a setup or a repetition)."""
        self._run = len(self.run_ids)
        self.run_ids.append(run_id)

    def count(self, name: str, value: float) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code, such as one CLI stage."""
        if not self.active:
            yield
            return
        record = [self._intern(name), 0.0, 0.0, self._stack[-1] if self._stack else -1, self._run]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        index = self._intern(name)
        meter = METERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, self._run]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if meter is not None:
                    meter(self.count, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap traced wrappers into every sigspline namespace for the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[id(value)] = self._wrap(name, value)
        patched = []
        namespaces = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for module, attr, value in patched:
                setattr(module, attr, value)

    # ------------------------------------------------------------------
    # aggregation

    def _arrays(self):
        table = np.asarray(self.spans, dtype=float).reshape(-1, 5)
        names = table[:, 0].astype(int)
        duration = table[:, 2] - table[:, 1]
        parent = table[:, 3].astype(int)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(table)
        )
        return names, duration, parent, duration - child_time

    def group_stats(self) -> dict[str, dict]:
        """Per group: entry calls, self seconds, entry durations (inclusive)."""
        names, duration, parent, self_time = self._arrays()
        has_parent = parent >= 0
        out = {}
        for group, member in GROUPS.items():
            in_group = np.array([member(n) for n in self.names], dtype=bool)
            span_in = in_group[names]
            parent_in = np.zeros_like(span_in)
            parent_in[has_parent] = span_in[parent[has_parent]]
            entries = span_in & ~parent_in
            out[group] = {
                "calls": int(entries.sum()),
                "self_s": float(self_time[span_in].sum()),
                "entry_durations": duration[entries],
            }
        return out

    def nested_duration(self, child: str, ancestor: str) -> float:
        """Total duration of ``child`` spans that run inside an ``ancestor`` span."""
        if child not in self._name_index or ancestor not in self._name_index:
            return 0.0
        child_i, anc_i = self._name_index[child], self._name_index[ancestor]
        total = 0.0
        for record in self.spans:
            if record[0] != child_i:
                continue
            p = record[3]
            while p >= 0 and self.spans[p][0] != anc_i:
                p = self.spans[p][3]
            if p >= 0:
                total += record[2] - record[1]
        return total

    def write(self, path, header: dict) -> None:
        """Write all spans and counters once, at the end of the run."""
        doc = {
            **header,
            "span_fields": ["name", "start_s", "end_s", "parent", "run_id"],
            "names": self.names,
            "run_ids": self.run_ids,
            "counters": self.counters,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
