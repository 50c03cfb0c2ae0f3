"""Spans around calls into qbs_sim's public functions.

The wrappers are installed by rebinding module and class attributes, so no
program file changes.  Every call a module makes through such an attribute
(``apply_all`` calling ``apply``, ``run`` calling
``joint_outcome_probabilities``, the CLI calling ``qdc.surface``) records a
span: name, start, end, parent span and operation id.  Spans are kept in
memory in flat arrays and summarised (and written out) after the run.  A
target that a later version of the program no longer has is not wrapped; it
is named in ``Tracer.missing``, and the traced run fails instead of reading
its metrics as 0.
"""
from __future__ import annotations

import array
import importlib
import time
from functools import wraps

import numpy as np

ROOT_SPAN = "cli"


def _count_run(tracer: "Tracer", table) -> None:
    tracer.count("montecarlo.shots", getattr(table, "shots", 0))
    tracer.count("montecarlo.valid", getattr(table, "valid", 0))


def _count_payload(tracer: "Tracer", text) -> None:
    tracer.count("surfaces.payload_bytes", len(str(text).encode()))


#: (span name, module of qbs_sim, attribute path, result observer)
TARGETS = (
    ("states.new_state", "states", "TwoPhotonState.__init__", None),
    ("elements.construct", "elements", "OpticalElement.__init__", None),
    ("elements.check_unitary", "elements", "check_unitary", None),
    ("elements.apply", "elements", "apply", None),
    ("experiment.build_qdc_state", "experiment", "build_qdc_state", None),
    ("experiment.category_probability", "experiment", "category_probability", None),
    ("experiment.surface", "experiment", "surface", None),
    ("montecarlo.run", "montecarlo", "run", _count_run),
    ("montecarlo.joint_outcome_probabilities", "montecarlo",
     "joint_outcome_probabilities", None),
    ("analysis.fit_visibility", "analysis", "fit_visibility", None),
    ("analysis.surface_from_counts", "analysis", "surface_from_counts", None),
    ("surfaces.to_csv", "surfaces", "CorrelationSurface.to_csv", _count_payload),
)
SPAN_NAMES = (ROOT_SPAN,) + tuple(t[0] for t in TARGETS)
LAYERS = ("states", "elements", "experiment", "montecarlo", "analysis",
          "surfaces", "cli")

#: per-layer metrics reported by a traced run: (name, unit, better).
#: Times and counts are per operation, the median over the traced operations.
PER_LAYER = (
    ("states.new_state.calls", "count", "lower"),
    ("states.new_state.s", "s", "lower"),
    ("elements.construct.calls", "count", "lower"),
    ("elements.construct.self_s", "s", "lower"),
    ("elements.check_unitary.s", "s", "lower"),
    ("elements.apply.calls", "count", "lower"),
    ("elements.apply.self_s", "s", "lower"),
    ("experiment.build_qdc_state.calls", "count", "lower"),
    ("experiment.build_qdc_state.self_s", "s", "lower"),
    ("experiment.category_probability.calls", "count", "lower"),
    ("experiment.category_probability.self_s", "s", "lower"),
    ("experiment.surface.self_s", "s", "lower"),
    ("montecarlo.run.calls", "count", "lower"),
    ("montecarlo.run.self_s", "s", "lower"),
    ("montecarlo.joint_outcome_probabilities.calls", "count", "lower"),
    ("montecarlo.joint_outcome_probabilities.self_s", "s", "lower"),
    ("montecarlo.shots", "count", "higher"),
    ("montecarlo.shots_per_busy_s", "1/s", "higher"),
    ("montecarlo.valid_frac", "frac", "higher"),
    ("analysis.fit_visibility.calls", "count", "lower"),
    ("analysis.fit_visibility.s", "s", "lower"),
    ("analysis.surface_from_counts.s", "s", "lower"),
    ("surfaces.to_csv.s", "s", "lower"),
    ("surfaces.payload_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
) + tuple((f"{layer}.share", "frac", "lower") for layer in LAYERS) + (
    ("trace.overhead_frac", "frac", "lower"),
)


def _resolve(owner, path: str):
    """(object holding the attribute, attribute name), or (None, name) if the
    program has no such target."""
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None:
        return None, attr
    # a class's own attributes only: every class inherits object.__init__
    present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    return (owner, attr) if present else (None, attr)


class Tracer:
    """Span recorder.  ``install`` wraps the targets and ``uninstall``
    restores the originals; the caller opens each operation's root span
    (id 0, ``ROOT_SPAN``) after setting ``current_op``."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[tuple[int, str], int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        #: span names whose target the program does not have
        self.missing: set[str] = set()

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        k = (self.current_op, key)
        self.counters[k] = self.counters.get(k, 0) + int(n)

    def _wrap(self, fn, name_id: int, observe):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, path, observe in TARGETS:
            mod = importlib.import_module(f"qbs_sim.{module}")
            owner, attr = _resolve(mod, path)
            if owner is None:
                self.missing.add(name)
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self._ids[name], observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), op=np.asarray(self.op),
                 start=np.asarray(self.start), end=np.asarray(self.end))

    def per_op(self, n_ops: int) -> dict[str, np.ndarray]:
        """Per-operation calls, inclusive seconds and self seconds of every
        span name, as arrays of shape (n_ops,) keyed ``<span>.calls`` etc."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        op = np.asarray(self.op, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        # Every wrapped call runs on the operation's thread (the sampler's
        # worker threads call none), so a span's children ran one after
        # another and the part of its interval they cover is the sum of
        # their durations.
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        cell = op * len(SPAN_NAMES) + name
        shape = (n_ops, len(SPAN_NAMES))
        size = n_ops * len(SPAN_NAMES)
        calls = np.bincount(cell, minlength=size).reshape(shape)
        incl = np.bincount(cell, weights=dur, minlength=size).reshape(shape)
        excl = np.bincount(cell, weights=self_time, minlength=size).reshape(shape)
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = calls[:, i].astype(float)
            out[f"{span}.s"] = incl[:, i]
            out[f"{span}.self_s"] = excl[:, i]
        for key in ("montecarlo.shots", "montecarlo.valid", "surfaces.payload_bytes"):
            out[key] = np.array([float(self.counters.get((k, key), 0))
                                 for k in range(n_ops)])
        return out


def layer_metrics(per_op: dict[str, np.ndarray], overhead_frac: float) -> dict[str, float]:
    """The PER_LAYER metrics: medians over operations of the per-op values."""
    op_s = per_op[f"{ROOT_SPAN}.s"]
    busy = (per_op["montecarlo.run.self_s"]
            + per_op["montecarlo.joint_outcome_probabilities.self_s"])
    shots = per_op["montecarlo.shots"]
    derived = {
        "montecarlo.shots_per_busy_s": np.divide(shots, busy, out=np.zeros_like(busy),
                                                 where=busy > 0),
        "montecarlo.valid_frac": np.divide(per_op["montecarlo.valid"], shots,
                                           out=np.zeros_like(shots), where=shots > 0),
    }
    for layer in LAYERS:
        self_s = sum(per_op[f"{s}.self_s"] for s in SPAN_NAMES
                     if s.split(".")[0] == layer)
        derived[f"{layer}.share"] = self_s / op_s
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_frac":
            metrics[name] = overhead_frac
        else:
            metrics[name] = float(np.median(derived.get(name, per_op.get(name))))
    return metrics
