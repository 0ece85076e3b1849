"""Span tracing from outside the program.

``Tracer.install`` replaces the public functions that ``avgflow.cli`` and
``avgflow.sim`` call with wrappers that record one span per call (name,
start, end, parent span, operation id) and a few work counts.  Spans stay in
memory; ``Tracer.dump`` writes them out when the run ends.  A function that a
later version of the program no longer has is skipped, so its metrics read
zero calls instead of failing the run.
"""

import inspect
import json
import os
import time

import numpy as np


def _rows(arr):
    return int(np.shape(arr)[0])


def _path_steps(a):
    return {"path_steps": _rows(a["x0s"]) * int(a["table"].n_steps)}


def _file_mb(a):
    return {"mb": os.path.getsize(a["path"]) / 1e6}


# (metric prefix, module whose namespace holds the call, attribute, counts)
LAYERS = (
    ("kernel.build_kernel_table", "cli", "build_kernel_table", None),
    ("coupling.ot_assignment", "cli", "ot_assignment",
     lambda a: {"n": _rows(a["sources"])}),
    ("coupling.teacher_controls", "cli", "teacher_controls", None),
    ("coupling.export_plan_csv", "cli", "export_plan_csv", None),
    ("learn.train_feedforward", "cli", "train_feedforward",
     lambda a: {"row_epochs": _rows(a["inputs"]) * int(a["config"].epochs)}),
    ("learn.train_recurrent", "cli", "train_recurrent",
     lambda a: {"step_epochs": int(np.prod(np.shape(a["features"])[:2]))
                * int(a["config"].epochs)}),
    ("learn.save_model", "cli", "save_model", None),
    ("bridge.bridge_ensemble", "cli", "bridge_ensemble", _path_steps),
    ("bridge.export_trajectory_csv", "cli", "export_trajectory_csv", _file_mb),
    ("sim.rollout_deterministic", "cli", "rollout_deterministic", _path_steps),
    ("sim.rollout_stochastic", "cli", "rollout_stochastic", _path_steps),
    ("distributions.recompute_mean_r", "sim", "recompute_mean_r", None),
    ("sim.energy_distance_null", "cli", "energy_distance_null", None),
    ("sim.compare_laws", "cli", "compare_laws", None),
    ("sim.export_metrics", "cli", "export_metrics", None),
)

# Reported per-layer metrics: name -> unit.  Every layer reports its self
# time; the counts listed here are reported as well.
COUNTS = {
    "kernel.build_kernel_table.calls": "count",
    "coupling.ot_assignment.calls": "count",
    "coupling.ot_assignment.n": "count",
    "learn.train_feedforward.row_epochs": "count",
    "learn.train_recurrent.step_epochs": "count",
    "bridge.bridge_ensemble.path_steps": "count",
    "bridge.export_trajectory_csv.mb": "MB",
    "sim.rollout_deterministic.path_steps": "count",
    "sim.rollout_stochastic.path_steps": "count",
    "distributions.recompute_mean_r.calls": "count",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.s": "s" for name, *_ in LAYERS}
    units.update(COUNTS)
    units["cli.self.s"] = "s"
    units["cli.read_mb"] = "MB"
    return units


def read_bytes():
    """Bytes this process has read through read(2), or None if unknown."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patched = []

    def install(self, modules):
        """Wrap every LAYERS function found in ``modules`` ({'cli': mod, ...})."""
        for name, where, attr, counts in LAYERS:
            module = modules[where]
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(name, original, counts))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_op(self, op_id):
        self._op = op_id

    def _wrap(self, name, fn, counts):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self._op,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if counts is not None:
                    try:
                        bound = signature.bind(*args, **kwargs).arguments
                        span["counts"] = counts(bound)
                    except (KeyError, TypeError, AttributeError, OSError):
                        pass

        return traced

    def layer_metrics(self, ops, op_seconds, read_mb):
        """Per-layer self times and counts summed over the spans of ``ops``.

        ``op_seconds`` is the wall time of those operations; what the spans
        do not cover is reported as ``cli.self.s``.
        """
        ops = set(ops)
        spans = [s for s in self.spans if s["op"] in ops]
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        values = dict.fromkeys(metric_units(), 0.0)
        top = 0.0
        for s in spans:
            duration = s["end"] - s["start"]
            values[f"{s['name']}.s"] += duration - child_time.get(s["id"], 0.0)
            calls = f"{s['name']}.calls"
            if calls in values:
                values[calls] += 1
            for key, value in s["counts"].items():
                values[f"{s['name']}.{key}"] += value
            if s["parent"] is None:
                top += duration
        values["cli.self.s"] = op_seconds - top
        values["cli.read_mb"] = read_mb
        return values

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)
