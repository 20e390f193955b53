"""Span tracing installed from outside the package.

A :class:`Tracer` wraps the qptycho functions that sit on a layer boundary
and records one span per call: name, start, end, parent span and pass id.
Spans live in flat in-memory arrays (a multistart pass makes ~300k of them)
and are written out or aggregated only when the run ends. Nothing here is
imported by the untraced benchmark path.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np
from qptycho.transforms import KINDS

#: qptycho callables wrapped as ``layer.name`` spans. Each is replaced in
#: every qptycho module that holds it, because ``pie``, ``protocol`` and
#: ``cli`` import these names directly.
FUNCTION_SPANS = {
    ("states", "_project_amps"): "states.project",
    ("protocol", "generate_dataset"): "protocol.generate",
    ("protocol", "normalize_dataset"): "protocol.normalize",
    ("protocol", "mitigate_dataset"): "protocol.mitigate_dataset",
    ("mitigation", "build_calibration"): "mitigation.calibrate",
    ("mitigation", "corrupt_counts"): "mitigation.corrupt",
    ("mitigation", "mitigate"): "mitigation.mitigate",
    ("pie", "pie_run"): "pie.run",
    ("experiments", "run_fidelity_sweep"): "experiments.sweep",
    ("states", "load_state"): "cli.io",
    ("states", "save_state"): "cli.io",
    ("protocol", "load_dataset"): "cli.io",
    ("protocol", "save_dataset"): "cli.io",
    ("mitigation", "load_calibration"): "cli.io",
    ("mitigation", "save_calibration"): "cli.io",
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.current_pass = -1
        self._stack = []

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, name: str, value: int):
        key = (name, self.current_pass)
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch the qptycho layer boundaries in this process."""
        from qptycho import cli, mitigation, pie, transforms  # noqa: F401  (cli: patched too)

        modules = [m for k, m in sys.modules.items() if k == "qptycho" or k.startswith("qptycho.")]
        for (mod_name, attr), span_name in FUNCTION_SPANS.items():
            original = getattr(sys.modules[f"qptycho.{mod_name}"], attr)
            wrapped = self.wrap(original, span_name)
            if span_name == "pie.run":
                wrapped = self._count_corrections(wrapped)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

        apply_amps = transforms.UnitarySpec.apply_amps

        def traced_apply(spec, amps, n, adjoint=False):
            idx = self.open(f"transforms.{spec.kind}.{'adj' if adjoint else 'fwd'}")
            try:
                return apply_amps(spec, amps, n, adjoint)
            finally:
                self.close(idx)

        transforms.UnitarySpec.apply_amps = traced_apply

        # condition_number is a cached_property: time its first access, the SVD.
        cls = mitigation.CalibrationMatrix
        cond = functools.cached_property(
            self.wrap(cls.condition_number.func, "mitigation.condition_number"))
        cond.__set_name__(cls, "condition_number")
        cls.condition_number = cond

        trace_to_csv = pie.PieTrace.to_csv
        pie.PieTrace.to_csv = self.wrap(trace_to_csv, "cli.io")

    def _count_corrections(self, run):
        @functools.wraps(run)
        def counted(dataset, *args, **kwargs):
            estimate, trace = run(dataset, *args, **kwargs)
            self.count("pie.corrections", len(trace.rows) * 6 * dataset.n)
            return estimate, trace

        return counted

    # -- persistence --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write every span and counter to an ``.npz`` file."""
        keys = sorted(self.counters)
        np.savez(
            path,
            counter_names=np.array([name for name, _ in keys], dtype=str),
            counter_values=np.array([self.counters[k] for k in keys], dtype=np.int64),
            **self.arrays(),
        )

    def merge(self, path, parent_idx: int):
        """Append the spans a child process saved, under one of our spans."""
        with np.load(path) as doc:
            ids = [self._intern(str(name)) for name in doc["names"]]
            offset = len(self.start)
            for name_id, parent in zip(doc["name_id"].tolist(), doc["parent"].tolist()):
                self.name_id.append(ids[name_id])
                self.parent.append(parent_idx if parent < 0 else parent + offset)
                self.pass_id.append(self.current_pass)
            self.start.extend(doc["start"].tolist())
            self.end.extend(doc["end"].tolist())
            for name, value in zip(doc["counter_names"].tolist(), doc["counter_values"].tolist()):
                self.count(name, value)


def self_times(data: dict) -> np.ndarray:
    """Duration of each span minus the time covered by its direct children.

    Spans come from one thread per process, so children never overlap and
    their durations can simply be summed.
    """
    dur = data["end"] - data["start"]
    child = np.zeros_like(dur)
    has_parent = data["parent"] >= 0
    np.add.at(child, data["parent"][has_parent], dur[has_parent])
    return dur - child


#: Pass id of the n=10 kernel probe that follows the workload passes.
PROBE_PASS = -2


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Times and counts are per workload pass (median over the ``passes``
    passes, pass ids ``0..passes-1``); the ``transforms.<kind>.*_us`` kernel
    means come from the :data:`PROBE_PASS` spans.
    """
    data = tracer.arrays()
    names = [str(name) for name in data["names"]]
    name_id, pass_id = data["name_id"], data["pass_id"]
    dur = data["end"] - data["start"]
    self_dur = self_times(data)
    ones = np.ones_like(dur)
    in_pass = pass_id >= 0

    def mask(*prefixes):
        ids = [i for i, name in enumerate(names) if name.startswith(prefixes)]
        return np.isin(name_id, ids)

    def per_pass(sel, values):
        sel = sel & in_pass
        return float(np.median(np.bincount(pass_id[sel], weights=values[sel], minlength=passes)))

    def counter(name):
        values = [tracer.counters.get((name, p), 0) for p in range(passes)]
        return int(np.median(values))

    out = {}

    def add(name, sel, unit="s", values=dur):
        value = per_pass(sel, values)
        out[name] = (int(round(value)) if unit == "count" else value, unit)

    add("states.project.calls", mask("states.project"), "count", ones)
    add("states.project.s", mask("states.project"))
    apply_sel = mask(*(f"transforms.{kind}." for kind in KINDS))
    add("transforms.apply.calls", apply_sel, "count", ones)
    add("transforms.apply.s", apply_sel)
    for kind in KINDS:
        for direction in ("fwd", "adj"):
            sel = mask(f"transforms.{kind}.{direction}") & (pass_id == PROBE_PASS)
            mean = float(dur[sel].mean()) * 1e6 if sel.any() else 0.0
            out[f"transforms.{kind}.{direction}_us"] = (mean, "us")
    for name in ("protocol.generate", "protocol.normalize", "protocol.mitigate_dataset",
                 "mitigation.calibrate", "mitigation.corrupt", "mitigation.condition_number"):
        add(f"{name}.s", mask(name))
    add("mitigation.mitigate.calls", mask("mitigation.mitigate"), "count", ones)
    add("mitigation.mitigate.s", mask("mitigation.mitigate"))
    add("pie.run.calls", mask("pie.run"), "count", ones)
    corrections = counter("pie.corrections")
    out["pie.corrections"] = (corrections, "count")
    add("pie.run.s", mask("pie.run"))
    add("pie.self_s", mask("pie.run"), values=self_dur)
    out["pie.step_us"] = (out["pie.run.s"][0] / corrections * 1e6 if corrections else 0.0, "us")
    add("experiments.sweep.s", mask("experiments.sweep"))
    add("experiments.self_s", mask("experiments.sweep"), values=self_dur)
    for command in ("prepare-state", "run-protocol", "calibrate", "mitigate", "estimate"):
        add(f"cli.{command}.s", mask(f"cli.cmd.{command}"))
    add("cli.io.s", mask("cli.io"))
    out["cli.bytes_written"] = (counter("cli.bytes_written"), "count")
    return out
