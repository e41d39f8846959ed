"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces every public module-level function of the eight
library layers with a wrapper that records a span (name, start, end, parent)
and rebinds each reference to it inside the package, so calls from one
library function to another are traced too. ``uninstall`` restores the
originals. Spans live in four flat arrays until the run ends, when
``layer_metrics`` reduces them and ``save`` writes them once.

Only the traced process installs the wrappers; untraced runs call the
library untouched.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cost", "decoupled", "policies", "sim", "dp", "structure", "runner", "config")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self._stack = []
        self.counts = {}
        self.boxes = []  # (a_max, average cost) of every DP box solved
        self._restore = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.end_col.append(0.0)
        self._stack.append(idx)
        self.start_col.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end_col[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _add(self, key: str, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self):
        """Wrap each layer's public functions and rebind every reference
        the package holds to them."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"aoisched.{layer}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "aoisched" and not mod_name.startswith("aoisched."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                    self._restore.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in self._restore:
            setattr(mod, name, obj)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------------

    def _columns(self):
        names = np.asarray(self.name_col, dtype=np.int64)
        start = np.asarray(self.start_col)
        dur = np.asarray(self.end_col) - start
        parent = np.asarray(self.parent_col, dtype=np.int64)
        return names, start, dur, parent

    def layer_metrics(self, untraced_wall: float, traced_wall: float) -> dict:
        """Per-layer times and counts over every span recorded."""
        names, _, dur, parent = self._columns()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        span_layer = layer_of[names] if len(names) else np.array([], dtype=layer_of.dtype)
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], "")

        def ids(name):
            return self._name_ids.get(name, -1)

        def total(name):
            return float(dur[names == ids(name)].sum())

        def calls(name):
            return int((names == ids(name)).sum())

        c = self.counts.get
        out = {}
        solve = total("dp.finite_horizon_dp")
        out["dp.solve_s"] = solve
        out["dp.boxes"] = len(self.boxes)  # solved; a box refused for memory is not counted
        out["dp.state_stages"] = c("dp.state_stages", 0)
        out["dp.state_stages_per_s"] = out["dp.state_stages"] / solve if solve else 0.0
        out["dp.final_a_max"] = c("dp.final_a_max", 0)
        out["dp.escaped_mass"] = c("dp.escaped_mass", 0.0)
        out["dp.extract_cycle_s"] = total("dp.extract_cycle_policy")
        simulate = total("sim.simulate")
        out["sim.simulate_s"] = simulate
        out["sim.run_slots"] = c("sim.run_slots", 0)
        out["sim.run_slots_per_s"] = out["sim.run_slots"] / simulate if simulate else 0.0
        out["sim.detect_cycle_s"] = total("sim.detect_cycle")
        in_detect = has_parent & (names[np.maximum(parent, 0)] == ids("sim.detect_cycle"))
        out["sim.cycle_steps"] = int((in_detect & (names == ids("policies.decide"))).sum())
        out["cost.evaluate_calls"] = calls("cost.evaluate")
        out["cost.evaluate_s"] = total("cost.evaluate")
        out["policies.index_table_s"] = total("policies.whittle_index_table")
        out["policies.index_cells"] = c("policies.index_cells", 0)
        out["decoupled.sweep_s"] = total("decoupled.indexability_sweep")
        out["decoupled.thresholds"] = c("decoupled.thresholds", 0)
        out["decoupled.rvi_s"] = total("decoupled.decoupled_value_iteration")
        out["decoupled.rvi_iterations"] = c("decoupled.rvi_iterations", 0)
        out["structure.certify_s"] = total("structure.certify_theorem3")
        out["structure.certs_ok"] = c("structure.certs_ok", 0)
        out["runner.run_experiment_s"] = total("runner.run_experiment")
        out["runner.write_s"] = total("runner.write_bundle")
        # time spent in the config layer when entered from outside it
        entry = (span_layer == "config") & (parent_layer != "config")
        out["config.load_s"] = float(dur[entry].sum())
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())
        out["bench.self_s"] = float(self_time[span_layer == "bench"].sum())
        out["trace.spans"] = len(dur)
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        return out

    def save(self, path: str, meta: dict):
        """Write the spans once, gzipped: a names table plus four columns,
        times in seconds from the first span."""
        names, start, dur, parent = self._columns()
        t0 = float(start.min()) if len(start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "name": names.tolist(),
                    "start_s": np.round(start - t0, 7).tolist(),
                    "end_s": np.round(start + dur - t0, 7).tolist(),
                    "parent": parent.tolist(),
                },
                fh,
            )


# counts taken from return values, keyed by traced function name


def _dp_box(tr, sol):
    tr.boxes.append((sol.box.a_max, sol.optimal_average_cost))
    tr._add("dp.state_stages", sol.box.state_count * sol.horizon)


def _dp_auto(tr, sol):
    tr.counts["dp.final_a_max"] = max(tr.counts.get("dp.final_a_max", 0), sol.box.a_max)
    tr.counts["dp.escaped_mass"] = max(tr.counts.get("dp.escaped_mass", 0.0), sol.truncation_report)


_HOOKS = {
    "dp.finite_horizon_dp": _dp_box,
    "dp.finite_horizon_dp_auto": _dp_auto,
    "sim.simulate": lambda tr, r: tr._add("sim.run_slots", r.runs * r.horizon),
    "policies.whittle_index_table": lambda tr, t: tr._add("policies.index_cells", int(t.size)),
    "decoupled.indexability_sweep": lambda tr, s: tr._add("decoupled.thresholds", len(s)),
    "decoupled.decoupled_value_iteration": lambda tr, s: tr._add("decoupled.rvi_iterations", s.iterations),
    "structure.certify_theorem3": lambda tr, c: tr._add("structure.certs_ok", int(c.ok)),
}
