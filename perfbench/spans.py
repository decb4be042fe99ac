"""Span tracing at fourierdim's module boundaries, installed from outside.

The program is not edited.  Each public name that one module looks up in
its own globals at call time, and that belongs to another layer (or re-enters
a layer's public entry point, like ``transform.ft`` from ``ft_batch`` and the
``ft_grid`` fallback), is replaced there by a wrapper that records a span:
name, start, end, parent span and op.  Spans stay in memory; the per-layer
metrics are derived from them when the run ends.  Counts are taken at the
same boundaries from the wrapped call's arguments and results.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from workloads import FREQ_CLASSES, freq_class

# module whose globals are patched -> names looked up there at call time
BOUNDARIES = {
    "cli": ("measure_from_dict", "schedule_from_dict", "mass", "merge_schedules",
            "cantor_measure", "digit_constraint_measure", "lacunary_trig_measure",
            "tail_report", "decay_exponent", "energy_fourier", "energy_spatial",
            "lower_bound_search", "stability_experiment", "matrix_image_experiment",
            "ft", "ft_batch", "ft_quadrature", "wiener_average", "atom_weights",
            "check_perp_properties", "decompose_atomic", "quasiconvex_weights"),
    "dimension": ("ft", "ft_batch", "ft_grid", "atom_weights", "phase_unit",
                  "decompose_density", "evaluate_density", "window_value", "mass",
                  "support_interval", "decay_exponent"),
    "transform": ("ft", "ft_grid", "decompose_density", "evaluate_density",
                  "piece_transform", "mass", "support_interval"),
    # measures.mass imports cut_mass from density when it is called
    "density": ("decompose_density", "cut_mass"),
    "bandlattice": ("perp",),
}
# schedule classes whose frequencies() method is looked up on the class
SCHEDULES = ("IntegerRange", "DyadicWindows", "Lacunary", "ExplicitFrequencies")


def _size(args, i=1):
    return int(np.size(args[i])) if len(args) > i else 0


class Tracer:
    """Records spans of one traced op at a time; aggregates at the end."""

    def __init__(self, package):
        self.pkg = package
        self.spans = []  # [name, start, end, parent index, op, count]
        self.stack = []
        self.op = -1
        self.saved = []
        self.freq_classes = dict.fromkeys(FREQ_CLASSES, 0)
        self.energy_points = [0, 0]  # unique, total frequencies under energy_fourier
        self._energy_arrays = []
        self._decomposed = {}  # id -> measure, for the current op
        self.decompose_distinct = 0

    # installation ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        for mod_name, names in BOUNDARIES.items():
            mod = importlib.import_module(f"{self.pkg}.{mod_name}")
            for name in names:
                fn = getattr(mod, name)
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._patch(mod, name, self._wrap(f"{layer}.{name}", fn))
        measures = importlib.import_module(f"{self.pkg}.measures")
        for cls_name in SCHEDULES:
            cls = getattr(measures, cls_name)
            self._patch(cls, "frequencies",
                        self._wrap("measures.frequencies", cls.__dict__["frequencies"]))

    def _patch(self, owner, name, value) -> None:
        self.saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self.saved):
            setattr(owner, name, value)
        self.saved.clear()

    def _wrap(self, span_name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = getattr(self, "_on_" + span_name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, out)
            return out

        return wrapper

    # counts at the boundaries ------------------------------------------------

    def _on_measures_frequencies(self, args, out):
        for x in out:
            self.freq_classes[freq_class(x)] += 1
        return len(out)

    def _on_transform_ft_grid(self, args, out):
        if any(self.spans[i][0] == "dimension.energy_fourier" for i in self.stack):
            self._energy_arrays.append(np.asarray(args[1], dtype=float).ravel())
        return _size(args)

    def _on_density_piece_transform(self, args, out):
        return _size(args)

    def _on_density_evaluate_density(self, args, out):
        return _size(args)

    def _on_transform_ft_quadrature(self, args, out):
        return out.panels

    def _on_density_decompose_density(self, args, out):
        if not any(self.spans[i][0] == "density.decompose_density" for i in self.stack):
            self._decomposed[id(args[0])] = args[0]  # kept alive until the op ends
        return 1

    # op boundaries -----------------------------------------------------------

    def run_op(self, op_index: int, call):
        """Run call() as op op_index under a root 'cli.main' span."""
        self.op = op_index
        rec = ["cli.main", 0.0, 0.0, -1, op_index, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return call()
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            self._end_op()

    def _end_op(self) -> None:
        if self._energy_arrays:
            for arr in self._energy_arrays:
                self.energy_points[1] += arr.size
            self.energy_points[0] += int(np.unique(np.concatenate(self._energy_arrays)).size)
            self._energy_arrays.clear()
        self.decompose_distinct += len(self._decomposed)
        self._decomposed.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, count in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, count]) + "\n")

    # aggregation -------------------------------------------------------------

    def metrics(self, n_ops: int, overhead: float) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def under(i, target):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == target:
                    return True
                p = spans[p][3]
            return False

        calls, self_s, counts = {}, {}, {}
        layer_self = {}
        fallback = decompose_outer = energy_grid = lb_points = 0
        for i, (name, start, end, parent, _, count) in enumerate(spans):
            own = end - start - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            counts[name] = counts.get(name, 0) + count
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            if name == "transform.ft" and under(i, "transform.ft_grid"):
                fallback += 1
            elif name == "density.decompose_density" and not under(i, name):
                decompose_outer += 1
            elif name == "transform.ft_grid":
                if under(i, "dimension.energy_fourier"):
                    energy_grid += count
                if under(i, "dimension.lower_bound_search"):
                    lb_points += count

        n = max(n_ops, 1)

        def ms(name):
            return 1e3 * self_s.get(name, 0.0) / n

        def per_op(x):
            return x / n

        def ratio(a, b):
            return a / b if b else 0.0

        ft_calls = calls.get("transform.ft", 0)
        grid_points = counts.get("transform.ft_grid", 0)
        perp_calls = calls.get("bandlattice.perp", 0)
        freqs = sum(self.freq_classes.values())
        uniq, total = self.energy_points
        # exact counts of frequencies by evaluation route, for the shares line
        self.routes = {"scalar_ft": ft_calls - fallback, "grid_points": grid_points,
                       "grid_fallback_ft": fallback}
        return {
            "cli.self_ms": (ms("cli.main"), "ms/op"),
            "measures.build_ms": (1e3 * layer_self.get("measures", 0.0) / n, "ms/op"),
            "measures.freqs": (per_op(freqs), "freqs/op"),
            "measures.bigint_freq_frac": (ratio(self.freq_classes["int_ge_2^53"]
                                                + self.freq_classes["int_gt_2^1020"], freqs), "1"),
            "measures.past_1020_freq_frac": (ratio(self.freq_classes["int_gt_2^1020"], freqs), "1"),
            "constructions.build_ms": (1e3 * layer_self.get("constructions", 0.0) / n, "ms/op"),
            "transform.ft_calls": (per_op(ft_calls), "calls/op"),
            "transform.ft_ms": (ms("transform.ft"), "ms/op"),
            "transform.ft_us_per_call": (1e6 * ratio(self_s.get("transform.ft", 0.0), ft_calls), "us/call"),
            "transform.batch_ms": (ms("transform.ft_batch"), "ms/op"),
            "transform.grid_calls": (per_op(calls.get("transform.ft_grid", 0)), "calls/op"),
            "transform.grid_points": (per_op(grid_points), "points/op"),
            "transform.grid_ms": (ms("transform.ft_grid"), "ms/op"),
            "transform.grid_ns_per_point": (1e9 * ratio(self_s.get("transform.ft_grid", 0.0), grid_points), "ns/point"),
            "transform.grid_fallback_points": (per_op(fallback), "points/op"),
            "transform.quad_calls": (per_op(calls.get("transform.ft_quadrature", 0)), "calls/op"),
            "transform.quad_panels": (per_op(counts.get("transform.ft_quadrature", 0)), "panels/op"),
            "transform.quad_ms": (ms("transform.ft_quadrature"), "ms/op"),
            "transform.wiener_ms": (ms("transform.wiener_average"), "ms/op"),
            "density.decompose_calls": (per_op(decompose_outer), "calls/op"),
            "density.decompose_ms": (ms("density.decompose_density"), "ms/op"),
            "density.decompose_per_measure": (ratio(decompose_outer, self.decompose_distinct), "calls/measure"),
            "density.piece_transform_points": (per_op(counts.get("density.piece_transform", 0)), "points/op"),
            "density.piece_transform_ms": (ms("density.piece_transform"), "ms/op"),
            "density.evaluate_points": (per_op(counts.get("density.evaluate_density", 0)), "points/op"),
            "density.evaluate_ms": (ms("density.evaluate_density"), "ms/op"),
            "dimension.decay_calls": (per_op(calls.get("dimension.decay_exponent", 0)), "calls/op"),
            "dimension.decay_ms": (ms("dimension.decay_exponent"), "ms/op"),
            "dimension.energy_fourier_ms": (ms("dimension.energy_fourier"), "ms/op"),
            "dimension.energy_spatial_ms": (ms("dimension.energy_spatial"), "ms/op"),
            "dimension.energy_grid_points": (per_op(energy_grid), "points/op"),
            "dimension.energy_unique_point_frac": (ratio(uniq, total), "1"),
            "dimension.lowerbound_ms": (ms("dimension.lower_bound_search"), "ms/op"),
            "dimension.lowerbound_points": (per_op(lb_points), "points/op"),
            "bandlattice.perp_calls": (per_op(perp_calls), "calls/op"),
            "bandlattice.perp_ms": (ms("bandlattice.perp"), "ms/op"),
            "bandlattice.perp_us_per_call": (1e6 * ratio(self_s.get("bandlattice.perp", 0.0), perp_calls), "us/call"),
            "bandlattice.check_ms": (ms("bandlattice.check_perp_properties"), "ms/op"),
            "bandlattice.decompose_ms": (ms("bandlattice.decompose_atomic"), "ms/op"),
            "trace.overhead_frac": (overhead, "1"),
        }
