"""Wrapping syncgrid's public functions from outside the library.

A function is wrapped at every module attribute bound to it, both in its
defining module (calls from inside that module look the name up there) and
in each module that imported it by name.  The library source is unchanged.

Tap keeps the return values an item's checks need.  Tracer records one span
(function, start, end, parent span, item, raised) per call of the layer
functions and a plain count, keyed by the calling span's function, for the
hot leaf functions whose spans would cost more than their work.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

import numpy as np

# Layer functions recorded as spans, by module.
SPANNED = {
    "graph": ("WeightedGraph.from_edges", "is_connected", "solve_poisson"),
    "sync": ("sync_margin", "min_infinity_norm_solution"),
    "equilibrium": ("solve_equilibrium", "assess_stability"),
    "dynamics": ("critical_coupling_search", "rk4_integrate"),
    "randnet": ("nominal_network", "generate_graph"),
    "powerflow": ("randomize_scenario", "build_oscillator_model", "ac_power_flow",
                  "contingency_scan"),
    "experiments": ("hypothesis_experiment",),
}
# Leaf functions only counted.
COUNTED = {
    "equilibrium": ("fixed_point_residual", "jacobian"),
    "powerflow": ("apply_ramp",),
}
LAYERS = tuple(SPANNED)
SPANNED_NAMES = tuple(f"{m}.{q.split('.')[-1]}" for m, fs in SPANNED.items() for q in fs)
COUNTED_NAMES = tuple(f"{m}.{q}" for m, fs in COUNTED.items() for q in fs)


def span_times(spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Duration and self time (duration minus its child spans) of each span, in ns."""
    dur = spans[:, 2] - spans[:, 1]
    has_parent = spans[:, 3] >= 0
    return dur, dur - np.bincount(spans[has_parent, 3], dur[has_parent], len(spans))


def _patch(module_name: str, qualname: str, make_wrapper) -> list:
    """Replace every binding of module.qualname; return (owner, attr, old) to restore."""
    module = sys.modules[f"syncgrid.{module_name}"]
    if "." in qualname:   # a classmethod such as WeightedGraph.from_edges
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        old = owner.__dict__[attr]
        setattr(owner, attr, classmethod(make_wrapper(old.__func__)))
        return [(owner, attr, old)]
    original = getattr(module, qualname)
    wrapper = make_wrapper(original)
    saved = []
    for name, mod in list(sys.modules.items()):
        if (name == "syncgrid" or name.startswith("syncgrid.")) and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    saved.append((mod, attr, original))
    return saved


class _Patches:
    def __init__(self):
        self._saved = []

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved = []


class Tap(_Patches):
    """Keeps every return value of (module, attribute) bindings while active."""

    def __init__(self, targets):
        super().__init__()
        self.targets = targets
        self.records = {attr: [] for _, attr in targets}

    def __enter__(self):
        for module, attr in self.targets:
            original = getattr(module, attr)
            kept = self.records[attr]

            @functools.wraps(original)
            def wrapper(*args, _original=original, _kept=kept, **kwargs):
                result = _original(*args, **kwargs)
                _kept.append(result)
                return result

            setattr(module, attr, wrapper)
            self._saved.append((module, attr, original))
        return self

    def take(self) -> dict:
        """Return and clear the values kept since the last call."""
        out = {attr: list(kept) for attr, kept in self.records.items()}
        for kept in self.records.values():
            kept.clear()
        return out


class Tracer(_Patches):
    """Span recorder; each `with` block patches the library, spans accumulate."""

    def __init__(self):
        super().__init__()
        self.names = list(SPANNED_NAMES + COUNTED_NAMES)
        self.spans: list[list] = []      # [fid, start_ns, end_ns, parent, item, raised]
        self.counts: dict[tuple[int, int], int] = {}
        self.rk4_steps = 0
        self.poisson_repeats = 0
        self._stack: list[int] = []
        self._item = -1
        self._topologies: set = set()

    def begin_item(self, index: int) -> None:
        self._item = index
        self._topologies = set()

    def __enter__(self):
        fid = 0
        for module, functions in SPANNED.items():
            for qualname in functions:
                self._saved += _patch(module, qualname, lambda fn, fid=fid: self._span(fid, fn))
                fid += 1
        for module, functions in COUNTED.items():
            for qualname in functions:
                self._saved += _patch(module, qualname, lambda fn, fid=fid: self._count(fid, fn))
                fid += 1
        return self

    def _span(self, fid: int, fn):
        spans, stack = self.spans, self._stack
        poisson = self.names[fid] == "graph.solve_poisson"
        rk4 = self.names[fid] == "dynamics.rk4_integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if poisson:   # repeat of an edge set already solved on in this item
                g = args[0]
                key = (g.n, g.sources.tobytes(), g.sinks.tobytes())
                self.poisson_repeats += key in self._topologies
                self._topologies.add(key)
            rec = [fid, 0, 0, stack[-1] if stack else -1, self._item, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if rk4:
                self.rk4_steps += round(result.times[-1] / result.integrator["step"])
            return result

        return wrapper

    def _count(self, fid: int, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (fid, spans[stack[-1]][0] if stack else -1)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self, items: int, item_seconds: float, untraced_seconds: float) -> dict:
        """Per-layer metrics, normalized per traced item."""
        fid = {name: k for k, name in enumerate(self.names)}
        nf = len(self.names)
        if self.spans:
            arr = np.array(self.spans, dtype=np.int64)
            dur, self_ns = span_times(arr)
            calls = np.bincount(arr[:, 0], minlength=nf)
            self_s = np.bincount(arr[:, 0], self_ns, nf) / 1e9
            total_s = np.bincount(arr[:, 0], dur, nf) / 1e9
            raised = np.bincount(arr[:, 0], arr[:, 5], nf)
            parent_fid = np.where(arr[:, 3] >= 0, arr[np.maximum(arr[:, 3], 0), 0], -1)
        else:
            calls = self_s = total_s = raised = np.zeros(nf)
            parent_fid = arr = np.zeros((0, 6), dtype=np.int64)

        def count(name, parent=None):
            if name in SPANNED_NAMES:
                k = fid[name]
                if parent is None:
                    return float(calls[k])
                return float(np.sum((arr[:, 0] == k) & (parent_fid == fid[parent])))
            return float(sum(v for (f, p), v in self.counts.items()
                             if f == fid[name] and (parent is None or p == fid[parent])))

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for name in SPANNED_NAMES:
            k = fid[name]
            m[f"{name}.calls"] = calls[k] / items
            m[f"{name}.self_s"] = self_s[k] / items
        for name in COUNTED_NAMES:
            m[f"{name}.calls"] = count(name) / items
        for layer in LAYERS:
            share = sum(self_s[fid[n]] for n in SPANNED_NAMES if n.startswith(layer + "."))
            m[f"{layer}.share"] = ratio(share, item_seconds)
        se = fid["equilibrium.solve_equilibrium"]
        m["equilibrium.solve_equilibrium.fail_rate"] = ratio(raised[se], calls[se])
        m["equilibrium.newton_iterations"] = count(
            "equilibrium.jacobian", "equilibrium.solve_equilibrium") / items
        m["randnet.acceptance_rate"] = ratio(
            count("randnet.nominal_network"), count("graph.from_edges", "randnet.generate_graph"))
        m["graph.topology_repeat_share"] = ratio(
            self.poisson_repeats, count("graph.solve_poisson"))
        m["dynamics.rk4_integrate.steps"] = self.rk4_steps / items
        m["dynamics.rk4_step_us"] = ratio(total_s[fid["dynamics.rk4_integrate"]] * 1e6,
                                          self.rk4_steps)
        m["trace.overhead_ratio"] = ratio(item_seconds, untraced_seconds)
        return {k: float(v) for k, v in m.items()}

    def dump(self) -> dict:
        return {
            "functions": self.names,
            "span_fields": ["function", "start_ns", "end_ns", "parent", "item", "raised"],
            "spans": self.spans,
            "counts": [[self.names[f], self.names[p] if p >= 0 else None, v]
                       for (f, p), v in sorted(self.counts.items())],
        }

