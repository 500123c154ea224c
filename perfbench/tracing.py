"""Spans around zslen's public functions, recorded from outside the package.

``traced(mods)`` rebinds each function below, for the duration of a ``with``
block, in every ``zslen`` namespace that holds it (the defining module, the
package, and modules that imported it by name, such as ``delta_rho``'s own
``enumerate_atoms``).  Each call records a span: name, start, end, parent
span, job id and counters.  Spans stay in memory; ``layer_metrics`` derives
calls, seconds and self seconds (span minus child spans) per name, per pass.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _atoms(args, kwargs, result):
    return {"atoms": len(result)}


def _columns(args, kwargs, result):
    indices = args[1] if len(args) > 1 else kwargs.get("atom_indices")
    return {"columns": len(args[0]) if indices is None else len(indices)}


def _orders(args, kwargs, result):
    lo, hi = args[0], args[1]
    return {"orders": hi // 2 - (lo - 1) // 2}  # even n in [lo, hi]


# (module, function) -> counters taken from (args, kwargs, result)
TRACED = {
    ("sequences", "enumerate_atoms"): _atoms,
    ("delta_rho", "delta_rho_star"): None,
    ("lengths", "min_delta_of_atoms"): _columns,
    ("lengths", "length_set"): None,
    ("lengths", "max_elasticity_witness"): None,
    ("verify", "observed_min_delta"): None,
    ("fp", "fp_length_set"): None,
    ("fp", "local_profile"): None,
    ("cf", "scan_exceptional"): _orders,
}

SPANS = (
    "sequences.enumerate_atoms",
    "delta_rho.delta_rho_star",
    "lengths.min_delta_of_atoms",
    "lengths.length_set",
    "lengths.max_elasticity_witness",
    "verify.observed_min_delta",
    "fp.fp_length_set",
    "fp.local_profile",
    "cf.scan_e1",
    "cf.scan_e2",
    "cf.resume",
)

# name -> (unit, better); the order is the order printed
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.seconds"] = ("s", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "sequences.enumerate_atoms.atoms": ("count", "lower"),
    "sequences.enumerate_atoms.atoms_per_s": ("1/s", "higher"),
    "delta_rho.delta_rho_star.kernel_calls": ("count", "lower"),
    "lengths.min_delta_of_atoms.columns": ("count", "lower"),
    "cf.scan_e1.orders_per_s": ("1/s", "higher"),
    "cf.scan_e2.orders_per_s": ("1/s", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
})


def _scan_span_name(args, kwargs) -> str:
    """Engine E1 or E2; an E1 call whose checkpoint already exists resumes."""
    checkpoint = kwargs.get("checkpoint")
    if checkpoint is not None and Path(checkpoint).exists():
        return "cf.resume"
    return f"cf.scan_{kwargs.get('engine', 'both')}"


class Recorder:
    """Spans of one traced run: ``[name, start, end, parent, job, counters]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name: str | None, fn, count):
        def traced_call(*args, **kwargs):
            span_name = name or _scan_span_name(args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [span_name, time.perf_counter(), None, parent, self.job, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced_call


@contextmanager
def traced(mods, recorder: Recorder):
    """Bind the span wrappers in every zslen namespace; restore on exit."""
    namespaces = [m for key, m in sys.modules.items() if key == "zslen" or key.startswith("zslen.")]
    undo = []
    try:
        for (module, func), count in TRACED.items():
            original = getattr(mods[module], func)
            name = None if func == "scan_exceptional" else f"{module}.{func}"
            wrapper = recorder.wrap(name, original, count)
            for ns in namespaces:
                if getattr(ns, func, None) is original:
                    setattr(ns, func, wrapper)
                    undo.append((ns, func, original))
        yield recorder
    finally:
        for ns, func, original in reversed(undo):
            setattr(ns, func, original)


def layer_metrics(spans, seconds) -> dict[str, float]:
    """Calls, seconds, self seconds and counters per span name, with span
    durations measured by ``seconds(start, end)``."""
    durations = [seconds(start, end) for _, start, end, _, _, _ in spans]
    child_time = [0.0] * len(spans)
    for (_, _, _, parent, _, _), duration in zip(spans, durations):
        if parent is not None:
            child_time[parent] += duration
    out = {key: 0.0 for key in PER_LAYER if not key.startswith("trace.")}
    orders = {"cf.scan_e1": 0, "cf.scan_e2": 0}
    for i, (name, _, _, parent, _, counters) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.seconds"] += durations[i]
        out[f"{name}.self_s"] += durations[i] - child_time[i]
        if name == "sequences.enumerate_atoms":
            out["sequences.enumerate_atoms.atoms"] += counters["atoms"]
        elif name == "lengths.min_delta_of_atoms":
            out["lengths.min_delta_of_atoms.columns"] += counters["columns"]
            if _has_ancestor(spans, parent, "delta_rho.delta_rho_star"):
                out["delta_rho.delta_rho_star.kernel_calls"] += 1
        elif name in orders:
            orders[name] += counters["orders"]
    rates = [("sequences.enumerate_atoms", out["sequences.enumerate_atoms.atoms"], "atoms_per_s")]
    rates += [(name, count, "orders_per_s") for name, count in orders.items()]
    for name, work, rate in rates:
        busy = out[f"{name}.seconds"]
        out[f"{name}.{rate}"] = work / busy if busy else 0.0
    return out


def _has_ancestor(spans, index, name) -> bool:
    while index is not None:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def covered_seconds(spans) -> float:
    """Unscaled time inside top-level spans (spans are nested, one thread)."""
    return sum(end - start for _, start, end, parent, _, _ in spans if parent is None)
