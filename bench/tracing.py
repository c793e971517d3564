"""Spans around the package's public functions, installed from outside.

The tracer rebinds every public function of the nine layers in every
``qplancherel`` module namespace that binds it (``dynamics`` binds
``h_from_p_partition_sum``, ``cli`` binds ``enumerate_level`` and so on),
so calls between modules pass through the wrapper too.  ``@cache``
objects stay beneath their wrappers, keeping their caches.

A span records (name, start, end, parent span, op id).  Functions called
thousands of times or more per op are aggregated into a count, total and
self time instead.  Every wrapper keeps a stack of child time, so both
kinds get their self time (duration minus the time wrapped children
cover) the same way.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time

from workloads import LAYERS

# Called 10^3-10^6 times per op: ode_rhs and the partition sum under the
# RK4 flow, hook_data per partition in a level sweep, transition_weights,
# to_interlacing and sample_index once per step of the reference chain.
AGGREGATED = frozenset(
    {
        "dynamics.ode_rhs",
        "moments.h_from_p_partition_sum",
        "diagrams.hook_data",
        "diagrams.to_interlacing",
        "kernel.transition_weights",
        "kernel.sample_index",
    }
)
# Leaf helpers about as cheap as a wrapper; their time stays with the caller.
UNWRAPPED = frozenset({"qmeasure.one_minus_qpow", "diagrams.max_level"})


def _count_corner_pairs(tracer, fn):
    def adapter(w, *args, **kwargs):
        tracer.counters["kernel.corner_pairs"] += len(w.minima) * len(w.maxima)
        return fn(w, *args, **kwargs)

    return adapter


def _count_enumerated(tracer, fn):
    def adapter(n):
        misses = fn.cache_info().misses
        table = fn(n)
        if fn.cache_info().misses > misses:
            tracer.counters["rsk.perms_enumerated"] += math.factorial(n)
        return table

    return adapter


def _count_iterations(tracer, fn):
    def adapter(f, a, b, *args, **kwargs):
        if kwargs.get("full_output"):
            return fn(f, a, b, *args, **kwargs)
        root, info = fn(f, a, b, *args, full_output=True, **kwargs)
        tracer.counters["limitshape.brentq.iterations"] += info.iterations
        return root

    return adapter


def _track_error(tracer, fn):
    def adapter(*args, **kwargs):
        state = fn(*args, **kwargs)
        key = "dynamics.error_estimate.max"
        tracer.counters[key] = max(tracer.counters[key], state.error_estimate)
        return state

    return adapter


ADAPTERS = {
    "kernel.transition_weights": _count_corner_pairs,
    "rsk.maj_distribution": _count_enumerated,
    "limitshape.brentq": _count_iterations,
    "dynamics.integrate_moments": _track_error,
}


def traced_functions():
    """(qualified name, function) for every traced public function."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"qplancherel.{layer}")
        # cli's run_* functions are reached through a dispatch dict that a
        # rebinding cannot see; main is the layer's one entry point.
        names = ["main"] if layer == "cli" else sorted(vars(module))
        for attr in names:
            obj = getattr(module, attr)
            target = getattr(obj, "__wrapped__", obj)
            qualname = f"{layer}.{attr}"
            if (
                not attr.startswith("_")
                and inspect.isfunction(target)
                and target.__module__ == module.__name__
                and not inspect.isgeneratorfunction(target)
                and qualname not in UNWRAPPED
            ):
                out.append((qualname, obj))
    limitshape = importlib.import_module("qplancherel.limitshape")
    out.append(("limitshape.brentq", limitshape.brentq))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {
            "kernel.corner_pairs": 0,
            "rsk.perms_enumerated": 0,
            "limitshape.brentq.iterations": 0,
            "dynamics.error_estimate.max": 0.0,
        }
        self._child = [0.0]  # child time of each open frame, innermost last
        self._current = None  # index of the innermost open span
        self._op = None
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "qplancherel" or name.startswith("qplancherel.")
        ]
        for qualname, original in traced_functions():
            adapter = ADAPTERS.get(qualname)
            inner = adapter(self, original) if adapter else original
            wrapper = self._wrap(qualname, inner, qualname in AGGREGATED)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, aggregated):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        clock = time.perf_counter

        if aggregated:

            def wrapper(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = child.pop()
                    child[-1] += elapsed
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed - inner

            return wrapper

        def wrapper(*args, **kwargs):
            with self.span(name, stats):
                return fn(*args, **kwargs)

        return wrapper

    def span(self, name, stats=None):
        return _Span(self, name, stats)

    def op(self, op_id: int, label: str):
        """The root span of one benchmark op; its self time is harness overhead."""
        self._op = op_id
        return self.span(f"op.{label}")

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "aggregated": {
                        name: dict(zip(("calls", "total_s", "self_s"), stats))
                        for name, stats in self.stats.items()
                        if name in AGGREGATED
                    },
                },
                handle,
            )


class _Span:
    __slots__ = ("tracer", "record", "stats", "start")

    def __init__(self, tracer: Tracer, name: str, stats) -> None:
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, tracer._current, tracer._op]
        self.stats = stats

    def __enter__(self):
        tracer = self.tracer
        tracer._current = len(tracer.spans)
        tracer.spans.append(self.record)
        tracer._child.append(0.0)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self.tracer
        elapsed = end - self.start
        inner = tracer._child.pop()
        tracer._child[-1] += elapsed
        self.record[1] = self.start
        self.record[2] = end
        tracer._current = self.record[3]
        if self.stats is not None:
            self.stats[0] += 1
            self.stats[1] += elapsed
            self.stats[2] += elapsed - inner
        return False
