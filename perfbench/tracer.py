"""Per-layer tracing of one ``nsg`` command, from outside the package.

Run as a script, this file is the traced stand-in for the ``nsg`` entry
point::

    python perfbench/tracer.py SPANS.json count --p 6 --genus 0..8

It imports ``nsg.cli``, wraps the public functions and methods of the layer
modules, calls ``nsg.cli.main(argv)`` and writes the recorded spans, call
counts and result counters to SPANS.json, whatever way the command ends.
Nothing under ``src/`` changes.

A span is recorded only where a call crosses into another layer; a call
inside the layer that is already running is counted but adds no span.
Repeated crossings from one parent span into the same function share one
record, whose ``busy`` is the summed time of those calls, so a predicate
called once per lattice point costs one record, not millions.  The self
time of a record is its ``busy`` minus the ``busy`` of its children.

``linalg`` is not wrapped, so its time counts toward its callers, ``cone``
and ``quasi``.  ``closed_forms`` serves only as an oracle and is not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("counting", "core", "cone", "paths", "quasi")

# Private functions that another layer calls directly: counting tests every
# lattice point with these predicates when it filters by class.
CROSSING_PRIVATE = {"core": ("_is_symmetric_mu", "_is_pseudo_symmetric_mu")}

# Record fields, in the order they are stored and written.
FIELDS = ("id", "name", "layer", "start", "end", "parent", "calls", "busy")


def _count_result(name: str, args, result, counters: Counter) -> None:
    """Add the deterministic result counters of one boundary call."""
    if name == "paths.count_admissible":
        counters["paths.paths"] += result
    elif name == "paths.verify_path_recursions":
        counters["paths.paths"] += sum(row.new_total for row in result.rows)
    elif name == "cone.edges_of_cone_star":
        counters["cone.rays"] += len(result.rays)
    elif name == "quasi.fit":
        counters["quasi.samples"] += len(args[0])


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []  # record index of each open boundary call
        self._index: dict[tuple, int] = {}  # (parent id, name) -> record index
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    def _open(self, name: str, layer: str, start: float) -> int:
        parent = self.records[self.stack[-1]][0] if self.stack else None
        key = (parent, name)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.records)
            self._index[key] = idx
            self.records.append([idx, name, layer, start, start, parent, 0, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> float:
        end = time.perf_counter()
        self.stack.pop()
        rec = self.records[idx]
        rec[4] = end
        rec[6] += 1
        rec[7] += end - start
        return end - start

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span of its own, whatever layer is running."""
        start = time.perf_counter()
        idx = self._open(name, layer, start)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, start)

    def _current_layer(self):
        return self.records[self.stack[-1]][2] if self.stack else None

    def call(self, name: str, layer: str, fn, args, kwargs, workers_at=None):
        self.calls[layer] += 1
        if self._current_layer() == layer:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        idx = self._open(name, layer, start)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self._close(idx, start)
            if workers_at is not None and _workers(args, kwargs, workers_at) > 1:
                self.counters["counting.parallel_s"] += elapsed
        _count_result(name, args, result, self.counters)
        return result

    def dump(self) -> dict:
        return {
            "records": [dict(zip(FIELDS, rec)) for rec in self.records],
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def _workers(args, kwargs, position: int) -> int:
    if "workers" in kwargs:
        return kwargs["workers"]
    return args[position] if len(args) > position else 1


def _wrap_function(tracer: Tracer, layer: str, name: str, fn):
    params = list(inspect.signature(fn).parameters)
    workers_at = params.index("workers") if "workers" in params else None

    if inspect.isgeneratorfunction(fn):
        # Time each resumption, so the caller's work between items is not
        # charged to this layer.
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            sentinel = object()
            while True:
                item = tracer.call(name, layer, next, (it, sentinel), {})
                if item is sentinel:
                    return
                if name == "paths.iter_admissible":
                    tracer.counters["paths.paths"] += 1
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs, workers_at)

    return wrapper


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        if attr != "__init__" and attr.startswith("_"):
            continue
        qualified = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, classmethod):
            setattr(cls, attr, classmethod(_wrap_function(tracer, layer, qualified, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, _wrap_function(tracer, layer, qualified, value))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables and rebind every alias to them."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"nsg.{layer}")
        extra = CROSSING_PRIVATE.get(layer, ())
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue  # imported from elsewhere; wrapped in its own module
            if isinstance(value, type):
                if not issubclass(value, BaseException):
                    _wrap_class(tracer, layer, value)
            elif callable(value):
                replaced[id(value)] = _wrap_function(tracer, layer, f"{layer}.{attr}", value)
    # `from .cone import build_cone` and friends bind the same objects under
    # other modules' names; point those at the wrappers too.
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "nsg" or module_name.startswith("nsg.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def self_times(records) -> dict:
    """Self time of each record: its busy time minus its children's."""
    own = {rec["id"]: rec["busy"] for rec in records}
    for rec in records:
        if rec["parent"] is not None:
            own[rec["parent"]] -= rec["busy"]
    return own


def main(argv: list[str]) -> int:
    out_path, command = argv[0], argv[1:]
    tracer = Tracer()
    try:
        cli = tracer.span("cli.import", "import", importlib.import_module, "nsg.cli")
        tracer.span("trace.install", "trace", install, tracer)
        return tracer.span("cli.main", "cli", cli.main, command)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
