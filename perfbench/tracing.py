"""Span recording for the traced benchmark run.

``instrument`` wraps the public functions of each ``invop`` layer module, the
``GridFunction`` constructor and the two ``SurrogateHandle`` map methods so
that every call records one span: name, start, end, parent span and the id
of the inverse solve or CLI command it belongs to.  Spans stay in memory
until the run ends.  Nothing is wrapped outside the ``with instrument(...)``
block, so untraced runs execute the library unchanged.  ``invop.config`` is
not wrapped: it parses a handful of lines inside the CLI spans, so its time
is CLI self time.

``invop/__init__.py`` rebinds ``invop.mollify`` to the *function*, so
modules are reached through ``importlib``/``sys.modules``, and every module
global that holds a wrapped function object (``from .fem import ...``
copies) is rebound to the wrapper as well.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

#: modules that make up the layers, in reporting order
LAYERS = ("fem", "neural", "tikhonov", "grid", "mollify", "training",
          "studies", "serialize", "cli")

#: spans that open a new operation (an inverse solve or a CLI command)
OP_SPANS = ("tikhonov.solve_inverse_problem", "cli.generate", "cli.build",
            "cli.solve", "cli.study", "cli.verify")


class Tracer:
    """Spans in column lists, plus a stack of the spans currently open.

    Span ``i`` is ``name[i]``, ``start[i]``, ``end[i]``, ``parent[i]`` (-1 for
    none) and ``op[i]``, the span that opened its operation (-1 for none).
    Columns of floats, ints and shared strings hold no per-span container,
    so the garbage collector's work does not grow with the span count.
    """

    def __init__(self, clock=time.perf_counter):
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.stack = []
        self.clock = clock

    def __len__(self):
        return len(self.name)

    def open(self, name: str) -> int:
        idx = len(self.name)
        parent = self.stack[-1] if self.stack else -1
        self.name.append(name)
        self.parent.append(parent)
        if name in OP_SPANS:
            self.op.append(idx)
        else:
            self.op.append(self.op[parent] if parent >= 0 else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn):
        open_, end, stack, clock = self.open, self.end, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def write(self, path):
        """One JSON array per line: id, name, start, end, parent, op."""
        with open(path, "w") as fh:
            for row in zip(range(len(self)), self.name, self.start, self.end,
                           self.parent, self.op):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# instrumentation


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield attr, obj


@contextlib.contextmanager
def instrument(tracer: Tracer, extra_counts: dict):
    """Wrap every public invop function for the duration of the block.

    ``extra_counts`` receives byte counts of serialized files
    (``bytes_written`` / ``bytes_read``) and the number of non-zero CLI
    exits; those are values, not durations, so spans cannot carry them.
    """
    mods = {name: importlib.import_module(f"invop.{name}") for name in LAYERS}
    wrappers = {}  # id(original) -> wrapper
    for name, mod in mods.items():
        for attr, fn in _public_functions(mod):
            if name == "serialize" and attr.startswith(("save_", "load_")):
                w = _serialize_wrapper(tracer, f"serialize.{attr}", fn, extra_counts)
            elif name == "cli" and attr == "cli_main":
                w = _cli_wrapper(tracer, fn, extra_counts)
            else:
                w = tracer.wrap(f"{name}.{attr}", fn)
            wrappers[id(fn)] = (fn, w)

    grid, tik = mods["grid"], mods["tikhonov"]
    methods = [
        (grid.GridFunction, "__post_init__", "grid.GridFunction"),
        (tik.SurrogateHandle, "forward", "tikhonov.SurrogateHandle.forward"),
        (tik.SurrogateHandle, "misfit_and_gradient",
         "tikhonov.SurrogateHandle.misfit_and_gradient"),
    ]
    rebound = []  # (module or class, attribute, original)
    try:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "invop" and not mod_name.startswith("invop."):
                continue
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    rebound.append((mod, key, val))
                    setattr(mod, key, hit[1])
        for cls, attr, span in methods:
            orig = cls.__dict__[attr]
            rebound.append((cls, attr, orig))
            setattr(cls, attr, tracer.wrap(span, orig))
        yield
    finally:
        for owner, attr, orig in reversed(rebound):
            setattr(owner, attr, orig)


def _serialize_wrapper(tracer, name, fn, counts):
    writes = name.startswith("serialize.save_")
    key = "bytes_written" if writes else "bytes_read"
    inner = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def traced(path, *args, **kwargs):
        if not writes:
            counts[key] = counts.get(key, 0) + os.path.getsize(path)
        out = inner(path, *args, **kwargs)
        if writes:
            counts[key] = counts.get(key, 0) + os.path.getsize(path)
        return out

    return traced


def _cli_wrapper(tracer, fn, counts):
    @functools.wraps(fn)
    def traced(argv=None):
        command = argv[0] if argv else "none"
        idx = tracer.open(f"cli.{command}")
        try:
            code = fn(argv)
        finally:
            tracer.close(idx)
        if code != 0:
            counts["nonzero_exits"] = counts.get("nonzero_exits", 0) + 1
        return code

    return traced


# ---------------------------------------------------------------------------
# analysis


def _union_length(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(t: Tracer) -> list:
    """Per span: its duration minus the part of it covered by its children."""
    children = [[] for _ in range(len(t))]
    for i, p in enumerate(t.parent):
        if p >= 0:
            children[p].append((t.start[i], t.end[i]))
    out = []
    for s, e, kids in zip(t.start, t.end, children):
        clipped = [(max(ks, s), min(ke, e)) for ks, ke in kids]
        out.append(e - s - _union_length([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanStats:
    """Counts, durations and self times of a finished trace."""

    def __init__(self, t: Tracer):
        self.t = t
        self.self_s = self_times(t)
        self.by_name = {}
        for i, name in enumerate(t.name):
            self.by_name.setdefault(name, []).append(i)

    def calls(self, *names) -> int:
        return sum(len(self.by_name.get(n, ())) for n in names)

    def durations(self, *names) -> list:
        t = self.t
        return [t.end[i] - t.start[i] for n in names for i in self.by_name.get(n, ())]

    def total_s(self, *names) -> float:
        return sum(self.durations(*names))

    def p50_ms(self, *names) -> float:
        d = self.durations(*names)
        return statistics.median(d) * 1e3 if d else 0.0

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in zip(self.t.name, self.self_s):
            out[layer_of(name)] += st
        return out

    def top_level_s(self) -> float:
        t = self.t
        return sum(t.end[i] - t.start[i] for i, p in enumerate(t.parent) if p < 0)

    def _has_ancestor(self, i: int, wanted) -> bool:
        t = self.t
        p = t.parent[i]
        while p >= 0 and t.name[p] not in wanted:
            p = t.parent[p]
        return p >= 0

    def outermost_s(self, *names) -> float:
        """Inclusive time of the named spans that have no named ancestor."""
        t = self.t
        return sum(t.end[i] - t.start[i] for n in names for i in self.by_name.get(n, ())
                   if not self._has_ancestor(i, names))

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (at any depth) inside an ``ancestor`` span."""
        return sum(self._has_ancestor(i, (ancestor,)) for i in self.by_name.get(name, ()))
