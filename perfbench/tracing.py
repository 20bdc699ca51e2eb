"""Spans around calls into pgakit, recorded from outside the package.

A :class:`Tracer` keeps one record per call -- name, start, end and the
index of the span that was open when the call began -- in flat arrays,
and writes them to disk when the run ends.  :func:`install` wraps every
public module-level function of every pgakit module, the ``Multivector``
product operators, ``Algebra`` construction and the ``numpy.linalg``
entry points, and rebinds *every* module attribute that refers to a
wrapped function, so aliases made by ``from .versors import sandwich``
are traced as well.  :meth:`Tracer.restore` puts the originals back.

Nothing inside ``src/pgakit`` is modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from dataclasses import dataclass

# the packages whose public functions get a span
PACKAGE = "pgakit"
LINALG = "numpy.linalg"
# the operator methods of Multivector and the span name each gets
OPERATORS = {"__mul__": "algebra.gp", "__xor__": "algebra.op",
             "__or__": "algebra.ip", "commutator": "algebra.commutator"}
BUILD = "algebra.Algebra.build"
NEW = "algebra.Multivector.new"
ROOT = "run"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: dict[str, list[int]] = {}
        self.enabled = True
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = self.name_id(name)
        names, start, end, parent = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that each call only increments a count."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        """Undo every :meth:`patch`, last first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, **meta):
        """Write the spans to ``path`` (binary) and ``path + '.json'``."""
        with open(path, "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)
        info = dict(meta, names=self.names, n_spans=len(self.start),
                    counts={k: v[0] for k, v in self.counts.items()})
        with open(path + ".json", "w") as fh:
            json.dump(info, fh)


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def _linalg_functions(linalg):
    for attr in dir(linalg):
        obj = getattr(linalg, attr)
        if (not attr.startswith("_") and attr != "test" and callable(obj)
                and not inspect.isclass(obj) and not inspect.ismodule(obj)):
            yield attr, obj


def pgakit_modules() -> dict[str, object]:
    """The imported pgakit submodules keyed by short name."""
    prefix = PACKAGE + "."
    return {name[len(prefix):]: mod for name, mod in sorted(sys.modules.items())
            if name.startswith(prefix) and mod is not None
            and name[len(prefix):] != "__main__"}


def install(tracer: Tracer):
    """Trace pgakit's public functions, operators and numpy.linalg calls.

    pgakit (and whatever entry modules the run uses) must already be
    imported: only modules present in ``sys.modules`` are rebound.
    """
    import numpy.linalg as linalg
    from pgakit.algebra import Algebra, Multivector

    modules = pgakit_modules()
    wrapped = {}                       # id(original) -> traced version
    for short, mod in modules.items():
        for attr, fn in _public_functions(mod):
            wrapped[id(fn)] = tracer.span(f"{short}.{attr}", fn)
    for attr, fn in _linalg_functions(linalg):
        wrapped[id(fn)] = tracer.span(f"{LINALG}.{attr}", fn)

    for owner in (sys.modules[PACKAGE], linalg, *modules.values()):
        for attr, obj in list(vars(owner).items()):
            replacement = wrapped.get(id(obj))
            if replacement is not None:
                tracer.patch(owner, attr, replacement)

    for method, name in OPERATORS.items():
        original = vars(Multivector)[method]
        traced = tracer.span(name, original)
        if method == "__mul__":
            traced = _products_only(traced, original, Multivector)
        tracer.patch(Multivector, method, traced)
    tracer.patch(Multivector, "__init__",
                 tracer.counter(NEW, vars(Multivector)["__init__"]))
    tracer.patch(Algebra, "__init__",
                 tracer.span(BUILD, vars(Algebra)["__init__"]))


def _products_only(traced, original, mv_type):
    # ``mv * 2.0`` is a scaling, not a geometric product: no span for it
    @functools.wraps(original)
    def mul(self, other):
        if isinstance(other, mv_type):
            return traced(self, other)
        return original(self, other)
    return mul


# ---------------------------------------------------------------------------
# reading a trace back


@dataclass
class Trace:
    names: list
    name: array
    start: array
    end: array
    parent: array
    meta: dict

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path + ".json") as fh:
            meta = json.load(fh)
        n = meta["n_spans"]
        arrays = []
        with open(path, "rb") as fh:
            for _ in range(4):
                arr = array("q")
                arr.fromfile(fh, n)
                arrays.append(arr)
        return cls(meta["names"], *arrays, meta=meta)


def self_times(start, end, parent) -> tuple[list[int], list[int]]:
    """Inclusive and self duration of every span.

    A span's self time is its duration minus the durations of the spans
    directly inside it.  Parents are recorded before their children, so
    one pass suffices.
    """
    dur = [e - s for s, e in zip(start, end)]
    inner = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            inner[p] += dur[i]
    return dur, [d - c for d, c in zip(dur, inner)]


@dataclass(frozen=True)
class Stat:
    calls: int
    self_s: float
    total_s: float
    p50_us: float


def aggregate(trace: Trace) -> dict[str, Stat]:
    """Per-name call count, summed self and inclusive time, median call."""
    dur, own = self_times(trace.start, trace.end, trace.parent)
    per_name: dict[int, list[int]] = {}
    self_ns: dict[int, int] = {}
    for i, nid in enumerate(trace.name):
        per_name.setdefault(nid, []).append(dur[i])
        self_ns[nid] = self_ns.get(nid, 0) + own[i]
    return {trace.names[nid]: Stat(len(ds), self_ns[nid] / 1e9, sum(ds) / 1e9,
                                   statistics.median(ds) / 1e3)
            for nid, ds in per_name.items()}


def inside_count(trace: Trace, outer: str, prefix: str) -> int:
    """Spans whose name starts with ``prefix`` and that run inside ``outer``."""
    if outer not in trace.names:
        return 0
    oid = trace.names.index(outer)
    want = {i for i, nm in enumerate(trace.names) if nm.startswith(prefix)}
    inside = [False] * len(trace.name)
    count = 0
    for i, (nid, p) in enumerate(zip(trace.name, trace.parent)):
        inside[i] = nid == oid or (p >= 0 and inside[p])
        if nid in want and p >= 0 and inside[p]:
            count += 1
    return count


def children_time(trace: Trace, outer: str, exclude=()) -> float:
    """Seconds spent in spans directly inside ``outer``, except ``exclude``."""
    if outer not in trace.names:
        return 0.0
    oid = trace.names.index(outer)
    skip = {trace.names.index(nm) for nm in exclude if nm in trace.names}
    total = 0
    for i, p in enumerate(trace.parent):
        if p >= 0 and trace.name[p] == oid and trace.name[i] not in skip:
            total += trace.end[i] - trace.start[i]
    return total / 1e9
