"""Outside-in span tracer for the ipas package.

The tracer wraps every public function of the traced ipas modules at each
place the function is bound: its defining module, every other traced
module that imported it by name (``solver`` imports ``draw_sample`` and
``inexact_project`` that way), and the ``ipas`` package namespace.  Each
call records one span (name, start, end, parent, engine, count) in flat
arrays that stay in memory until the traced section ends; leaving the
``with`` block restores the original bindings.

A span's engine is the nearest enclosing ``solver.run`` or
``baseline.run_baseline`` span, so the same function can be reported
separately for the adaptive solver and for the baseline.  Self time is a
span's duration minus the durations of its direct children.

Nothing here depends on a particular function existing: a name that a
later refactor removes is simply not wrapped, and the metrics that need it
report it as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

PACKAGE = "ipas"
TRACED_MODULES = ("constraints", "objective", "problems", "solver", "baseline", "experiment", "cli")
ENGINES = ("solver.run", "baseline.run_baseline")


class Tracer:
    """Record spans around the public ipas functions while the context is open.

    classify maps a span name to a function of the call's (args, kwargs)
    that returns the name to record instead (used to split oracle calls
    from metered ones).  count maps a span name to a function of (args,
    kwargs) returning an integer stored with the span, such as a sample
    size.  keep names the spans whose return values are kept in
    ``self.kept``.
    """

    def __init__(self, classify=None, count=None, keep=()):
        self._classify = dict(classify or {})
        self._count = dict(count or {})
        self._keep = frozenset(keep)
        self.kept = {name: [] for name in self._keep}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._engine_ids: set[int] = set()
        self._name = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._parent = array("i")
        self._engine = array("i")
        self._n = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.absent_modules: list[str] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            if name in ENGINES:
                self._engine_ids.add(nid)
        return nid

    def _wrap(self, fn, name: str):
        # The span bookkeeping is inlined here: it runs on every traced call.
        classify = self._classify.get(name)
        counter = self._count.get(name)
        kept = self.kept.get(name)
        static_id = self._id(name)
        span_id = self._id
        engine_ids = self._engine_ids
        stack = self._stack
        a_name, a_t0, a_t1 = self._name, self._t0, self._t1
        a_parent, a_engine, a_n = self._parent, self._engine, self._n
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = static_id if classify is None else span_id(classify(args, kwargs))
            count = -1
            if counter is not None:
                try:
                    count = int(counter(args, kwargs))
                except (IndexError, KeyError, AttributeError, TypeError, ValueError):
                    count = -1
            parent = stack[-1] if stack else -1
            if nid in engine_ids:
                engine = nid
            else:
                engine = a_engine[parent] if parent >= 0 else -1
            idx = len(a_t0)
            a_name.append(nid)
            a_parent.append(parent)
            a_engine.append(engine)
            a_n.append(count)
            a_t1.append(0.0)
            stack.append(idx)
            a_t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                a_t1[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        pkg = importlib.import_module(PACKAGE)
        modules = []
        for short in TRACED_MODULES:
            try:
                modules.append((short, importlib.import_module(f"{PACKAGE}.{short}")))
            except ImportError:
                self.absent_modules.append(short)
        wrappers: dict[int, tuple[object, object]] = {}
        for short, mod in modules:
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(obj, name))
                self.wrapped.add(name)
        for mod in [pkg] + [mod for _, mod in modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self._t0)

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)


class TraceSummary:
    """Per-name totals of a finished trace, optionally split by engine."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        n = tracer.n_spans
        t0, t1, parent, name, engine, count = (
            tracer._t0, tracer._t1, tracer._parent, tracer._name, tracer._engine, tracer._n,
        )
        child_time = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += t1[i] - t0[i]
        # (name, engine name or None) -> [calls, total, self, count sum]
        stats: dict[tuple[str, str | None], list] = {}
        # (parent name, name) -> [calls, total]
        edges: dict[tuple[str, str], list] = {}
        for i in range(n):
            nm = names[name[i]]
            dur = t1[i] - t0[i]
            eng = names[engine[i]] if engine[i] >= 0 else None
            for key in ((nm, eng), (nm, None)) if eng is not None else ((nm, None),):
                s = stats.get(key)
                if s is None:
                    s = stats[key] = [0, 0.0, 0.0, 0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - child_time[i]
                if count[i] > 0:
                    s[3] += count[i]
            p = parent[i]
            if p >= 0:
                e = edges.setdefault((names[name[p]], nm), [0, 0.0])
                e[0] += 1
                e[1] += dur
        self._stats = stats
        self._edges = edges
        self.wrapped = frozenset(tracer.wrapped)
        self.n_spans = n

    def _get(self, name: str, engine: str | None) -> list:
        return self._stats.get((name, engine), [0, 0.0, 0.0, 0])

    def calls(self, name: str, engine: str | None = None) -> int:
        return self._get(name, engine)[0]

    def total(self, name: str, engine: str | None = None) -> float:
        return self._get(name, engine)[1]

    def self_time(self, name: str, engine: str | None = None) -> float:
        return self._get(name, engine)[2]

    def count_sum(self, name: str, engine: str | None = None) -> int:
        return self._get(name, engine)[3]

    def child_calls(self, parent: str, name: str) -> int:
        return self._edges.get((parent, name), [0, 0.0])[0]

    def child_total(self, parent: str, name: str) -> float:
        return self._edges.get((parent, name), [0, 0.0])[1]
