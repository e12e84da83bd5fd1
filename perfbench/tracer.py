"""Out-of-tree tracer for the benchmark's traced run.

``Tracer.install()`` replaces every public function of the commkex
modules, in every module namespace that binds it, with a wrapper that
records a span.  A span is named after the binding the caller went
through (``attacks.mat_mul`` is ``linalg.mat_mul`` as called from
``attacks``) and aggregated under the function's home name
(``linalg.mat_mul``).  A few methods are wrapped the same way, and three
small ones (``Rng.below``, ``Field.inv``, ``Transcript.append``) only
have their calls counted.  Nothing under ``src/`` is edited;
``uninstall()`` puts the original objects back.

Spans live in memory, one list per thread, each with its parent span
and its root span.  The benchmark opens a root span per set-up step
and per timed operation, so every layer span is attributed to the
phase it ran in.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
import types
from collections import defaultdict

from commkex import attacks, commutant, dh, gf, kex, linalg, wire

MODULES = (gf, linalg, commutant, kex, attacks, dh, wire)

# (class, attribute, home name) of methods recorded as spans.
SPAN_METHODS = (
    (wire.Transcript, "to_json", "wire.Transcript.to_json"),
    (wire.Transcript, "from_json", "wire.Transcript.from_json"),
    (wire._FrameReader, "next_frame", "wire._FrameReader.next_frame"),
)
# Methods too small to time: only their calls (and attributes) are counted.
COUNT_METHODS = (
    (gf.Rng, "below", "gf.Rng.below"),
    (gf.Field, "inv", "gf.Field.inv"),
    (wire.Transcript, "append", "wire.Transcript.append"),
)


def _solve_cells(args, result):
    a, rhs = args[1], args[2]
    width = rhs.cols if isinstance(rhs, linalg.Matrix) else 1
    return {"cells": a.rows * (a.cols + width)}


def _transcript_size(args, result):
    frames = args[0].frames
    return {"bytes": sum(5 + len(f.payload) for _, f in frames), "frames": len(frames)}


# Counts read off a call at the layer boundary: home name -> hook(args, result).
HOOKS = {
    "linalg.mat_mul": lambda args, r: {"mults": args[1].rows * args[1].cols * args[2].cols},
    "linalg.mat_apply": lambda args, r: {"mults": args[1].rows * args[1].cols},
    "linalg.solve_linear": _solve_cells,
    "commutant.sample_ring_element": lambda args, r: {"ok": 1},
    "kex.keygen": lambda args, r: {"ok": 1},
    "kex.params_to_json": lambda args, r: {"bytes": len(r)},
    "kex.params_from_json": lambda args, r: {"bytes": len(args[0])},
    "attacks.passive_commutant_attack": lambda args, r: {
        "rank": r.rank,
        "degree_bound": r.degree_bound,
    },
    "wire.eavesdrop": _transcript_size,
    "wire.Transcript.append": lambda args, r: {"bytes": 5 + len(args[2].payload), "frames": 1},
}

# Span record fields (a list per span, for speed).
_BINDING, _HOME, _PARENT, _ROOT, _T0, _T1, _ATTRS = range(7)


class _ThreadState:
    __slots__ = ("spans", "stack", "counts")

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict = {}


class Summary:
    """Totals of one traced run, keyed by (phase, home name).

    ``phase`` is the kind of the root span a call ran under ("setup" or
    "op").  ``edges`` is keyed by (phase, parent home, home).
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.attrs = defaultdict(lambda: defaultdict(int))
        self.edges = defaultdict(lambda: defaultdict(int))
        self.roots = defaultdict(list)

    def attr(self, phase, home, name):
        return self.attrs[phase, home][name]

    def total(self, table, home):
        """``table``'s value for ``home`` over set-up and timed phases."""
        return table["setup", home] + table["op", home]

    def total_attr(self, home, name):
        return self.attrs["setup", home][name] + self.attrs["op", home][name]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- wrapping ---------------------------------------------------------

    def _span(self, binding, home, fn):
        state = self._state
        hook = HOOKS.get(home)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            spans, stack = st.spans, st.stack
            idx = len(spans)
            rec = [binding, home, stack[-1] if stack else -1, stack[0] if stack else idx, 0, 0, None]
            spans.append(rec)
            stack.append(idx)
            rec[_T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_T1] = clock()
                stack.pop()
            if hook is not None:
                rec[_ATTRS] = hook(args, result)
            return result

        return traced

    def _count(self, home, fn):
        state = self._state
        hook = HOOKS.get(home)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            st = state()
            phase = st.spans[st.stack[0]][_HOME] if st.stack else None
            entry = st.counts.get((phase, home))
            if entry is None:
                entry = st.counts[phase, home] = defaultdict(int)
            entry["calls"] += 1
            if hook is not None:
                for name, value in hook(args, result).items():
                    entry[name] += value
            return result

        return counted

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod in MODULES:
            where = mod.__name__.rpartition(".")[2]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("commkex."):
                    continue
                home = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                self._patch(mod, attr, self._span(f"{where}.{attr}", home, fn))
        for cls, attr, home in SPAN_METHODS:
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._span(home, home, raw.__func__)))
            else:
                self._patch(cls, attr, self._span(home, home, raw))
        for cls, attr, home in COUNT_METHODS:
            self._patch(cls, attr, self._count(home, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, kind: str):
        """Open a root span ("setup" or "op") on the calling thread."""
        st = self._state()
        idx = len(st.spans)
        rec = [kind, kind, -1, idx, time.perf_counter_ns(), 0, None]
        st.spans.append(rec)
        st.stack.append(idx)
        try:
            yield
        finally:
            rec[_T1] = time.perf_counter_ns()
            st.stack.pop()

    # -- reading ----------------------------------------------------------

    def summary(self) -> Summary:
        out = Summary()
        for st in self._states:
            spans = st.spans
            child_ns = [0] * len(spans)
            for rec in spans:
                if rec[_PARENT] >= 0:
                    child_ns[rec[_PARENT]] += rec[_T1] - rec[_T0]
            for i, rec in enumerate(spans):
                dur = rec[_T1] - rec[_T0]
                phase = spans[rec[_ROOT]][_HOME]
                home = rec[_HOME]
                if rec[_ROOT] == i:
                    out.roots[home].append(dur)
                    continue
                key = (phase, home)
                out.calls[key] += 1
                out.self_ns[key] += dur - child_ns[i]
                out.incl_ns[key] += dur
                parent_home = spans[rec[_PARENT]][_HOME]
                edge = out.edges[phase, parent_home, home]
                edge["calls"] += 1
                if rec[_ATTRS]:
                    for name, value in rec[_ATTRS].items():
                        out.attrs[key][name] += value
                        edge[name] += value
            for key, entry in st.counts.items():
                for name, value in entry.items():
                    if name == "calls":
                        out.calls[key] += value
                    else:
                        out.attrs[key][name] += value
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line (times in ns since the first span)."""
        starts = [st.spans[0][_T0] for st in self._states if st.spans]
        origin = min(starts) if starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            for t, st in enumerate(self._states):
                for i, rec in enumerate(st.spans):
                    line = {
                        "thread": t,
                        "id": i,
                        "parent": rec[_PARENT],
                        "root": rec[_ROOT],
                        "name": rec[_BINDING],
                        "home": rec[_HOME],
                        "start_ns": rec[_T0] - origin,
                        "end_ns": rec[_T1] - origin,
                    }
                    if rec[_ATTRS]:
                        line["attrs"] = rec[_ATTRS]
                    fh.write(json.dumps(line, separators=(",", ":")) + "\n")
                for (phase, home), entry in sorted(st.counts.items(), key=str):
                    fh.write(
                        json.dumps(
                            {"thread": t, "counts": home, "phase": phase, **entry},
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
