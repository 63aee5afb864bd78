"""Span tracing of the simulator's layers, installed from outside the package.

`Tracer.wrap` replaces a class method or module function with a wrapper that
records one span per call: start and end (host nanoseconds), name, and the
index of the enclosing span. Spans stay in memory in flat arrays and are
written out by `Tracer.write` when the run ends. Self time is a span's
duration minus the durations of its direct children; the wrappers' own
bookkeeping between a parent's clock reads and a child's lands in the
parent's self time, which `trace.overhead_ratio` bounds from above.

A wrapper may take a `post(args, result)` hook, called after the span's end
clock read. It can bump counters kept at the same boundary and may return a
name id to rename the span (the fabric's hit/miss split), or None.
"""

from __future__ import annotations

import json
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {}  # kept by the post hooks
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("i")
        self._open: list[int] = []  # indices of the spans now open, innermost last
        self._child_ns: list[int] = []  # per open span: time its finished children took
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, post=None):
        """Install a span wrapper on `owner.attr` (a class or a module)."""
        orig = vars(owner)[attr]
        base = self.name_id(name)
        clock = time.perf_counter_ns
        start, end, names, parent = self.start, self.end, self.name, self.parent
        open_, child_ns, calls, self_ns = self._open, self._child_ns, self.calls, self.self_ns

        def close(idx, name_id, t1):
            open_.pop()
            dur = t1 - start[idx]
            self_ns[name_id] += dur - child_ns.pop()
            calls[name_id] += 1
            end[idx] = t1
            names[idx] = name_id
            if child_ns:
                child_ns[-1] += dur

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(open_[-1] if open_ else -1)
            names.append(base)
            end.append(0)
            open_.append(idx)
            child_ns.append(0)
            start.append(clock())
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                close(idx, base, clock())
                raise
            t1 = clock()
            renamed = post(args, result) if post else None
            close(idx, base if renamed is None else renamed, t1)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap_all(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def layer(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name; zeros if it never ran."""
        i = self._ids.get(name)
        return (0, 0.0) if i is None else (self.calls[i], self.self_ns[i] / 1e9)

    def write(self, stem: str):
        """Write `<stem>.bin` (the span arrays, back to back) and `<stem>.json`."""
        with open(stem + ".bin", "wb") as fh:
            for column in (self.start, self.end, self.name, self.parent):
                column.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [["start_ns", "q"], ["end_ns", "q"], ["name", "H"], ["parent", "i"]],
            "layout": "native-endian array module columns, one after another;"
                      " parent is a span index, -1 at the top",
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
