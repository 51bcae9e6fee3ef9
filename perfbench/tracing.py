"""Spans and exact call counts recorded from outside the program.

The benchmark never edits detcover: it replaces, for the length of one
pass, the names through which each layer is called (module globals as the
callers bind them, and the GF64 instance's mul/inv) and puts the originals
back afterwards.

Tracer keeps one span stack and one span buffer per thread.  A span that
starts on a thread with an empty stack (a worker of the threaded sweep)
takes the solve in progress as its parent, so kdm_2w's determinants still
hang under their solve.  Spans stay in memory until write() is called.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) as the callers bind them
SPAN_TARGETS = [
    ("solver", "determinant"), ("solver", "cover_weight"), ("solver", "project"),
    ("solver", "validate"), ("solver", "optimize"), ("solver", "repetitions"),
    ("matchweight", "determinant"), ("matchweight", "interpolate"),
    ("matchweight", "loop_weights"), ("matchweight", "elementary_symmetric"),
]
FIELD_TARGETS = ("mul", "inv")
ROOT = "solve"


@contextmanager
def patched(replacements):
    """Set obj.attr = value for each (obj, attr, value); restore on exit.

    An attribute that only existed on the class (the field's methods) is
    deleted again, so the instance falls back to the class method.
    """
    saved = []
    try:
        for obj, attr, value in replacements:
            own = vars(obj)
            saved.append((obj, attr, own[attr] if attr in own else None, attr in own))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, old, had in reversed(saved):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    """Span recorder; wrap() returns a function that records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self.request = 0   # id of the solve span in progress

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], array("d"))
            self._buffers.append(state[1])  # list.append is atomic under the GIL
            return state

    def wrap(self, name: str, fn, root: bool = False):
        idx = len(self.names)
        self.names.append(name)
        ids, state, clock = self._ids, self._state, time.perf_counter

        def wrapper(*args, **kwargs):
            stack, buf = state()
            parent = stack[-1] if stack else self.request
            sid = next(ids)
            stack.append(sid)
            if root:
                self.request = sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.extend((sid, parent, idx, t0, t1))
        return wrapper

    def spans(self):
        """(id, parent, name, start, end) of every recorded span."""
        for buf in self._buffers:
            for i in range(0, len(buf), 5):
                sid, parent, idx, t0, t1 = buf[i:i + 5]
                yield int(sid), int(parent), self.names[int(idx)], t0, t1

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds.

        Self time is the span minus the part of its interval that its child
        spans cover; children on two worker threads may overlap, so the
        covered part is the union of their intervals.
        """
        children = defaultdict(list)
        spans = list(self.spans())
        for sid, parent, _, t0, t1 in spans:
            children[parent].append((t0, t1))
        out: dict[str, dict] = {}
        for sid, _, name, t0, t1 in spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - _covered(children.get(sid, ()), t0, t1)
        return out

    def write(self, path) -> int:
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, t0, t1 in self.spans():
                fh.write(f"{sid},{parent},{name},{t0!r},{t1!r}\n")
                count += 1
        return count


def _covered(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Counts:
    """Exact call counts; itertools.count advances atomically under the GIL."""

    def __init__(self):
        self._counters: dict[str, itertools.count] = {}

    def wrap(self, name: str, fn):
        counter = self._counters[name] = itertools.count()

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return wrapper

    def totals(self) -> dict[str, int]:
        """Counts so far; call once, after the pass (reading advances them)."""
        return {name: next(c) for name, c in self._counters.items()}


def span_replacements(modules: dict, tracer: Tracer):
    return [(modules[mod], attr, tracer.wrap(span_name(mod, attr), getattr(modules[mod], attr)))
            for mod, attr in SPAN_TARGETS]


def count_replacements(modules: dict, counts: Counts, field):
    reps = [(modules[mod], attr, counts.wrap(span_name(mod, attr), getattr(modules[mod], attr)))
            for mod, attr in SPAN_TARGETS]
    reps += [(field, attr, counts.wrap(f"gf2m.{attr}", getattr(field, attr)))
             for attr in FIELD_TARGETS]
    return reps
