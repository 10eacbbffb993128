"""In-memory span tracing around the public calls of each driftbench layer.

The wrappers live here, in the benchmark, not in the library: a
``Tracer`` patches module and class attributes for the duration of a
``with tracer.installed(targets):`` block and restores them afterwards.
Each call becomes one span (name, start, end, parent); spans are kept in
flat arrays and written as JSONL only when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    """Records nested spans in call order.

    ``names[i]``, ``starts[i]``, ``ends[i]`` and ``parents[i]`` describe
    span ``i``; ``parents[i]`` is the index of the innermost enclosing
    span, or ``NO_PARENT``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A callable that records one span named ``name`` per call of ``fn``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attribute, span_name)`` target.

        One wrapper is made per distinct original function, so a function
        imported into several modules is patched everywhere with the same
        wrapper and each call is recorded once. A target the library no
        longer has (say, a function renamed by a refactor) raises
        ``LookupError`` before anything is patched: its metrics would
        otherwise read 0 and look like a speed-up.
        """
        missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
                   if attr not in owner.__dict__]
        if missing:
            raise LookupError(f"trace targets not found: {', '.join(missing)}")
        saved = []
        wrappers = {}
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path, first: int = 0) -> None:
        """Write spans ``first..`` one JSON object a line; ``parent`` is
        a span id, and -1 for a span with no parent."""
        with open(path, "w") as handle:
            for i in range(first, len(self.names)):
                record = {"id": i, "name": self.names[i],
                          "start": self.starts[i], "end": self.ends[i],
                          "parent": self.parents[i]}
                handle.write(json.dumps(record) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(names, starts, ends, parents, first: int = 0,
              last: int | None = None):
    """Per-span-name call counts and inclusive seconds, plus per-layer
    self seconds, over spans ``first..last-1``.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread never overlap their siblings, so the
    children cover disjoint parts of the parent's interval.
    """
    last = len(names) if last is None else last
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child_time = defaultdict(float)
    for i in range(first, last):
        duration = ends[i] - starts[i]
        calls[names[i]] += 1
        total[names[i]] += duration
        if parents[i] != NO_PARENT:
            child_time[parents[i]] += duration
    self_time: dict[str, float] = defaultdict(float)
    for i in range(first, last):
        self_time[layer_of(names[i])] += ends[i] - starts[i] - child_time[i]
    return dict(calls), dict(total), dict(self_time)
