"""In-memory span recorder for the traced benchmark runs.

A span is one timed call at a layer boundary: its name (``layer.function``),
start and end (``time.perf_counter``), the id of the span that was open when
it started, and the id of the run it belongs to.  Spans stay in memory and
are written out once, when the traced process ends.  A layer's self time is
the duration of its spans minus the part covered by their child spans.

Only calls made by the benchmark itself, or by the CLI's command handlers,
are wrapped: a call made from inside an already-wrapped public function runs
untraced, so no span is ever opened inside the program.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._inside_leaf = False

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a block; when disabled, only the duration is kept (in ``rec``)."""
        rec = {"name": name, "attrs": attrs}
        if self.enabled:
            rec.update(
                id=next(self._ids),
                parent=self._stack[-1] if self._stack else None,
                run=self.run_id,
            )
            self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.enabled:
                self._stack.pop()
                self.spans.append(rec)

    def wrap(self, fn, name: str, *, leaf: bool = True, after=None):
        """Return ``fn`` with a span around each call made outside another leaf.

        ``after(rec, result, args, kwargs)`` may add attributes to the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._inside_leaf:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                self._inside_leaf = leaf
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._inside_leaf = False
                if after is not None:
                    after(rec, result, args, kwargs)
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        payload = {
            "run": self.run_id,
            "spans": sorted(self.spans, key=lambda s: s["start"]),
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer (the part of a span name before the dot)."""
    child_time: dict[int, float] = collections.defaultdict(float)
    for s in spans:
        if s.get("parent") is not None:
            child_time[s["parent"]] += duration(s)
    out: dict[str, float] = collections.defaultdict(float)
    for s in spans:
        out[s["name"].split(".", 1)[0]] += duration(s) - child_time[s["id"]]
    return dict(out)
