"""In-memory spans and counters for the traced run.

Every span is recorded from the benchmark's side of a call: `Tracer.patch`
replaces a module attribute, at the place where the program looks the
function up, with a wrapper that opens a span around the original call.
`Tracer.restore` puts the originals back.  Spans stay in memory and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span['name']} closed out of order (open: {top['name']})")

    def current(self) -> int | None:
        return self._stack[-1]["id"] if self._stack else None

    def aggregate(self, name: str, parent: int | None, start: float, end: float, busy: float, **attrs) -> None:
        """One span for many short calls: `busy` is the summed call time
        between the first call's start and the last call's end."""
        span = {"id": len(self.spans), "name": name, "parent": parent, "start": start, "end": end, "busy": busy}
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)

    def patch(self, module, attr: str, span: str | None = None, count=None) -> None:
        """Wrap `module.attr`.

        `span` names the span opened around each call; without it the call
        is only counted.  `count(args, result)` returns a dict of counter
        increments.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attr}")
            print(f"perfbench: no {module.__name__}.{attr} to trace", file=sys.stderr)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            opened = tracer.begin(span) if span else None
            try:
                result = original(*args, **kwargs)
            finally:
                if opened is not None:
                    tracer.end(opened)
            if count is not None:
                try:
                    tracer.counts.update(count(args, result))
                except Exception as exc:  # a changed signature loses the count, not the run
                    tracer.missing.add(f"count of {module.__name__}.{attr}: {exc!r}")
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def duration(span: dict) -> float:
    return span["busy"] if "busy" in span else span["end"] - span["start"]


def span_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name.

    A span's self time is its duration minus the time its child spans
    cover, so the self times of all spans add up to the roots' durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration(span)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        total[span["name"]] += duration(span)
        own[span["name"]] += duration(span) - covered[span["id"]]
    return dict(total), dict(own)
