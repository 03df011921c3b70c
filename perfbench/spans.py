"""In-memory spans around pdcalib's public functions, for the traced run.

A function is wrapped where its caller looks it up: ``cli`` imports
``parse_cohort_csv`` by name, so the wrapper replaces
``pdcalib.cli.parse_cohort_csv``; ``run_sweep`` finds ``sample_beta`` in
``pdcalib.calibrator``, so that is where its wrapper goes.  Each call
becomes one span ``(name, start, end, parent, call id, attrs)``; the
parent is the innermost wrapped call still open, and the call id is that
of the CLI call the span belongs to.  Spans stay in memory until
``write_jsonl`` is called at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    call_id: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def wrap(self, module, attr: str, name: str,
             attrs: Callable[[tuple, dict, Any], dict] | None = None) -> None:
        """Replace ``module.attr`` with a recording wrapper named ``name``.

        ``attrs(args, kwargs, result)`` runs after the span has ended, so
        its cost is not charged to the wrapped function.
        """
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "call_id": span.call_id, "attrs": span.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def span_cost() -> float:
    """Seconds one wrapper adds to a call: the median over 5 batches of a
    wrapped no-op's time per call minus the bare no-op's, 20,000 calls each."""
    def noop():
        return None

    calls = 20000
    costs = []
    for _ in range(5):
        namespace = types.SimpleNamespace(noop=noop)
        Tracer().wrap(namespace, "noop", "noop")
        wrapped = namespace.noop
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)
