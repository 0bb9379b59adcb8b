"""Span tracing from outside the package.

Public functions are wrapped where their callers look them up (module
globals), so the package itself is untouched.  Each call records one span:
name, start, end, parent span, op id and a small note taken from the
arguments and the outcome.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int
    note: object

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        # A slot is reserved at call entry so that children can name their
        # parent; every slot is filled by the time the call returns.
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def wrap(self, name: str, fn, note=None):
        """Return fn recording a span per call; note(args, outcome) -> span note."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outcome = None
            start = perf_counter_ns()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = Span(
                    name, start, end, parent, self.op, note(args, outcome) if note else None
                )

        return traced

    def patch(self, name: str, fn, note, *targets: tuple[object, str]) -> None:
        """Install one wrapper of fn under every (module, attribute) in targets."""
        traced = self.wrap(name, fn, note)
        for module, attr in targets:
            self._patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.ns
    return [s.ns - c for s, c in zip(spans, child)]


class NonfiniteCounter(logging.Handler):
    """Sums the skip counts scan_sign_changes logs for non-finite nodes."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.nodes = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("scan_sign_changes: skipped"):
            self.nodes += record.args[0]
