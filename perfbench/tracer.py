"""In-memory span tracer for the benchmark's traced run.

A span has a name, a start, an end and a parent.  Spans are kept in
memory and written out only when the run ends.  A span's *self time*
is its length minus the time its children cover.

Spans opened in one process nest strictly, so self time is computed
online: each closing span adds its length to its parent's child time.
Per-cycle spans (the pipeline stages and the scheme tick) would be far
too many to keep one by one, so names listed as *hot* are folded into a
summary per ``(name, parent)`` holding the call count, total length and
total self time; their parent is the nearest stored ancestor.

Spans from forked worker processes (the parallel figure sweep) are
written by each worker to a spool directory as it exits and merged into
the parent's tracer afterwards (:meth:`Tracer.merge`).  A worker's root
span is parented to the span that was open in the parent when it
forked, and workers run concurrently, so the parent's self time is then
recomputed from the *union* of its children's intervals.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One finished span; times are ``time.perf_counter`` seconds, which
    on Linux is the system-wide monotonic clock, so spans from worker
    processes share the parent's time base."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Summary:
    """Calls of one hot span name under one stored parent span."""

    name: str
    parent: Optional[int]
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


# Open-frame layout (a list, mutated in place on the hot path).
_START, _CHILD, _ID, _ANCHOR, _NAME = range(5)


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self, hot: Iterable[str] = (), clock=time.perf_counter):
        self.hot = frozenset(hot)
        self.clock = clock
        self.spans: List[Span] = []
        self.summaries: Dict[Tuple[str, Optional[int]], Summary] = {}
        self.counters: Counter = Counter()
        #: Parent id given to root spans (set in forked workers).
        self.base_parent: Optional[int] = None
        self._stack: List[list] = []
        self._pid = os.getpid()
        self._next = 0

    # -- recording ---------------------------------------------------------------
    def begin(self, name: str) -> list:
        """Open a span; returns the frame to hand to :meth:`end`."""
        stack = self._stack
        parent_anchor = stack[-1][_ANCHOR] if stack else self.base_parent
        if name in self.hot:
            span_id, anchor = None, parent_anchor
        else:
            self._next += 1
            span_id = anchor = (self._pid << 32) | self._next
        frame = [0.0, 0.0, span_id, anchor, name]
        stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def end(self, frame: list) -> None:
        """Close the innermost span, which must be *frame*."""
        now = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[_NAME]!r} closed out of order")
        stack.pop()
        duration = now - frame[_START]
        self_s = duration - frame[_CHILD]
        if stack:
            stack[-1][_CHILD] += duration
            parent = stack[-1][_ANCHOR]
        else:
            parent = self.base_parent
        name = frame[_NAME]
        if frame[_ID] is None:
            key = (name, parent)
            summary = self.summaries.get(key)
            if summary is None:
                summary = self.summaries[key] = Summary(name, parent)
            summary.count += 1
            summary.total_s += duration
            summary.self_s += self_s
        else:
            self.spans.append(
                Span(frame[_ID], name, frame[_START], now, parent, self_s))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- worker processes ----------------------------------------------------------
    def reset_for_fork(self) -> None:
        """Start a forked worker's own record, parented to the span that
        was open in the parent when it forked."""
        self.base_parent = self._stack[-1][_ANCHOR] if self._stack else None
        self._stack = []
        self.spans = []
        self.summaries = {}
        self.counters = Counter()
        self._pid = os.getpid()
        self._next = 0

    def dump(self, path: Path) -> None:
        """Write this process's spans, summaries and counters to *path*."""
        payload = {
            "spans": [asdict(span) for span in self.spans],
            "summaries": [asdict(s) for s in self.summaries.values()],
            "counters": dict(self.counters),
        }
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def merge(self, paths: Iterable[Path]) -> int:
        """Fold worker dumps into this tracer; returns how many merged."""
        merged = 0
        parents, merged_ids = set(), set()
        for path in paths:
            payload = json.loads(Path(path).read_text())
            for data in payload["spans"]:
                span = Span(**data)
                self.spans.append(span)
                parents.add(span.parent)
                merged_ids.add(span.id)
            for data in payload["summaries"]:
                key = (data["name"], data["parent"])
                summary = self.summaries.get(key)
                if summary is None:
                    summary = self.summaries[key] = Summary(data["name"],
                                                            data["parent"])
                summary.count += data["count"]
                summary.total_s += data["total_s"]
                summary.self_s += data["self_s"]
            self.counters.update(payload["counters"])
            merged += 1
        # Workers computed their own spans' self times; only spans of this
        # process that gained worker children need recomputing.
        self._recompute_self(parents - merged_ids)
        return merged

    def _recompute_self(self, parent_ids) -> None:
        """Self time from the union of children's intervals, for parents
        whose children may overlap (concurrent workers)."""
        by_id = {span.id: span for span in self.spans}
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent in parent_ids:
                children.setdefault(span.parent, []).append(span)
        for parent_id, kids in children.items():
            parent = by_id.get(parent_id)
            if parent is None:
                continue
            covered = union_length(
                (max(k.start, parent.start), min(k.end, parent.end))
                for k in kids)
            hot = sum(s.total_s for (name, p), s in self.summaries.items()
                      if p == parent_id)
            parent.self_s = max(0.0, parent.duration - covered - hot)

    # -- queries -------------------------------------------------------------------
    def busy(self, name: str) -> float:
        """Total length of every span called *name* (inclusive time)."""
        return (sum(s.duration for s in self.spans if s.name == name)
                + sum(s.total_s for s in self.summaries.values()
                      if s.name == name))

    def self_time(self, name: str) -> float:
        return (sum(s.self_s for s in self.spans if s.name == name)
                + sum(s.self_s for s in self.summaries.values()
                      if s.name == name))

    def calls(self, name: str) -> int:
        return (sum(1 for s in self.spans if s.name == name)
                + sum(s.count for s in self.summaries.values()
                      if s.name == name))

    def busy_under(self, name: str, ancestor: str) -> float:
        """Inclusive time of *name* spans that have an *ancestor* span."""
        by_id = {span.id: span for span in self.spans}

        def has_ancestor(span: Span) -> bool:
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name == ancestor:
                    return True
                parent = by_id.get(parent.parent)
            return False

        return sum(s.duration for s in self.spans
                   if s.name == name and has_ancestor(s))

    def names(self) -> List[str]:
        return sorted({s.name for s in self.spans}
                      | {s.name for s in self.summaries.values()})

    def violations(self, tolerance: float = 1e-6) -> List[str]:
        """Spans whose self time is negative or exceeds their parent's
        length (a broken nesting would show up here)."""
        by_id = {span.id: span for span in self.spans}
        problems = []
        for span in self.spans:
            if span.self_s < -tolerance or span.self_s > span.duration + tolerance:
                problems.append(f"{span.name}: self {span.self_s:.6f}s outside "
                                f"[0, {span.duration:.6f}s]")
            parent = by_id.get(span.parent)
            if parent is not None and span.self_s > parent.duration + tolerance:
                problems.append(f"{span.name}: self {span.self_s:.6f}s exceeds "
                                f"parent {parent.name} {parent.duration:.6f}s")
        for summary in self.summaries.values():
            parent = by_id.get(summary.parent)
            if parent is not None and summary.self_s > parent.duration + tolerance:
                problems.append(f"{summary.name}: self {summary.self_s:.6f}s "
                                f"exceeds parent {parent.name} "
                                f"{parent.duration:.6f}s")
        return problems


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``s."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total
