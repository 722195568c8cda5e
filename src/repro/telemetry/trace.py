"""Span tracer: nested, thread- and process-aware timing spans.

A :class:`Span` records a name, ``trace_id``/``span_id``/``parent_id``
lineage, a wall-clock ``start`` (``time.time``), a monotonic ``duration``
(``time.perf_counter`` delta), the pid/thread that ran it, and optional
attributes.  Spans nest through a per-thread stack kept by the
:class:`Tracer`, so ``with span(...)`` blocks opened inside another span
automatically parent to it — including across :class:`TaskManager` worker
threads, which each get their own stack.

Process-awareness comes in two parts: span ids embed the pid (so ids stay
unique across ``ReplicaPool`` children), and :meth:`Tracer.adopt` grafts
serialized child-process spans into the parent trace, reparenting child
roots under the pipe round-trip span that produced them.

The disabled fast path is :data:`NULL_SPAN` — a slotted singleton whose
``__enter__``/``__exit__``/``set`` do nothing and allocate nothing, so hot
loops can keep their ``with telemetry.span(...)`` blocks unconditionally.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["NULL_SPAN", "Span", "Tracer", "summarize_trace"]

#: One pre-timed region for :meth:`Tracer.add_timed`:
#: ``(t0, t1, attrs, first_child)``.
Timing = Tuple[float, float, Dict[str, Any], int]

#: Finished spans buffered in memory before an automatic sink flush.
FLUSH_THRESHOLD = 10_000


class _NullSpan:
    """The disabled fast path: a do-nothing span singleton.

    ``__slots__ = ()`` and the module-level singleton guarantee the no-op
    path allocates nothing per call — ``telemetry.span(...)`` returns this
    exact object every time tracing is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One timed region.  Use as a context manager; reuse is not supported."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "attrs",
        "_tracer",
        "_t0",
        "_thread",
    )

    def __init__(self, tracer: "Tracer", name: str):
        self.name = name
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.start = 0.0
        self.duration = 0.0
        self.attrs: Optional[Dict[str, Any]] = None
        self._tracer = tracer
        self._t0 = 0.0
        self._thread = ""

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute (lazily allocating the dict)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack, self._thread = tracer._state()
        self.span_id = tracer._next_span_id()
        if stack:
            top = stack[-1]
            self.trace_id = top.trace_id
            self.parent_id = top.span_id
        else:
            self.trace_id = tracer._next_trace_id()
            self.parent_id = None
        stack.append(self)
        # One clock read per enter: the wall-clock start is reconstructed
        # from the tracer's epoch anchor instead of a second time.time() call.
        self._t0 = time.perf_counter()
        self.start = tracer._epoch + self._t0
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.duration = time.perf_counter() - self._t0
        stack, _ = self._tracer._state()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - misnested exit, still recover
            stack.remove(self)
        self._tracer._finish(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self._tracer._pid,
            "thread": self._thread,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _TimedBatch:
    """Pre-timed regions of one :meth:`Tracer.add_timed` call, unexpanded."""

    __slots__ = ("name", "trace_id", "parent_id", "thread", "timings")

    def __init__(self, name: str, parent: Span, thread: str, timings: List[Timing]):
        self.name = name
        self.trace_id = parent.trace_id
        self.parent_id = parent.span_id
        self.thread = thread
        self.timings = timings

    def _lineage(self, tracer: "Tracer") -> Tuple[List[str], List[str]]:
        """Fresh span ids for the timings, and each timing's parent id."""
        timings = self.timings
        parents: List[Optional[int]] = [None] * len(timings)
        for index, timing in enumerate(timings):
            for child in range(timing[3], index):
                if parents[child] is None:
                    parents[child] = index
        ids = [tracer._next_span_id() for _ in timings]
        return ids, [self.parent_id if up is None else ids[up] for up in parents]

    def records(self, tracer: "Tracer") -> List[Dict[str, Any]]:
        ids, parent_ids = self._lineage(tracer)
        return [
            {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": span_id,
                "parent_id": parent_id,
                "start": tracer._epoch + t0,
                "duration": t1 - t0,
                "pid": tracer._pid,
                "thread": self.thread,
                "attrs": dict(attrs),
            }
            for (t0, t1, attrs, _), span_id, parent_id in zip(
                self.timings, ids, parent_ids
            )
        ]

    def lines(self, tracer: "Tracer", encoded: Dict[int, str]) -> List[str]:
        """The JSONL lines ``json.dumps`` would write for :meth:`records`.

        Layer timings share their name, trace and thread within a batch and
        their attribute dicts across batches (one pair per traced layer),
        so those are encoded once — attrs into ``encoded``, keyed by
        ``id()`` and shared by every batch of one flush — and each line is
        formatted directly, several times cheaper than a ``json.dumps`` per
        record dict.  Span ids come from :meth:`Tracer._next_span_id` (hex
        and ``-`` only), so they are quoted without escaping; finite floats
        encode as their ``repr`` in JSON.
        """
        ids, parent_ids = self._lineage(tracer)
        head = '{"name": %s, "trace_id": %s, "span_id": "' % (
            json.dumps(self.name),
            json.dumps(self.trace_id),
        )
        tail = ', "pid": %d, "thread": %s, "attrs": ' % (
            tracer._pid,
            json.dumps(self.thread),
        )
        epoch = tracer._epoch
        out: List[str] = []
        for (t0, t1, attrs, _), span_id, parent_id in zip(self.timings, ids, parent_ids):
            attrs_json = encoded.get(id(attrs))
            if attrs_json is None:
                attrs_json = encoded[id(attrs)] = json.dumps(attrs)
            out.append(
                f'{head}{span_id}", "parent_id": "{parent_id}", '
                f'"start": {epoch + t0!r}, "duration": {t1 - t0!r}'
                f"{tail}{attrs_json}}}\n"
            )
        return out


class Tracer:
    """Collects finished spans, keeps per-phase totals, writes a JSONL sink."""

    def __init__(self, sink_path: Optional[str] = None):
        self._local = threading.local()
        self._lock = threading.Lock()
        # Mixed Span objects (hot path defers dict building) and adopted dicts.
        self._buffer: List[Any] = []
        self._phase_totals: Dict[str, float] = {}
        self._sink_path = sink_path
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        # Per-process/per-tracer constants so the hot path never re-queries
        # them: a pool child builds its own Tracer after fork/spawn, so the
        # cached pid is always the reporting process's pid.
        self._pid = os.getpid()
        self._id_prefix = "%x-" % self._pid
        self._trace_prefix = "t%x-" % self._pid
        self._epoch = time.time() - time.perf_counter()

    # -- span lifecycle ------------------------------------------------------ #
    def span(self, name: str) -> Span:
        return Span(self, name)

    def _state(self) -> tuple:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.thread = threading.current_thread().name
        return stack, local.thread

    def _next_span_id(self) -> str:
        return self._id_prefix + "%x" % next(self._span_ids)

    def _next_trace_id(self) -> str:
        return self._trace_prefix + "%x" % next(self._trace_ids)

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._buffer.append(span)
            self._phase_totals[span.name] = (
                self._phase_totals.get(span.name, 0.0) + span.duration
            )
            overflow = (
                self._sink_path is not None and len(self._buffer) >= FLUSH_THRESHOLD
            )
        if overflow:
            self.flush()

    # -- cross-process merge ------------------------------------------------- #
    def adopt(
        self, spans: Iterable[Dict[str, Any]], parent: Optional[Span] = None
    ) -> None:
        """Graft serialized child-process spans into this trace.

        Every adopted span joins ``parent``'s trace; child *roots* (spans
        whose parent is not among the adopted batch) are reparented under
        ``parent`` itself, so a pool child's step timings hang off the pipe
        round-trip span that requested them.
        """
        spans = [dict(span) for span in spans]
        local_ids = {span["span_id"] for span in spans}
        with self._lock:
            for span in spans:
                if parent is not None:
                    span["trace_id"] = parent.trace_id
                    if span.get("parent_id") not in local_ids:
                        span["parent_id"] = parent.span_id
                self._buffer.append(span)
                self._phase_totals[span["name"]] = self._phase_totals.get(
                    span["name"], 0.0
                ) + span.get("duration", 0.0)

    def add_timed(
        self, parent: Span, name: str, timings: Sequence[Timing]
    ) -> None:
        """Record pre-timed regions as finished ``name`` spans under ``parent``.

        A hot loop too fine-grained for one :class:`Span` per region (each
        costs a few microseconds to enter and finish) appends
        ``(t0, t1, attrs, first_child)`` tuples instead — ``t0``/``t1``
        from ``time.perf_counter()``, in end-time order — and hands the
        batch over here once.  A timing's children are the timings from
        index ``first_child`` up to it that have no parent yet, so nesting
        needs no bookkeeping while timing; the rest parent to ``parent``.
        Like spans, the records are only built when drained or flushed.
        """
        batch = _TimedBatch(name, parent, self._state()[1], list(timings))
        total = 0.0
        for t0, t1, _, _ in timings:
            total += t1 - t0
        with self._lock:
            self._buffer.append(batch)
            self._phase_totals[name] = self._phase_totals.get(name, 0.0) + total
            overflow = (
                self._sink_path is not None and len(self._buffer) >= FLUSH_THRESHOLD
            )
        if overflow:
            self.flush()

    def _records(self, entries: List[Any]) -> List[Dict[str, Any]]:
        """Buffered spans, adopted dicts and timed batches as record dicts."""
        out: List[Dict[str, Any]] = []
        for entry in entries:
            if isinstance(entry, Span):
                out.append(entry.to_dict())
            elif isinstance(entry, _TimedBatch):
                out.extend(entry.records(self))
            else:
                out.append(entry)
        return out

    # -- inspection ---------------------------------------------------------- #
    def phase_totals(self) -> Dict[str, float]:
        """Cumulative seconds per span name (cheap snapshot for records)."""
        with self._lock:
            return dict(self._phase_totals)

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the in-memory buffer (child→parent transport)."""
        with self._lock:
            spans, self._buffer = self._buffer, []
        return self._records(spans)

    # -- sink ---------------------------------------------------------------- #
    def set_sink(self, path: Optional[str]) -> None:
        self._sink_path = path

    @property
    def sink_path(self) -> Optional[str]:
        return self._sink_path

    def flush(self) -> int:
        """Append buffered spans to the JSONL sink; returns spans written.

        Without a sink path the buffer is left in place (in-memory mode,
        used by tests and the overhead benchmark).
        """
        if self._sink_path is None:
            return 0
        with self._lock:
            spans, self._buffer = self._buffer, []
        if not spans:
            return 0
        lines: List[str] = []
        # The buffered batches keep their attrs dicts alive, so ids stay
        # unique for the whole flush.
        encoded: Dict[int, str] = {}
        for entry in spans:
            if isinstance(entry, _TimedBatch):
                lines.extend(entry.lines(self, encoded))
            else:
                record = entry.to_dict() if isinstance(entry, Span) else entry
                lines.append(json.dumps(record) + "\n")
        with open(self._sink_path, "a", encoding="utf-8") as sink:
            sink.writelines(lines)
        return len(lines)


def summarize_trace(path: str) -> Dict[str, Any]:
    """Aggregate a JSONL trace file into per-phase time-share rows.

    Returns ``{"wall_seconds", "span_count", "phases": {name: {count,
    total_seconds, mean_seconds, share}}}`` where ``share`` is the phase's
    fraction of the trace wall (first span start → last span end).  Nested
    phases each count their own inclusive time, so shares can sum past 1.
    Spans tagged with a ``kind`` attribute (the batched executor's
    ``engine.layer`` spans) get one row per kind, e.g.
    ``engine.layer[linear]``.
    """
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    if not spans:
        return {"wall_seconds": 0.0, "span_count": 0, "phases": {}}
    first = min(span["start"] for span in spans)
    last = max(span["start"] + span.get("duration", 0.0) for span in spans)
    wall = max(last - first, 0.0)
    phases: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        name = span["name"]
        kind = (span.get("attrs") or {}).get("kind")
        if kind is not None:
            name = f"{name}[{kind}]"
        entry = phases.setdefault(name, {"count": 0, "total_seconds": 0.0})
        entry["count"] += 1
        entry["total_seconds"] += span.get("duration", 0.0)
    for entry in phases.values():
        entry["mean_seconds"] = entry["total_seconds"] / entry["count"]
        entry["share"] = entry["total_seconds"] / wall if wall > 0 else 0.0
    return {"wall_seconds": wall, "span_count": len(spans), "phases": phases}
