"""Span-based tracing with structured JSONL events.

A :class:`Tracer` hands out nested spans::

    with tracer.span("descent.rung", bound=36, engine="incremental"):
        ...

Each span becomes one plain-dict event when it *closes*::

    {"name": "descent.rung", "span_id": 7, "parent_id": 3,
     "ts": 1722988571.4, "start_s": 1042.118, "duration_s": 0.031,
     "attrs": {"bound": 36, "engine": "incremental"}}

``ts`` is the wall-clock start (comparable across processes), ``start_s``
the monotonic start (precise within one process), ``duration_s`` the
monotonic elapsed time.  Parent links follow the per-thread span stack.

Cross-process relay: a worker drains its events (:meth:`Tracer.drain`)
and ships them with its result; the parent :meth:`Tracer.ingest`\\ s
them, remapping span ids into its own id space so merged traces from
many children never collide, while preserving the internal parent links.

Helpers at module level read/write JSONL trace files and render an
indented span tree with durations (the ``repro trace show`` view).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects span events; thread-safe; bounded to ``max_events``."""

    def __init__(self, sink=None, max_events: int = 100_000):
        self._sink = sink
        self._max_events = max_events
        self._events: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open: dict = {}

    # -- per-thread state --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a span; yields its attrs dict (mutable until close)."""
        span_id = next(self._ids)
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        wall = time.time()
        start = time.monotonic()
        stack.append(span_id)
        with self._lock:
            self._open[span_id] = {
                "name": name,
                "span_id": span_id,
                "parent_id": parent_id,
                "ts": wall,
                "start_s": start,
                "attrs": attrs,
            }
        try:
            yield attrs
        finally:
            stack.pop()
            with self._lock:
                self._open.pop(span_id, None)
            self._record({
                "name": name,
                "span_id": span_id,
                "parent_id": parent_id,
                "ts": wall,
                "start_s": start,
                "duration_s": time.monotonic() - start,
                "attrs": attrs,
            })

    def _record(self, event: dict) -> None:
        with self._lock:
            if len(self._events) < self._max_events:
                self._events.append(event)
        if self._sink is not None:
            self._sink(event)

    # -- access and relay --------------------------------------------------

    def events(self) -> list:
        with self._lock:
            return list(self._events)

    def open_spans(self) -> list:
        """Spans entered but not yet closed, oldest first — the flight
        recorder captures these at failure time: a span that never
        closed is exactly the one worth looking at."""
        now = time.monotonic()
        with self._lock:
            spans = []
            for record in self._open.values():
                copy = dict(record)
                copy["attrs"] = dict(record["attrs"])
                copy["age_s"] = now - record["start_s"]
                spans.append(copy)
        spans.sort(key=lambda s: s["start_s"])
        return spans

    def drain(self) -> list:
        """Return all buffered events and forget them (relay primitive)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def ingest(self, events, extra: dict | None = None) -> list:
        """Merge events drained from another tracer into this one.

        Span ids are remapped into this tracer's id space (internal
        parent links are preserved; parents that did not travel with the
        batch become roots).  ``extra`` attrs, if given, are merged onto
        every ingested event — the parent uses this to tag a worker's
        spans with the round/worker/job they belong to.
        """
        mapping: dict = {}
        batch = list(events)
        for event in batch:
            mapping[event["span_id"]] = next(self._ids)
        merged: list = []
        for event in batch:
            copy = dict(event)
            copy["span_id"] = mapping[event["span_id"]]
            copy["parent_id"] = mapping.get(event.get("parent_id"))
            if extra:
                copy["attrs"] = {**(event.get("attrs") or {}), **extra}
            merged.append(copy)
        with self._lock:
            room = self._max_events - len(self._events)
            if room > 0:
                self._events.extend(merged[:room])
        if self._sink is not None:
            for event in merged:
                self._sink(event)
        return merged


# -- JSONL files ---------------------------------------------------------


def write_jsonl(events, path) -> None:
    """Write one event per line (the ``repro solve --trace`` artifact)."""
    with Path(path).open("w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


def read_jsonl(path) -> list:
    """Read a JSONL trace file back into a list of event dicts.

    Malformed lines are skipped: a worker killed mid-write leaves a
    truncated final line, and a post-mortem reader must still get every
    span that did land intact.
    """
    events = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


# -- rendering -----------------------------------------------------------


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _format_attrs(attrs: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))


def render_tree(events) -> str:
    """An indented per-span tree with durations, sorted by start time."""
    if not events:
        return "(empty trace)"
    by_id = {event["span_id"]: event for event in events}
    children: dict = {}
    roots = []
    orphans = set()
    for event in events:
        parent = event.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(event)
        else:
            # A non-None parent missing from the file means the trace is
            # incomplete (truncated JSONL from a killed worker): render
            # the span at root, visibly marked, rather than losing it.
            if parent is not None:
                orphans.add(event["span_id"])
            roots.append(event)

    def start_key(event):
        return (event.get("ts", 0.0), event.get("start_s", 0.0))

    lines: list = []

    def walk(event, depth):
        indent = "  " * depth
        attrs = _format_attrs(event.get("attrs") or {})
        line = (f"{indent}{event['name']}  "
                f"{_format_duration(event.get('duration_s', 0.0))}")
        if event["span_id"] in orphans:
            line += "  (orphan: parent span missing)"
        if attrs:
            line += f"  [{attrs}]"
        lines.append(line)
        for child in sorted(children.get(event["span_id"], ()), key=start_key):
            walk(child, depth + 1)

    for root in sorted(roots, key=start_key):
        walk(root, 0)
    return "\n".join(lines)
