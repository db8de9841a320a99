"""Structured tracing: JSON-lines span/event records with causal ids.

One trace file is a sequence of newline-delimited JSON objects::

    {"ts": 0.0, "kind": "event", "name": "trace.header",
     "fields": {"version": 1, "epoch": 1722945600.123, "pid": 4242}}
    {"ts": 0.00013, "kind": "begin", "name": "learn.verify",
     "fields": {"benchmark": "mcf"},
     "trace_id": "9f2c...", "span_id": "01ab..."}
    {"ts": 0.10240, "kind": "end",   "name": "learn.verify",
     "fields": {"benchmark": "mcf", "seconds": 0.10227},
     "trace_id": "9f2c...", "span_id": "01ab..."}

``ts`` is monotonic (``time.perf_counter``), measured from tracer
creation, so records order and subtract reliably within one trace.
The first record of every file is the **trace header**: it carries the
format's semantics ``version`` and the wall-clock ``epoch`` captured at
the same instant as the monotonic origin, so ``epoch + ts`` is an
absolute timestamp and the report layer can stitch trace files from
different processes onto one timeline.

``kind`` is one of ``event`` (a point record), ``begin``/``end`` (a
span; the ``end`` record repeats the ``begin`` fields and adds
``seconds``).  Aggregation by name + discriminating fields still works
exactly as before, but records now optionally carry **causal ids**:

* ``trace_id`` — one end-to-end causal chain (e.g. one translation
  gap's journey from capture to hot-install), shared across processes;
* ``span_id`` — this record's own identity;
* ``parent_id`` — the span this record happened inside.

Spans nest through a per-thread context stack on the tracer.  A
process boundary is crossed with :meth:`Tracer.inject` (current
context as a wire dict) and :func:`extract_context` (wire dict back to
a :class:`SpanContext` to parent remote work), which is how the rule
service's request envelopes carry one trace id from a client's engine
into the server's learning rounds and back.

Record emission is line-atomic (one lock per write), so concurrent
threads — rule-service sync clients, the server's learning executor —
can share one tracer without tearing lines.

The process-global tracer defaults to :data:`NULL_TRACER`, whose
``enabled`` attribute is ``False``; every instrumentation site guards
on it, so tracing-disabled runs pay one attribute check per site.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

RECORD_KINDS = ("event", "begin", "end")

#: Name of the one-record header every tracer emits first.
TRACE_HEADER_NAME = "trace.header"

#: Semantics version of the trace format.  Readers must reject files
#: whose header announces a version they do not understand (the field
#: meanings — not the JSON shape — are what is versioned).
TRACE_SEMANTICS_VERSION = 1


class TraceError(Exception):
    """A malformed trace record or trace file."""


@dataclass(frozen=True)
class SpanContext:
    """The causal coordinates of one record: (trace, span)."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict:
        """The wire form carried in protocol envelopes / gap records."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, data) -> "SpanContext | None":
        """Parse a wire dict; None for missing/malformed context (a
        peer with tracing disabled sends none)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if isinstance(trace_id, str) and trace_id \
                and isinstance(span_id, str) and span_id:
            return cls(trace_id=trace_id, span_id=span_id)
        return None


def extract_context(data) -> SpanContext | None:
    """Module-level alias of :meth:`SpanContext.from_wire`."""
    return SpanContext.from_wire(data)


@dataclass
class TraceRecord:
    """One line of a trace file."""

    ts: float
    kind: str  # "event" | "begin" | "end"
    name: str
    fields: dict = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None

    def to_json(self) -> dict:
        data = {
            "ts": self.ts,
            "kind": self.kind,
            "name": self.name,
            "fields": self.fields,
        }
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.span_id is not None:
            data["span_id"] = self.span_id
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        return data

    @classmethod
    def from_json(cls, data: dict) -> "TraceRecord":
        if not isinstance(data, dict):
            raise TraceError(f"trace record must be an object: {data!r}")
        try:
            ts = data["ts"]
            kind = data["kind"]
            name = data["name"]
            fields = data.get("fields", {})
        except KeyError as exc:
            raise TraceError(f"trace record missing key {exc}") from exc
        if not isinstance(ts, (int, float)):
            raise TraceError(f"ts must be a number: {ts!r}")
        if kind not in RECORD_KINDS:
            raise TraceError(f"unknown record kind {kind!r}")
        if not isinstance(name, str) or not name:
            raise TraceError(f"record name must be a string: {name!r}")
        if not isinstance(fields, dict):
            raise TraceError(f"record fields must be an object: {fields!r}")
        ids = {}
        for key in ("trace_id", "span_id", "parent_id"):
            value = data.get(key)
            if value is not None and (not isinstance(value, str) or not value):
                raise TraceError(f"{key} must be a non-empty string: {value!r}")
            ids[key] = value
        return cls(ts=float(ts), kind=kind, name=name, fields=fields, **ids)

    @property
    def context(self) -> SpanContext | None:
        """This record's own causal coordinates (None when untraced)."""
        if self.trace_id is not None and self.span_id is not None:
            return SpanContext(self.trace_id, self.span_id)
        return None


def encode_line(record: TraceRecord) -> str:
    return json.dumps(record.to_json(), separators=(",", ":"))


def decode_line(line: str) -> TraceRecord:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"bad trace line: {line!r}") from exc
    return TraceRecord.from_json(data)


def new_id() -> str:
    """A 64-bit random hex id (collision-safe at trace scale, and
    unique across processes — ids join records from different hosts)."""
    return os.urandom(8).hex()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code should guard payload construction on
    ``tracer.enabled`` so a disabled run never even builds the field
    dict — the no-op methods exist only as a safety net.
    """

    enabled = False

    def event(self, name: str, context: SpanContext | None = None,
              root: bool = False, **fields) -> SpanContext | None:
        return None

    @contextmanager
    def span(self, name: str, context: SpanContext | None = None,
             root: bool = False, seconds: float | None = None,
             **fields) -> Iterator[SpanContext | None]:
        yield None

    def current_context(self) -> SpanContext | None:
        return None

    def inject(self) -> dict | None:
        return None

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide default tracer.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """A tracer writing JSON-lines records to a file-like sink.

    Construction emits the trace header exactly once: a record named
    :data:`TRACE_HEADER_NAME` whose fields carry the format
    ``version``, the wall-clock ``epoch`` matching the monotonic
    origin, and the ``pid``.  ``records_written`` counts
    instrumentation records only (the header is excluded), so the
    disabled-overhead gate's site-visit bound is unchanged.
    """

    enabled = True

    def __init__(self, sink: IO[str]) -> None:
        self._sink = sink
        # Capture both clocks back-to-back so epoch + ts is wall-clock.
        self._t0 = time.perf_counter()
        self.epoch = time.time()
        # Rule-service deployments trace from several threads at once
        # (concurrent sync clients, the server's learning executor);
        # the lock keeps each JSON line intact.  The span-context stack
        # is per-thread so concurrent spans cannot corrupt each other's
        # parentage.
        self._lock = threading.Lock()
        self._local = threading.local()
        self.records_written = 0
        self._write(TraceRecord(
            ts=0.0, kind="event", name=TRACE_HEADER_NAME,
            fields={
                "version": TRACE_SEMANTICS_VERSION,
                "epoch": self.epoch,
                "pid": os.getpid(),
            },
        ))

    # -- span-context stack ---------------------------------------------------

    def _stack(self) -> list[SpanContext]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_context(self) -> SpanContext | None:
        """The innermost active span on this thread (None outside any)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def inject(self) -> dict | None:
        """The current context as a wire dict (None outside any span) —
        attach it to an outgoing request so the receiving process can
        :func:`extract_context` and continue the same trace."""
        context = self.current_context()
        return context.to_wire() if context is not None else None

    def _resolve_ids(
        self, context: SpanContext | None, root: bool,
    ) -> tuple[str | None, str | None]:
        """(trace_id, parent_id) for a new record under the rules:
        explicit remote context > fresh root > ambient stack."""
        if context is not None:
            return context.trace_id, context.span_id
        if root:
            return new_id(), None
        ambient = self.current_context()
        if ambient is not None:
            return ambient.trace_id, ambient.span_id
        return None, None

    # -- emission -------------------------------------------------------------

    def _write(self, record: TraceRecord, count: bool = False) -> None:
        line = encode_line(record) + "\n"
        with self._lock:
            self._sink.write(line)
            if count:
                self.records_written += 1

    def _emit(self, kind: str, name: str, fields: dict,
              trace_id: str | None = None, span_id: str | None = None,
              parent_id: str | None = None) -> None:
        self._write(TraceRecord(
            ts=time.perf_counter() - self._t0,
            kind=kind, name=name, fields=fields,
            trace_id=trace_id, span_id=span_id, parent_id=parent_id,
        ), count=True)

    def event(self, name: str, context: SpanContext | None = None,
              root: bool = False, **fields) -> SpanContext | None:
        """Emit a point record; returns its :class:`SpanContext` when it
        carries ids (so callers can propagate the new trace onward).

        ``context`` parents the event under a remote span (same trace
        id); ``root=True`` mints a fresh trace id, ignoring the ambient
        stack — the start of a new causal chain (e.g. one translation
        gap).  With neither, the event inherits the ambient span, or
        carries no ids at all outside any span.
        """
        trace_id, parent_id = self._resolve_ids(context, root)
        if trace_id is None:
            self._emit("event", name, fields)
            return None
        span_id = new_id()
        self._emit("event", name, fields,
                   trace_id=trace_id, span_id=span_id, parent_id=parent_id)
        return SpanContext(trace_id, span_id)

    @contextmanager
    def span(self, name: str, context: SpanContext | None = None,
             root: bool = False, seconds: float | None = None,
             **fields) -> Iterator[SpanContext]:
        """A begin/end pair sharing one span id, pushed on the ambient
        stack for its dynamic extent.  Spans always carry ids: with no
        ambient context they root a fresh trace.  A given ``seconds``
        is the end record's duration instead of the measured extent:
        the span stands for work timed earlier, written now."""
        trace_id, parent_id = self._resolve_ids(context, root)
        if trace_id is None:
            trace_id = new_id()
        span_id = new_id()
        own = SpanContext(trace_id, span_id)
        start = time.perf_counter()
        self._emit("begin", name, dict(fields),
                   trace_id=trace_id, span_id=span_id, parent_id=parent_id)
        stack = self._stack()
        stack.append(own)
        try:
            yield own
        finally:
            stack.pop()
            if seconds is None:
                seconds = time.perf_counter() - start
            self._emit(
                "end", name, dict(fields, seconds=seconds),
                trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            )

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self.flush()


_TRACER: NullTracer = NULL_TRACER


def get_tracer() -> NullTracer:
    """The process-global tracer (the :data:`NULL_TRACER` by default)."""
    return _TRACER


def set_tracer(tracer: NullTracer | None) -> NullTracer:
    """Install ``tracer`` globally (None restores the null tracer);
    returns the previously installed one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(target: str | Path | IO[str]) -> Iterator[Tracer]:
    """Install a :class:`Tracer` writing to ``target`` for the dynamic
    extent of the block, restoring the previous tracer after.

    ``target`` may be a path (opened for writing, closed on exit) or an
    open file-like object (left open).
    """
    owns_sink = not hasattr(target, "write")
    sink = open(target, "w") if owns_sink else target
    tracer = Tracer(sink)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.flush()
        if owns_sink:
            sink.close()


def read_trace(source: str | Path | IO[str]) -> list[TraceRecord]:
    """Parse a whole trace file (or file-like / string buffer)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    records = []
    for line in io.StringIO(text):
        line = line.strip()
        if line:
            records.append(decode_line(line))
    return records


def trace_header(records: list[TraceRecord]) -> TraceRecord | None:
    """The header record of a parsed trace (None for headerless
    pre-span-format traces)."""
    for record in records:
        if record.name == TRACE_HEADER_NAME:
            return record
    return None


def check_trace_version(records: list[TraceRecord],
                        source: str = "trace") -> TraceRecord | None:
    """Validate the header's semantics version; returns the header.

    Headerless traces (written before the header existed) pass — they
    simply cannot be stitched.  A header announcing a version this
    reader does not understand raises :class:`TraceError`: silently
    misreading re-versioned field semantics is worse than refusing.
    """
    header = trace_header(records)
    if header is None:
        return None
    version = header.fields.get("version")
    if version != TRACE_SEMANTICS_VERSION:
        raise TraceError(
            f"{source}: trace header announces semantics version "
            f"{version!r}; this reader understands only "
            f"{TRACE_SEMANTICS_VERSION}"
        )
    return header
