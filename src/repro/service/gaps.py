"""Translation-gap capture, canonicalization, and aggregation.

A *gap* is a guest-instruction window the rule table failed to cover at
translation time.  The client records gaps through a
:class:`GapRecorder` installed as the engine's ``gap_sink``; each gap
is canonicalized with the same normalization the learning pipeline
uses (:func:`repro.learning.canon.snippet_text`) and keyed by a stable
digest, so the recorder, the wire format, and the server's
:class:`GapAggregator` all dedup identical gaps for free.

A gap report carries the mnemonic sequence alongside the digest: the
server's online learner matches staged corpus candidates against gap
windows by mnemonic subsequence, which is exactly the information a
rule needs to possibly cover part of the gap (rule matching never
changes mnemonics, only operand bindings).

With tracing enabled, every *new* gap a recorder captures roots a
fresh trace (a ``service.gap_capture`` event), and the gap carries the
span context's wire form end to end: the server's aggregator continues
the same trace id with ``service.gap_received`` when the gap first
arrives and the learning round closes it with ``service.gap_settled``
naming the published bundle.  One trace id therefore spans the gap's
whole life across both processes — which is what lets the report layer
measure gap-report-to-hot-install latency.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.learning.canon import snippet_text
from repro.obs.trace import extract_context, get_tracer


@dataclass(frozen=True)
class Gap:
    """One canonicalized translation gap."""

    digest: str
    direction: str
    text: str
    mnemonics: tuple[str, ...]
    #: Wire form of the capture event's span context (None when the
    #: capturing client traced nothing).  Transport metadata, not
    #: identity: two captures of the same window are the same gap.
    trace: dict | None = field(default=None, compare=False, hash=False)

    def to_json(self) -> dict:
        data = {
            "digest": self.digest,
            "direction": self.direction,
            "text": self.text,
            "mnemonics": list(self.mnemonics),
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Gap":
        trace = data.get("trace")
        return cls(
            digest=data["digest"],
            direction=data["direction"],
            text=data["text"],
            mnemonics=tuple(data["mnemonics"]),
            trace=trace if isinstance(trace, dict) else None,
        )

    @property
    def context(self):
        """The capture-time :class:`~repro.obs.trace.SpanContext`."""
        return extract_context(self.trace)


def canonical_gap(instrs, direction: str = "arm-x86") -> Gap:
    """Canonicalize one uncovered guest window."""
    text = snippet_text(instrs)
    digest = hashlib.sha256(
        f"{direction}\n{text}".encode("utf-8")
    ).hexdigest()
    return Gap(
        digest=digest,
        direction=direction,
        text=text,
        mnemonics=tuple(instr.mnemonic for instr in instrs),
    )


class GapRecorder:
    """Client-side gap sink: dedups gaps, batches them for upload.

    Install with ``engine.gap_sink = recorder`` (the recorder is
    callable with the uncovered guest window).  ``drain()`` hands the
    accumulated unique gaps over for one batched report and resets the
    batch; gaps already drained are remembered and never re-reported by
    this recorder, so a long-running client uploads each distinct gap
    once.
    """

    def __init__(self, direction: str = "arm-x86") -> None:
        self.direction = direction
        self._pending: dict[str, Gap] = {}
        self._counts: dict[str, int] = {}
        self._reported: set[str] = set()
        self.captured = 0

    def __call__(self, instrs) -> None:
        if not instrs:
            return
        self.captured += 1
        gap = canonical_gap(instrs, self.direction)
        if gap.digest in self._reported or gap.digest in self._pending:
            self._counts[gap.digest] = \
                self._counts.get(gap.digest, 0) + 1
            return
        tracer = get_tracer()
        if tracer.enabled:
            # A new gap roots a fresh trace; its id follows the gap to
            # the server and back (see the module docstring).
            context = tracer.event(
                "service.gap_capture", root=True,
                digest=gap.digest, length=len(gap.mnemonics),
            )
            gap = replace(gap, trace=context.to_wire())
        self._pending[gap.digest] = gap
        self._counts[gap.digest] = self._counts.get(gap.digest, 0) + 1

    def __len__(self) -> int:
        return len(self._pending)

    def drain(self) -> list[dict]:
        """The batched gap report: unique pending gaps with counts."""
        report = [
            dict(gap.to_json(), count=self._counts.get(digest, 1))
            for digest, gap in self._pending.items()
        ]
        self._reported.update(self._pending)
        self._pending.clear()
        return report


class GapAggregator:
    """Server-side gap state: dedup across clients, track settlement.

    A gap is *pending* until a learning round has attempted it; it then
    moves to *settled* whether or not the round produced rules, so
    barren gaps (no matching corpus candidate, or candidates that fail
    verification) are attempted exactly once instead of re-learned on
    every report.
    """

    def __init__(self) -> None:
        self._pending: dict[str, Gap] = {}
        self._settled: set[str] = set()
        self.reported = 0
        self.unique = 0

    def absorb(self, report: list[dict]) -> int:
        """Merge one client report; returns the number of new gaps."""
        tracer = get_tracer()
        new = 0
        for item in report:
            gap = Gap.from_json(item)
            self.reported += int(item.get("count", 1))
            if gap.digest in self._settled or gap.digest in self._pending:
                continue
            self._pending[gap.digest] = gap
            self.unique += 1
            new += 1
            if tracer.enabled:
                # Continue the capturing client's trace in this
                # process's trace file (context is None for untraced
                # clients — the event still records the arrival).
                tracer.event(
                    "service.gap_received", context=gap.context,
                    digest=gap.digest,
                )
        return new

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def settled(self) -> int:
        return len(self._settled)

    def take_pending(self) -> list[Gap]:
        """Hand the pending gaps to a learning round (marks them
        settled — a round attempts each gap exactly once).

        The pending dict is swapped out atomically first, so a report
        absorbed concurrently (the server learns in an executor thread)
        lands in the fresh dict and stays pending for the next round.
        """
        pending, self._pending = self._pending, {}
        self._settled.update(pending)
        return list(pending.values())
