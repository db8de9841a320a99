"""Per-candidate verification deadlines (the Table 1 ``TO`` outcome).

The BDD node budget bounds the *space* a single equivalence query may
use, but nothing bounded the *time* a candidate may spend across
queries: a pathological candidate could chain an unbounded number of
solver calls and hang learning forever.  A :class:`Deadline` converts
such hangs into a deterministic timeout verdict:

* ``max_steps`` is the deterministic proxy — one step per solver-backed
  equivalence query (:func:`repro.learning.verify._exprs_equal` ticks
  the active deadline once per query, a hit in the run's query memo
  included), so the same candidate times out at the same point on
  every machine, keeping sequential/parallel and cached/uncached runs
  byte-identical;
* ``max_seconds`` is the real-time guard for hangs the step proxy
  cannot see (e.g. one enormous query).  It trades determinism for
  liveness, so equivalence gates should use step budgets only.

The active deadline is process-global (installed with
:func:`deadline_scope`, exactly like the tracer), so deep verification
code can tick it without threading a handle through every call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


class DeadlineExceeded(Exception):
    """A per-candidate verification budget ran out (outcome ``TO``)."""


@dataclass(frozen=True)
class DeadlineBudget:
    """Picklable deadline configuration (ships to pool workers).

    Attributes:
        max_steps: Deterministic step budget; one step per solver-backed
            equivalence query.  None = unbounded.
        max_seconds: Real-time guard per candidate.  None = unbounded.
    """

    max_steps: int | None = None
    max_seconds: float | None = None

    @property
    def bounded(self) -> bool:
        return self.max_steps is not None or self.max_seconds is not None

    def start(self) -> "Deadline":
        return Deadline(self)


class Deadline:
    """A running budget: ticks accumulate, exhaustion raises."""

    __slots__ = ("budget", "steps", "_started")

    def __init__(self, budget: DeadlineBudget) -> None:
        self.budget = budget
        self.steps = 0
        self._started = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def tick(self, steps: int = 1) -> None:
        """Record progress; raise :class:`DeadlineExceeded` when spent."""
        self.steps += steps
        budget = self.budget
        if budget.max_steps is not None and self.steps > budget.max_steps:
            raise DeadlineExceeded(
                f"step budget exhausted ({self.steps} > {budget.max_steps})"
            )
        if budget.max_seconds is not None:
            elapsed = time.perf_counter() - self._started
            if elapsed > budget.max_seconds:
                raise DeadlineExceeded(
                    f"wall-clock budget exhausted "
                    f"({elapsed:.3f}s > {budget.max_seconds}s)"
                )


_ACTIVE: Deadline | None = None


def active_deadline() -> Deadline | None:
    return _ACTIVE


def tick(steps: int = 1) -> None:
    """Tick the active deadline, if any (no-op otherwise — the hot
    path pays one global read when no deadline is installed)."""
    if _ACTIVE is not None:
        _ACTIVE.tick(steps)


@contextmanager
def deadline_scope(deadline: Deadline | None):
    """Install ``deadline`` as the process-global active deadline."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = deadline
    try:
        yield deadline
    finally:
        _ACTIVE = previous
