"""Seen-digest store + settlement classification for generated programs.

Dedup layers *over* the verification cache:

1. **Program identity** — the sha256 of the canonical source text.  A
   program the store has already ingested is skipped outright
   (``dup_program``) before it is even compiled.
2. **Window settlement** — a fresh program is compiled and staged, and
   its canonical candidate digests (the same keys the verification
   cache uses, :mod:`repro.learning.canon`) are checked against the
   persistent :class:`~repro.learning.cache.VerificationCache` and
   this store's own seen-window set.  A program *all* of whose windows
   are already settled cannot yield a new verdict — it is skipped
   (``all_settled``) before it costs any verification time.

The store follows the verification cache's durability discipline:
atomic fsync+rename saves, corrupt files quarantined to
``<path>.corrupt`` (the evidence survives, ingestion restarts empty),
and every entry implicitly versioned by the learning semantics version
— a bump discards the whole store as stale, because window digests are
only meaningful under the semantics that produced them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.learning.cache import (
    SEMANTICS_VERSION,
    VerificationCache,
    atomic_write_text,
    quarantine_corrupt,
)
from repro.obs.metrics import get_metrics

STORE_FORMAT = "repro-corpus-seen"
STORE_FILE_VERSION = 1
DEFAULT_STORE_NAME = "corpus-seen.json"


@dataclass
class SeenStats:
    programs: int = 0
    windows: int = 0
    stale: int = 0
    corrupt: int = 0


@dataclass
class DedupDecision:
    """Why one generated program was fed or skipped.

    ``verdict`` is ``fresh`` (feed it), ``dup_program`` (source text
    already ingested) or ``all_settled`` (every candidate window
    already has a verdict).  For ``fresh``, ``fresh_candidates`` says
    how many windows still need verification — partially settled
    programs are fed, but only their fresh windows cost solver time
    (the cache replays the rest).
    """

    verdict: str
    candidates: int = 0
    settled: int = 0

    @property
    def fresh_candidates(self) -> int:
        return self.candidates - self.settled

    @property
    def skipped(self) -> bool:
        return self.verdict != "fresh"


class SeenStore:
    """Persistent program-digest + window-digest memory."""

    def __init__(self, path: str | os.PathLike | None = None,
                 semantics_version: int = SEMANTICS_VERSION) -> None:
        self.path = Path(path) if path is not None else None
        self.semantics_version = semantics_version
        self.stats = SeenStats()
        self._programs: dict[str, dict] = {}
        self._windows: set[str] = set()
        self._dirty = False
        if self.path is not None and self.path.exists():
            self._load()

    @classmethod
    def at_dir(cls, directory: str | os.PathLike,
               name: str = DEFAULT_STORE_NAME) -> "SeenStore":
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        return cls(root / name)

    def __len__(self) -> int:
        return len(self._programs)

    @property
    def windows(self) -> int:
        return len(self._windows)

    def seen_program(self, digest: str) -> bool:
        return digest in self._programs

    def program_meta(self, digest: str) -> dict | None:
        return self._programs.get(digest)

    def add_program(self, digest: str, **meta) -> None:
        self._programs[digest] = dict(meta)
        self._dirty = True

    def seen_window(self, digest: str) -> bool:
        return digest in self._windows

    def add_windows(self, digests) -> None:
        before = len(self._windows)
        self._windows.update(digests)
        if len(self._windows) != before:
            self._dirty = True

    # -- classification ------------------------------------------------------

    def classify(self, program_digest: str, candidate_digests,
                 cache: VerificationCache | None = None) -> DedupDecision:
        """Feed-or-skip decision for one staged program."""
        if self.seen_program(program_digest):
            decision = DedupDecision(verdict="dup_program",
                                     candidates=len(candidate_digests))
        else:
            settled = sum(
                1 for digest in candidate_digests
                if digest in self._windows
                or (cache is not None and digest in cache)
            )
            if candidate_digests and settled == len(candidate_digests):
                decision = DedupDecision(
                    verdict="all_settled",
                    candidates=len(candidate_digests),
                    settled=settled,
                )
            else:
                decision = DedupDecision(
                    verdict="fresh",
                    candidates=len(candidate_digests),
                    settled=settled,
                )
        get_metrics().inc(f"corpus.dedup.{decision.verdict}")
        return decision

    # -- persistence ---------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path) as fp:
                document = json.load(fp)
        except OSError:
            self._dirty = True
            return
        except json.JSONDecodeError:
            self._quarantine_corrupt()
            return
        if (
            not isinstance(document, dict)
            or document.get("format") != STORE_FORMAT
            or document.get("version") != STORE_FILE_VERSION
            or not isinstance(document.get("programs"), dict)
            or not isinstance(document.get("windows"), list)
        ):
            self._quarantine_corrupt()
            return
        if document.get("semantics") != self.semantics_version:
            # Window digests are functions of the learning semantics;
            # a bump makes every stored digest meaningless.
            self.stats.stale += len(document["programs"])
            self._dirty = True
            return
        self._programs = document["programs"]
        self._windows = set(document["windows"])

    def _quarantine_corrupt(self) -> None:
        quarantine_corrupt(self.path)
        self.stats.corrupt += 1
        get_metrics().inc("corpus.store.corrupt")
        self._dirty = True

    def save(self) -> None:
        """Atomic fsync+rename persistence, like the verify cache."""
        if self.path is None or not self._dirty:
            return
        payload = {
            "format": STORE_FORMAT,
            "version": STORE_FILE_VERSION,
            "semantics": self.semantics_version,
            "programs": self._programs,
            "windows": sorted(self._windows),
        }
        atomic_write_text(self.path, json.dumps(payload))
        self._dirty = False
