"""Persistent verification cache: canonical candidate -> verdict.

Verification verdicts are pure functions of a candidate's canonical key
(see :mod:`repro.learning.canon`), so they can be reused across runs:
the leave-one-out protocol, the Figure 6 ``-O`` sweep and the
corpus-scaling experiments all re-learn from the same builds, and each
repeated run would otherwise re-pay the full symbolic-execution +
BDD cost.

The cache is a single JSON document keyed by candidate digest.  Every
entry is implicitly versioned by :data:`SEMANTICS_VERSION`: bump it
whenever anything that can change a verdict changes (instruction
semantics, template construction, the solver, the canonical-key
format), and every stored entry is discarded as *stale* on the next
load instead of risking a wrong cached verdict.

Counters: ``stats.hits`` / ``stats.misses`` count :meth:`get` lookups;
``stats.stale`` counts entries dropped by a version mismatch or an
explicit :meth:`invalidate`; ``stats.corrupt`` counts unparseable cache
files quarantined aside (to ``<path>.corrupt``) on load so the evidence
survives for debugging while learning restarts from an empty cache.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.faults.plan import get_fault_plan
from repro.learning.canon import CandidateOutcome
from repro.learning.serialize import rule_from_json, rule_to_json
from repro.learning.verify import VerifyFailure


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` durably: write a temp file, fsync
    it, then rename over ``path``.  A crash leaves either the old file
    or the new one, never a torn mix."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fp:
        fp.write(text)
        fp.flush()
        os.fsync(fp.fileno())
    os.replace(tmp, path)


def quarantine_corrupt(path: Path) -> None:
    """Move an unreadable file aside to ``<path>.corrupt`` so the
    evidence survives while its owner starts empty."""
    try:
        os.replace(path, path.with_name(path.name + ".corrupt"))
    except OSError:
        pass


#: Bump to invalidate every previously stored verdict.
SEMANTICS_VERSION = 1

CACHE_FORMAT = "repro-dbt-verify-cache"
CACHE_FILE_VERSION = 1
DEFAULT_CACHE_NAME = "verification-cache.json"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stale: int = 0
    #: Corrupt cache files quarantined to ``<path>.corrupt`` on load.
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


def encode_outcome(outcome: CandidateOutcome) -> dict:
    """JSON encoding of one verdict (shared with the resume journal)."""
    if outcome.rule is not None:
        return {
            "verdict": "rule",
            "rule": rule_to_json(outcome.rule),
            "calls": outcome.calls,
        }
    return {
        "verdict": "fail",
        "failure": outcome.failure.name if outcome.failure else None,
        "calls": outcome.calls,
    }


def decode_outcome(data: dict) -> CandidateOutcome:
    """Inverse of :func:`encode_outcome`."""
    if data["verdict"] == "rule":
        return CandidateOutcome(rule=rule_from_json(data["rule"]),
                                calls=data["calls"])
    failure = VerifyFailure[data["failure"]] if data["failure"] else None
    return CandidateOutcome(failure=failure, calls=data["calls"])


class VerificationCache:
    """On-disk (or in-memory, when ``path`` is None) verdict cache."""

    def __init__(self, path: str | os.PathLike | None = None,
                 semantics_version: int = SEMANTICS_VERSION) -> None:
        self.path = Path(path) if path is not None else None
        self.semantics_version = semantics_version
        self.stats = CacheStats()
        self._entries: dict[str, dict] = {}
        self._dirty = False
        self._saves = 0
        if self.path is not None and self.path.exists():
            self._load()

    @classmethod
    def at_dir(cls, cache_dir: str | os.PathLike,
               name: str = DEFAULT_CACHE_NAME) -> "VerificationCache":
        """The conventional cache file inside ``cache_dir``."""
        directory = Path(cache_dir)
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / name)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def digests(self) -> list[str]:
        """Every settled candidate digest (chaos tooling: pick targets
        for deterministic fault injection)."""
        return list(self._entries)

    def peek(self, digest: str) -> CandidateOutcome | None:
        """Lookup without touching the hit/miss counters (chaos
        tooling inspects a finished run's verdicts this way)."""
        entry = self._entries.get(digest)
        if entry is None:
            return None
        return decode_outcome(entry)

    def get(self, digest: str) -> CandidateOutcome | None:
        entry = self._entries.get(digest)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return decode_outcome(entry)

    def put(self, digest: str, outcome: CandidateOutcome) -> None:
        """Record a settled verdict.  TO/EC verdicts are properties of
        the run (budget, crashed worker), not of candidate semantics:
        they are dropped, never persisted across runs."""
        if outcome.failure in (VerifyFailure.TIMEOUT,
                               VerifyFailure.ENGINE_CRASH):
            return
        self._entries[digest] = encode_outcome(outcome)
        self._dirty = True

    def invalidate(self, new_semantics_version: int | None = None) -> None:
        """Explicit invalidation: bump the semantics version and drop
        every entry (counted as stale)."""
        self.stats.stale += len(self._entries)
        self._entries.clear()
        self.semantics_version = (
            new_semantics_version
            if new_semantics_version is not None
            else self.semantics_version + 1
        )
        self._dirty = True

    # -- persistence ---------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path) as fp:
                document = json.load(fp)
        except OSError:
            self._dirty = True
            return
        except json.JSONDecodeError:
            # A corrupt cache must never break learning: quarantine the
            # file (preserving the evidence) and start empty.
            self._quarantine_corrupt()
            return
        if (
            not isinstance(document, dict)
            or document.get("format") != CACHE_FORMAT
            or document.get("version") != CACHE_FILE_VERSION
        ):
            self._quarantine_corrupt()
            return
        entries = document.get("entries", {})
        if document.get("semantics") != self.semantics_version:
            self.stats.stale += len(entries)
            self._dirty = True
            return
        self._entries = entries

    def _quarantine_corrupt(self) -> None:
        """Move an unreadable cache file aside and start empty."""
        quarantine_corrupt(self.path)
        self.stats.corrupt += 1
        self._dirty = True

    def save(self) -> None:
        """Atomically persist the cache (no-op when clean or in-memory).

        Write-to-temp + fsync + rename: a crash mid-save leaves either
        the old cache or the new one, never a torn file.
        """
        if self.path is None or not self._dirty:
            return
        self._saves += 1
        plan = get_fault_plan()
        corrupt_this_save = (
            plan.active and plan.corrupt_cache_on_save == self._saves
        )
        payload = {
            "format": CACHE_FORMAT,
            "version": CACHE_FILE_VERSION,
            "semantics": self.semantics_version,
            "entries": self._entries,
        }
        document = json.dumps(payload)
        if corrupt_this_save:
            # Injected torn write: half a document, as if the process
            # died mid-json.dump before the atomic rename discipline
            # existed.
            document = document[: len(document) // 2]
        atomic_write_text(self.path, document)
        self._dirty = False
