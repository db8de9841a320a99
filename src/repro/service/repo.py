"""Content-addressed on-disk rule repository with a signed manifest.

Layout (everything under one root directory)::

    <root>/repo.key                 HMAC key (created on first use)
    <root>/manifest.json            signed manifest, atomically replaced
    <root>/bundles/<digest>.json    immutable rule bundles

A *bundle* is an immutable set of verified rules for one translation
direction under one :data:`~repro.learning.cache.SEMANTICS_VERSION`,
serialized with the :mod:`repro.learning.serialize` JSON codec.  Its
file name is the SHA-256 of its canonical JSON body, so a bundle can
be verified against the manifest entry that references it and is never
rewritten in place — publishing only ever *adds* bundles.

The *manifest* lists every bundle (digest, direction, semantics
version, rule count) together with a monotonically increasing
``generation``: each publish stamps its bundle with the new generation,
which is what makes delta sync trivial — a client that last synced at
generation ``g`` asks for entries with ``generation > g``
(:meth:`RuleRepository.delta_since`).  The manifest payload is signed
with HMAC-SHA256 under the repository key; clients holding the key
(shared out of band, e.g. the deployment provisions it next to the
socket path) verify it with :func:`verify_manifest`.

Verdict consistency with the verification cache: bundles record the
semantics version under which their rules were verified, and a client
whose code runs a different :data:`SEMANTICS_VERSION` rejects them —
exactly the staleness rule the cache applies to stored verdicts.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import secrets
from dataclasses import dataclass
from pathlib import Path

from repro.learning.cache import SEMANTICS_VERSION, atomic_write_text
from repro.learning.rule import Rule, dedup_rules
from repro.learning.serialize import rule_from_json, rule_to_json

BUNDLE_FORMAT = "repro-dbt-rule-bundle"
MANIFEST_FORMAT = "repro-dbt-rule-manifest"
REPO_FILE_VERSION = 1

MANIFEST_NAME = "manifest.json"
KEY_NAME = "repo.key"
BUNDLE_DIR = "bundles"


class BundleError(ValueError):
    """A malformed, tampered, or incompatible bundle/manifest."""


def canonical_json(document: dict) -> str:
    """The canonical rendering content addressing and signing use."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def bundle_digest(document: dict) -> str:
    return hashlib.sha256(
        canonical_json(document).encode("utf-8")
    ).hexdigest()


def make_bundle(rules: list[Rule], direction: str,
                semantics_version: int = SEMANTICS_VERSION) -> dict:
    """An immutable bundle document for ``rules`` (deduped, ordered by
    canonical JSON so equal rule sets always produce equal digests)."""
    encoded = sorted(
        (rule_to_json(rule) for rule in dedup_rules(rules)),
        key=canonical_json,
    )
    return {
        "format": BUNDLE_FORMAT,
        "version": REPO_FILE_VERSION,
        "direction": direction,
        "semantics": semantics_version,
        "rules": encoded,
    }


def bundle_rules(document: dict) -> list[Rule]:
    """Decode a bundle's rules (shape-checked)."""
    if (
        not isinstance(document, dict)
        or document.get("format") != BUNDLE_FORMAT
        or document.get("version") != REPO_FILE_VERSION
    ):
        raise BundleError("not a repro-dbt rule bundle")
    return [rule_from_json(item) for item in document["rules"]]


def verify_bundle(document: dict, expected_digest: str) -> list[Rule]:
    """Decode a bundle after checking its content address."""
    actual = bundle_digest(document)
    if actual != expected_digest:
        raise BundleError(
            f"bundle digest mismatch: expected {expected_digest[:16]}…, "
            f"got {actual[:16]}…"
        )
    return bundle_rules(document)


def sign_payload(payload: dict, key: bytes) -> str:
    return hmac.new(
        key, canonical_json(payload).encode("utf-8"), hashlib.sha256
    ).hexdigest()


def verify_manifest(manifest: dict, key: bytes) -> dict:
    """Check a manifest's signature; returns its payload.

    Raises :class:`BundleError` on a missing or forged signature.
    """
    if not isinstance(manifest, dict) or "payload" not in manifest:
        raise BundleError("manifest carries no payload")
    payload = manifest["payload"]
    signature = manifest.get("signature", "")
    if not hmac.compare_digest(signature, sign_payload(payload, key)):
        raise BundleError("manifest signature verification failed")
    if payload.get("format") != MANIFEST_FORMAT or \
            payload.get("version") != REPO_FILE_VERSION:
        raise BundleError("not a repro-dbt rule manifest")
    return payload


@dataclass(frozen=True)
class BundleRef:
    """One manifest entry."""

    digest: str
    direction: str
    semantics: int
    rules: int
    generation: int

    def to_json(self) -> dict:
        return {
            "digest": self.digest,
            "direction": self.direction,
            "semantics": self.semantics,
            "rules": self.rules,
            "generation": self.generation,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BundleRef":
        try:
            return cls(
                digest=data["digest"],
                direction=data["direction"],
                semantics=data["semantics"],
                rules=data["rules"],
                generation=data["generation"],
            )
        except (KeyError, TypeError) as exc:
            raise BundleError(f"bad manifest entry: {exc}") from exc


class RuleRepository:
    """The server's persistent bundle store.

    Thread-compatible, not thread-safe: the asyncio server serializes
    access through its single event loop.
    """

    def __init__(self, root: str | os.PathLike,
                 semantics_version: int = SEMANTICS_VERSION) -> None:
        self.root = Path(root)
        self.semantics_version = semantics_version
        (self.root / BUNDLE_DIR).mkdir(parents=True, exist_ok=True)
        self.key = self._load_or_create_key()
        self.generation = 0
        self._entries: list[BundleRef] = []
        #: Rule identity already present, per direction — publishes are
        #: deltas by construction.
        self._known: dict[str, set] = {}
        self._load_manifest()

    # -- key / persistence ---------------------------------------------------

    def _load_or_create_key(self) -> bytes:
        key_path = self.root / KEY_NAME
        if key_path.exists():
            return bytes.fromhex(key_path.read_text().strip())
        key = secrets.token_bytes(32)
        atomic_write_text(key_path, key.hex() + "\n")
        return key

    def _load_manifest(self) -> None:
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return
        with open(path) as fp:
            manifest = json.load(fp)
        payload = verify_manifest(manifest, self.key)
        self.generation = payload["generation"]
        self._entries = [
            BundleRef.from_json(item) for item in payload["bundles"]
        ]
        for ref in self._entries:
            if ref.semantics != self.semantics_version:
                continue
            known = self._known.setdefault(ref.direction, set())
            known.update(self.load_rules(ref.digest))

    def _save_manifest(self) -> None:
        atomic_write_text(
            self.root / MANIFEST_NAME,
            json.dumps(self.manifest(), indent=1),
        )

    # -- reading -------------------------------------------------------------

    def manifest(self) -> dict:
        """The signed manifest document served to clients."""
        payload = {
            "format": MANIFEST_FORMAT,
            "version": REPO_FILE_VERSION,
            "generation": self.generation,
            "semantics": self.semantics_version,
            "bundles": [ref.to_json() for ref in self._entries],
        }
        return {
            "payload": payload,
            "signature": sign_payload(payload, self.key),
        }

    def entries(self) -> list[BundleRef]:
        return list(self._entries)

    def delta_since(self, generation: int) -> list[BundleRef]:
        """Bundles published after ``generation`` (delta sync)."""
        return [
            ref for ref in self._entries if ref.generation > generation
        ]

    def load_bundle(self, digest: str) -> dict:
        path = self.root / BUNDLE_DIR / f"{digest}.json"
        if not path.exists():
            raise BundleError(f"unknown bundle {digest[:16]}…")
        with open(path) as fp:
            return json.load(fp)

    def load_rules(self, digest: str) -> list[Rule]:
        return verify_bundle(self.load_bundle(digest), digest)

    def all_rules(self, direction: str) -> list[Rule]:
        """Every stored rule for ``direction`` at the live semantics
        version (deduped across bundles)."""
        rules: list[Rule] = []
        for ref in self._entries:
            if ref.direction == direction and \
                    ref.semantics == self.semantics_version:
                rules.extend(self.load_rules(ref.digest))
        return dedup_rules(rules)

    # -- publishing ----------------------------------------------------------

    def publish(self, rules: list[Rule], direction: str) -> BundleRef | None:
        """Store the *new* rules among ``rules`` as one immutable
        bundle and advance the manifest generation.

        Rules already present for the direction are dropped first, so
        repeated publishes of overlapping rule sets produce minimal
        delta bundles; returns None when nothing new remains.
        """
        known = self._known.setdefault(direction, set())
        fresh = [rule for rule in dedup_rules(rules) if rule not in known]
        if not fresh:
            return None
        document = make_bundle(fresh, direction, self.semantics_version)
        digest = bundle_digest(document)
        path = self.root / BUNDLE_DIR / f"{digest}.json"
        if not path.exists():
            atomic_write_text(path, json.dumps(document, indent=1))
        self.generation += 1
        ref = BundleRef(
            digest=digest,
            direction=direction,
            semantics=self.semantics_version,
            rules=len(document["rules"]),
            generation=self.generation,
        )
        self._entries.append(ref)
        known.update(fresh)
        self._save_manifest()
        return ref
