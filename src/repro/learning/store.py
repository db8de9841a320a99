"""The rule store: indexed rule lookup over installed translation rules.

Two matcher modes share one store:

* ``"hash"`` — the paper's Section 4 scheme taken literally: a hash
  table keyed by the arithmetic mean of the rule's guest opcode ids,
  scanned longest-first with per-length backoff.  Kept for the
  ablation benchmarks that reproduce the paper's numbers.
* ``"indexed"`` (default) — a first-mnemonic index over a mnemonic
  trie built incrementally at :meth:`insert`/:meth:`install` time.
  ``match_at`` walks the guest block once, descending the trie one
  mnemonic per step, so *all* candidate rules at a position are
  enumerated in O(match length) — no per-candidate-length hash probes,
  and every candidate already agrees with the block on its whole
  mnemonic window before ``match_rule`` runs.

Both matchers are exact: they return the same longest match (and the
same full hit set via :meth:`matches_at`) for any store contents —
property-tested in ``tests/learning/test_store_index.py``.

Buckets are kept sorted by rule length descending (stable within one
length), so the legacy matcher's longest-first backoff scans only the
equal-length segment of a bucket instead of re-filtering the whole
bucket per candidate length, and match results are independent of
insertion order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.learning.rule import Binding, Rule, dedup_rules, match_rule

#: Matcher modes (``RuleStore(matcher=...)``).
MATCHER_MODES = ("indexed", "hash")


@dataclass
class RuleMatch:
    rule: Rule
    binding: Binding
    length: int


class _TrieNode:
    """One mnemonic-trie node: rules whose guest mnemonics equal the
    path from the root, plus children keyed by the next mnemonic."""

    __slots__ = ("children", "rules")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.rules: list[Rule] = []


@dataclass
class RuleStore:
    """Installed translation rules, ready for lookup.

    A store is direction-homogeneous: the first inserted rule fixes the
    guest ISA whose opcode ids key the hash table.
    """

    matcher: str = "indexed"
    _buckets: dict[int, list[Rule]] = field(default_factory=dict)
    _index: dict[str, _TrieNode] = field(default_factory=dict)
    _max_length: int = 0
    _count: int = 0
    _direction: str | None = None

    def __post_init__(self) -> None:
        if self.matcher not in MATCHER_MODES:
            raise ValueError(
                f"unknown matcher {self.matcher!r}; "
                f"expected one of {MATCHER_MODES}"
            )

    @classmethod
    def from_rules(cls, rules: list[Rule],
                   matcher: str = "indexed") -> "RuleStore":
        store = cls(matcher=matcher)
        for rule in dedup_rules(rules):
            store.insert(rule)
        return store

    @property
    def direction(self) -> str | None:
        """Direction of the installed rules (None while empty)."""
        return self._direction

    def insert(self, rule: Rule) -> bool:
        """Install one rule; returns False for an exact duplicate.

        The duplicate guard makes repeated installs idempotent: a rule
        equal to one already in its bucket (rule equality ignores
        origin/line provenance) is silently skipped, so hot-installing
        the same bundle twice can neither bloat buckets nor skew
        static-coverage statistics.

        Both lookup structures update incrementally — the mean-hash
        bucket (sorted by length descending, insertion-stable within a
        length) and the mnemonic trie — so a mid-run ``hot_install``
        never rebuilds the index or touches unrelated entries.
        """
        if self._direction is None:
            self._direction = rule.direction
        elif rule.direction != self._direction:
            raise ValueError(
                f"rule store is {self._direction}; cannot insert a "
                f"{rule.direction} rule"
            )
        bucket = self._buckets.setdefault(rule.hash_key(), [])
        if rule in bucket:
            return False
        # Keep the bucket sorted by length descending; insert at the
        # end of the equal-length segment so relative order within one
        # length stays insertion order (deterministic tie-break shared
        # with the trie matcher).
        keys = [-r.length for r in bucket]
        bucket.insert(bisect_right(keys, -rule.length), rule)
        node = self._trie_insert(rule)
        node.rules.append(rule)
        self._max_length = max(self._max_length, rule.length)
        self._count += 1
        return True

    def _trie_insert(self, rule: Rule) -> _TrieNode:
        mnemonics = [instr.mnemonic for instr in rule.guest]
        node = self._index.get(mnemonics[0])
        if node is None:
            node = self._index[mnemonics[0]] = _TrieNode()
        for mnemonic in mnemonics[1:]:
            child = node.children.get(mnemonic)
            if child is None:
                child = node.children[mnemonic] = _TrieNode()
            node = child
        return node

    def install(self, rules) -> list[Rule]:
        """Idempotently insert ``rules``; returns those actually new.

        The hot-install entry point: exact duplicates (e.g. a re-synced
        bundle) are skipped via the :meth:`insert` guard.
        """
        return [rule for rule in rules if self.insert(rule)]

    def remove(self, rule: Rule) -> bool:
        """Uninstall one rule (the engine's quarantine path).

        Returns False when the rule is not installed.  ``_max_length``
        is left as a (still sound) upper bound for ``match_at``.
        """
        bucket = self._buckets.get(rule.hash_key())
        if not bucket:
            return False
        try:
            bucket.remove(rule)
        except ValueError:
            return False
        if not bucket:
            del self._buckets[rule.hash_key()]
        node = self._index.get(rule.guest[0].mnemonic)
        for instr in rule.guest[1:]:
            if node is None:
                break
            node = node.children.get(instr.mnemonic)
        if node is not None and rule in node.rules:
            node.rules.remove(rule)
        self._count -= 1
        return True

    def __len__(self) -> int:
        return self._count

    def all_rules(self) -> list[Rule]:
        return [rule for bucket in self._buckets.values() for rule in bucket]

    # -- matching --------------------------------------------------------------

    def _compare(self, rule: Rule, instrs: list[Instruction], start: int,
                 length: int) -> Binding | None:
        """One rule-sequence comparison (the cost the index bounds).

        Both matchers funnel through this hook so the ablation
        benchmarks can count comparisons per indexing scheme.
        """
        return match_rule(rule, instrs[start : start + length])

    def match_at(self, instrs: list[Instruction], start: int,
                 limit: int | None = None) -> RuleMatch | None:
        """Longest-first match at ``instrs[start:]`` (Section 4).

        ``limit`` bounds the sequence length (block length by default).
        """
        max_len = len(instrs) - start
        if limit is not None:
            max_len = min(max_len, limit)
        max_len = min(max_len, self._max_length)
        if max_len <= 0:
            return None
        if self.matcher == "indexed":
            return self._match_indexed(instrs, start, max_len)
        return self._match_hash(instrs, start, max_len)

    def matches_at(self, instrs: list[Instruction], start: int,
                   limit: int | None = None) -> list[RuleMatch]:
        """Every bindable match at ``instrs[start:]``, longest first.

        The translator only needs :meth:`match_at`; this full hit set
        is what the matcher-equivalence tests compare across modes.
        Within one length, matches come back in rule insertion order —
        the same tie-break ``match_at`` uses.
        """
        max_len = len(instrs) - start
        if limit is not None:
            max_len = min(max_len, limit)
        max_len = min(max_len, self._max_length)
        if max_len <= 0:
            return []
        matches: list[RuleMatch] = []
        if self.matcher == "indexed":
            for length, rules in self._trie_candidates(
                    instrs, start, max_len):
                for rule in rules:
                    binding = self._compare(rule, instrs, start, length)
                    if binding is not None:
                        matches.append(RuleMatch(rule, binding, length))
        else:
            prefix = self._prefix_sums(instrs, start, max_len)
            for length in range(max_len, 0, -1):
                for rule in self._bucket_segment(
                        prefix[length] // length, length):
                    binding = self._compare(rule, instrs, start, length)
                    if binding is not None:
                        matches.append(RuleMatch(rule, binding, length))
        return matches

    # -- indexed matcher -------------------------------------------------------

    def _trie_candidates(self, instrs: list[Instruction], start: int,
                         max_len: int) -> list[tuple[int, list[Rule]]]:
        """Candidate rules per length at ``start``, longest first.

        One walk down the trie: depth ``d`` holds exactly the rules
        whose whole guest mnemonic window equals the block's next ``d``
        mnemonics, so every candidate is already mnemonic-exact.
        """
        node = self._index.get(instrs[start].mnemonic)
        by_length: list[tuple[int, list[Rule]]] = []
        depth = 1
        while node is not None:
            if node.rules:
                by_length.append((depth, node.rules))
            if depth >= max_len:
                break
            node = node.children.get(instrs[start + depth].mnemonic)
            depth += 1
        by_length.reverse()
        return by_length

    def _match_indexed(self, instrs: list[Instruction], start: int,
                       max_len: int) -> RuleMatch | None:
        for length, rules in self._trie_candidates(instrs, start, max_len):
            for rule in rules:
                binding = self._compare(rule, instrs, start, length)
                if binding is not None:
                    return RuleMatch(rule, binding, length)
        return None

    # -- legacy mean-hash matcher ----------------------------------------------

    def _prefix_sums(self, instrs: list[Instruction], start: int,
                     max_len: int) -> list[int]:
        from repro.learning.direction import DIRECTIONS

        opcode_id = DIRECTIONS[self._direction or "arm-x86"].guest_opcode_id
        prefix = [0]
        for instr in instrs[start : start + max_len]:
            prefix.append(prefix[-1] + opcode_id(instr))
        return prefix

    def _bucket_segment(self, key: int, length: int) -> list[Rule]:
        """The equal-``length`` segment of bucket ``key`` (buckets are
        sorted by length descending, so this is one bisect, not a full
        re-scan per candidate length)."""
        bucket = self._buckets.get(key)
        if not bucket:
            return []
        keys = [-rule.length for rule in bucket]
        lo = bisect_left(keys, -length)
        hi = bisect_right(keys, -length)
        return bucket[lo:hi]

    def _match_hash(self, instrs: list[Instruction], start: int,
                    max_len: int) -> RuleMatch | None:
        # Precompute prefix opcode-id sums once per call.
        prefix = self._prefix_sums(instrs, start, max_len)
        for length in range(max_len, 0, -1):
            key = prefix[length] // length
            for rule in self._bucket_segment(key, length):
                binding = self._compare(rule, instrs, start, length)
                if binding is not None:
                    return RuleMatch(rule, binding, length)
        return None
