"""Automatic learning of binary translation rules (the paper's core).

Pipeline (paper Sections 2-3)::

    extract    group guest/host instructions by source line (debug info)
    prepare    reject calls / predicated / multi-block snippets
    paramize   heuristic initial operand mapping (memory operands via IR
               variable names, live-in registers via normalized address
               expressions / operations / bounded permutations,
               immediates via arithmetic-logical relations)
    verify     symbolic execution of the parameterized templates; final
               register mapping; memory / branch-condition equivalence;
               condition-code compatibility analysis
    rule       parameterized Rule objects, deduplication
    store      hash table keyed by the arithmetic mean of guest opcodes

Entry point: :func:`repro.learning.pipeline.learn_rules`.
"""

from repro.learning.direction import (
    ARM_TO_X86,
    X86_TO_ARM,
    Direction,
    HostConstraintError,
)
from repro.learning.cache import VerificationCache
from repro.learning.extract import SnippetPair, extract_pairs
from repro.learning.journal import OutcomeJournal
from repro.learning.pipeline import (
    LearningOutcome,
    LearningReport,
    ResolutionGapError,
    learn_corpus,
    learn_rules,
    leave_one_out,
)
from repro.learning.rule import Binding, Rule, instantiate_host, match_rule
from repro.learning.serialize import dump_rules, load_rules
from repro.learning.store import RuleStore

__all__ = [
    "ARM_TO_X86",
    "X86_TO_ARM",
    "Direction",
    "HostConstraintError",
    "SnippetPair",
    "extract_pairs",
    "VerificationCache",
    "OutcomeJournal",
    "ResolutionGapError",
    "LearningOutcome",
    "LearningReport",
    "learn_rules",
    "learn_corpus",
    "leave_one_out",
    "Binding",
    "Rule",
    "instantiate_host",
    "match_rule",
    "RuleStore",
    "dump_rules",
    "load_rules",
]
