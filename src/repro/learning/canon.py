"""Canonical identity of parameterized learning candidates.

Verification dominates learning time (Table 1: ~95% of it is symbolic
execution plus BDD equivalence checks), yet many candidates are
textually identical: short idiomatic lines (``i += 1``, ``return 0``,
pointer bumps) compile to the same guest/host snippets on many source
lines of many benchmarks, and the paramization heuristics then derive
the same initial mappings for them.  Canonicalizing candidates *before*
invoking the solver — so each distinct candidate is verified exactly
once per run, and at most once per cache lifetime — is the decisive
rule-synthesis throughput optimization (cf. Daly et al.,
arXiv:2405.06127).

A candidate's canonical key covers everything verification reads:

* the translation direction,
* the normalized guest and host snippet text (mnemonics, operands and
  concrete immediate values),
* the signature of every initial mapping the candidate will try
  (register map, immediate ASTs, parameterized guest slots).

All other verification inputs (slot namers, normalized address forms,
live-in orders, memory-operand pairing) are derived deterministically
from the instruction sequences, so equal keys imply equal verification
verdicts.  Source line, function name and benchmark are deliberately
*excluded*: they do not influence the verdict and are rebound when a
shared outcome is applied to a concrete snippet pair.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.faults.deadline import (
    Deadline,
    DeadlineBudget,
    DeadlineExceeded,
    deadline_scope,
)
from repro.faults.plan import FaultPlan, get_fault_plan
from repro.learning.paramize import InitialMapping, ParamContext
from repro.learning.rule import Rule
from repro.learning.verify import VerifyFailure, verify_candidate


def snippet_text(instrs) -> str:
    """Normalized text of an instruction sequence."""
    return "; ".join(str(instr) for instr in instrs)


def immexpr_text(expr: tuple) -> str:
    """Canonical rendering of an immediate AST (nested tuples)."""
    parts = (
        immexpr_text(part) if isinstance(part, tuple) else str(part)
        for part in expr[1:]
    )
    return f"({expr[0]} {' '.join(parts)})"


def mapping_signature(mapping: InitialMapping) -> str:
    """Order-independent signature of one initial mapping."""
    regs = ",".join(
        f"{guest}>{host}" for guest, host in sorted(mapping.reg_map.items())
    )
    imms = ",".join(
        f"{slot}={immexpr_text(ast)}"
        for slot, ast in sorted(mapping.imm_asts.items())
    )
    wild = ",".join(sorted(mapping.guest_param_slots))
    return f"regs[{regs}] imms[{imms}] wild[{wild}]"


def candidate_key(context: ParamContext,
                  mappings: list[InitialMapping]) -> str:
    """Canonical key of one verification work item (pair + mappings)."""
    lines = [
        context.direction.name,
        "guest: " + snippet_text(context.pair.guest),
        "host: " + snippet_text(context.pair.host),
    ]
    lines += [
        f"try{index}: {mapping_signature(mapping)}"
        for index, mapping in enumerate(mappings)
    ]
    return "\n".join(lines)


def candidate_digest(context: ParamContext,
                     mappings: list[InitialMapping]) -> str:
    """Stable hex digest of :func:`candidate_key` (cache/dedup key)."""
    key = candidate_key(context, mappings)
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


@dataclass
class CandidateOutcome:
    """The (deterministic) verification verdict of one candidate.

    Attributes:
        rule: The learned rule template on success (its ``origin`` and
            ``line`` are placeholders; callers rebind them per snippet
            pair).
        failure: Table 1 classification of the *last* failed attempt.
        calls: Number of solver-backed :func:`verify_candidate`
            invocations the verdict cost — what dedup and caching save.
    """

    rule: Rule | None = None
    failure: VerifyFailure | None = None
    calls: int = 0


def resolve_candidate(
    context: ParamContext,
    mappings: list[InitialMapping],
    *,
    budget: DeadlineBudget | None = None,
    digest: str | None = None,
    plan: FaultPlan | None = None,
) -> CandidateOutcome:
    """Verify one canonical candidate: first successful mapping wins.

    Mirrors the paper's protocol (Section 3.3): initial mappings are
    tried in decreasing heuristic confidence, and only the last
    verification attempt is classified on failure (Section 6.1).

    ``budget`` bounds the candidate's verification cost; exhaustion
    yields a ``TIMEOUT`` outcome (``calls`` then counts *started*
    attempts, including the interrupted one).  ``digest`` keys fault
    injection against ``plan`` (the process-global plan when None) —
    production callers that pass no digest never pay for injection.
    """
    if plan is None:
        plan = get_fault_plan()
    deadline = Deadline(budget) if budget is not None and budget.bounded \
        else None
    last_failure: VerifyFailure | None = None
    calls = 0
    try:
        with deadline_scope(deadline):
            if digest is not None and plan.active:
                plan.inject_candidate_faults(digest)
            for mapping in mappings:
                calls += 1
                result = verify_candidate(context, mapping)
                if result.rule is not None:
                    return CandidateOutcome(rule=result.rule, calls=calls)
                last_failure = result.failure
    except DeadlineExceeded:
        return CandidateOutcome(failure=VerifyFailure.TIMEOUT, calls=calls)
    return CandidateOutcome(failure=last_failure, calls=calls)
