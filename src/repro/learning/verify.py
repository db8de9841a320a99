"""Verification of semantic equivalence via symbolic execution
(paper Section 3.3).

Two symbolic runs per candidate:

1. a *preliminary* run of the original snippets under the initial
   mapping (concrete immediates) to derive the final defined-register
   mapping and detect conflicts with the initial mapping,
2. a *template* run where every parameterized immediate is a fresh
   symbol, proving the rule for all operand values.  Registers, memory
   (at the addresses recorded when accessed), and branch conditions are
   checked; the condition-code compatibility of the rule (which guest
   flags the host instructions emulate, directly or inverted) is
   recorded for the translation-time analysis of Section 5.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass

from repro import ir
from repro.faults import deadline as _deadline
from repro.ir.expr import Expr
from repro.learning.extract import SnippetPair
from repro.learning.paramize import InitialMapping, ParamContext
from repro.learning.rule import Rule
from repro.learning.template import TemplateError, Templates, build_templates
from repro.solver import Verdict, check_equal
from repro.symexec import (
    SharedSymbolicMemory,
    SymbolicExecutionError,
    SymbolicState,
    run_snippet,
)

_BDD_BUDGET = 120_000


class VerifyFailure(enum.Enum):
    """Verification-step rejection causes (Table 1 columns).

    ``TIMEOUT`` and ``ENGINE_CRASH`` extend the paper's taxonomy with
    the failure-dominated outcomes its Table 1 attributes to solver
    timeouts and symbolic-execution engine crashes: a candidate whose
    verification deadline fired, and a candidate whose resolving worker
    process died (quarantined by the parallel scheduler's bisection).
    """

    REGISTERS = "Rg"
    MEMORY = "Mm"
    BRANCH = "Br"
    OTHER = "Other"
    TIMEOUT = "TO"
    ENGINE_CRASH = "EC"


@dataclass
class VerifyResult:
    rule: Rule | None = None
    failure: VerifyFailure | None = None
    detail: str = ""


#: The active query memo, ``(a, b) -> verdict`` (see query_scope).
_QUERIES: dict[tuple[Expr, Expr], bool] | None = None


@contextmanager
def query_scope():
    """Settle each distinct equivalence query once inside the scope.

    A verdict is a pure function of ``(a, b)``, so candidates that pose
    the same query share one solver call.  A nested scope reuses the
    outer memo and nothing survives the outermost: one learning run,
    never a process (a memo that outlived its run would turn the next
    cold run warm).
    """
    global _QUERIES
    if _QUERIES is not None:
        yield _QUERIES
        return
    _QUERIES = {}
    try:
        yield _QUERIES
    finally:
        _QUERIES = None


def _exprs_equal(a: Expr, b: Expr) -> bool:
    # One deterministic deadline step per query, memo hit or not: the
    # unit the TO budget counts (see repro.faults.deadline).
    _deadline.tick()
    if a.width != b.width:
        return False  # e.g. a byte store paired against a word store
    queries = _QUERIES
    if queries is not None:
        verdict = queries.get((a, b))
        if verdict is not None:
            return verdict
    verdict = check_equal(a, b, bdd_budget=_BDD_BUDGET).verdict \
        is Verdict.EQUAL
    if queries is not None:
        queries[(a, b)] = verdict
    return verdict


def verify_candidate(
    context: ParamContext, mapping: InitialMapping, origin: str = ""
) -> VerifyResult:
    """Verify one initial mapping; return a Rule or a failure."""
    pair = context.pair
    try:
        final_pairs, temps, written = _preliminary_run(
            pair, mapping, context.direction
        )
    except SymbolicExecutionError as exc:
        return VerifyResult(failure=VerifyFailure.OTHER, detail=str(exc))
    except _RegisterMismatch as exc:
        return VerifyResult(failure=VerifyFailure.REGISTERS, detail=str(exc))

    try:
        templates = build_templates(context, mapping, final_pairs, temps,
                                    written)
    except TemplateError as exc:
        return VerifyResult(failure=VerifyFailure.REGISTERS, detail=str(exc))

    return _template_run(templates, pair, origin, context.direction)


class _RegisterMismatch(Exception):
    pass


def _preliminary_run(pair: SnippetPair, mapping: InitialMapping,
                     direction):
    """Run the original snippets; derive the final register mapping."""
    memory = SharedSymbolicMemory()
    shared = {
        guest_reg: ir.sym(32, f"P_{guest_reg}")
        for guest_reg in mapping.reg_map
    }
    guest_state = SymbolicState("g", dict(shared), memory)
    host_state = SymbolicState(
        "h",
        {host: shared[guest] for guest, host in mapping.reg_map.items()},
        memory,
    )
    run_snippet(pair.guest, direction.guest_execute, guest_state)
    run_snippet(pair.host, direction.host_execute, host_state)

    guest_written = [r for r in guest_state.written_regs if r != "pc"]
    host_written = [r for r in host_state.written_regs if r != "pc"]
    final_pairs: dict[str, str] = {}
    remaining_hosts = list(host_written)
    for guest_reg in guest_written:
        guest_value = guest_state.reg_value(guest_reg)
        required = mapping.reg_map.get(guest_reg)
        partner = None
        if required is not None:
            # Live-in guest regs that are redefined must match their
            # initially-mapped host register (no conflicts allowed).
            if required in remaining_hosts and _exprs_equal(
                guest_value, host_state.reg_value(required)
            ):
                partner = required
        else:
            for host_reg in remaining_hosts:
                if mapping.reg_map.get(guest_reg) not in (None, host_reg):
                    continue
                if _exprs_equal(guest_value, host_state.reg_value(host_reg)):
                    partner = host_reg
                    break
        if partner is None:
            raise _RegisterMismatch(
                f"no host partner for defined guest register {guest_reg}"
            )
        final_pairs[guest_reg] = partner
        remaining_hosts.remove(partner)
    return final_pairs, tuple(remaining_hosts), tuple(guest_written)


def _template_run(templates: Templates, pair: SnippetPair,
                  origin: str, direction) -> VerifyResult:
    memory = SharedSymbolicMemory()
    shared = {param: ir.sym(32, f"P_{param}") for param in templates.params}
    guest_state = SymbolicState("g", dict(shared), memory)
    host_state = SymbolicState("h", dict(shared), memory)
    try:
        guest_result = run_snippet(
            templates.guest, direction.guest_execute, guest_state
        )
        host_result = run_snippet(
            templates.host, direction.host_execute, host_state
        )
    except SymbolicExecutionError as exc:
        return VerifyResult(failure=VerifyFailure.OTHER, detail=str(exc))

    # Registers: every written shared param must agree.
    for param in templates.written_params:
        try:
            host_value = host_state.reg_value(param)
        except KeyError:
            return VerifyResult(
                failure=VerifyFailure.REGISTERS,
                detail=f"host never writes {param}",
            )
        if not _exprs_equal(guest_state.reg_value(param), host_value):
            return VerifyResult(
                failure=VerifyFailure.REGISTERS,
                detail=f"values differ for {param}",
            )

    # Memory: identical locations, equivalent stored values.
    guest_stores = guest_state.final_stores()
    host_stores = host_state.final_stores()
    if set(guest_stores) != set(host_stores):
        return VerifyResult(
            failure=VerifyFailure.MEMORY,
            detail="different store locations",
        )
    for key, guest_value in guest_stores.items():
        if not _exprs_equal(guest_value, host_stores[key]):
            return VerifyResult(
                failure=VerifyFailure.MEMORY,
                detail=f"stored values differ at {key[0]}",
            )

    # Branch conditions (paper: targets assumed identical).
    guest_cond = guest_result.branch_cond
    host_cond = host_result.branch_cond
    if (guest_cond is None) != (host_cond is None):
        return VerifyResult(
            failure=VerifyFailure.BRANCH, detail="branch presence differs"
        )
    if guest_cond is not None and not _exprs_equal(guest_cond, host_cond):
        return VerifyResult(
            failure=VerifyFailure.BRANCH, detail="branch conditions differ"
        )

    cc_info = _flag_compatibility(guest_state, host_state,
                                  direction.flag_partners)
    rule = Rule(
        guest=templates.guest,
        host=templates.host,
        params=templates.params,
        written_params=templates.written_params,
        temps=templates.temps,
        guest_flags_written=tuple(
            f for f in guest_state.written_flags
            if f in direction.flag_partners
        ),
        cc_info=cc_info,
        has_branch=guest_cond is not None,
        origin=origin,
        line=pair.line,
        direction=direction.name,
    )
    return VerifyResult(rule=rule)


def _flag_compatibility(guest_state: SymbolicState,
                        host_state: SymbolicState,
                        flag_partners: dict) -> dict[str, str]:
    """Which guest flags do the host instructions emulate, and how?

    Returns {guest_flag: "direct" | "inverted"} for each guest flag
    written by the snippet whose x86 partner flag holds an equivalent
    (or complemented — ARM and x86 disagree on the carry/borrow polarity
    of subtraction) value.  Missing entries are flags the rule does NOT
    emulate; the DBT's translation-time liveness analysis (Section 5)
    must prove them dead before applying the rule.
    """
    compat: dict[str, str] = {}
    for guest_flag, host_flag in flag_partners.items():
        if guest_flag not in guest_state.written_flags:
            continue
        if host_flag not in host_state.written_flags:
            continue
        guest_value = guest_state.flag_value(guest_flag)
        host_value = host_state.flag_value(host_flag)
        if _exprs_equal(guest_value, host_value):
            compat[guest_flag] = "direct"
        elif _exprs_equal(guest_value, ir.xor(host_value, ir.bv(1, 1))):
            compat[guest_flag] = "inverted"
    return compat
