"""Operand parameterization: initial-mapping generation (Section 3.2).

Produces up to ``MAX_TRIES`` candidate :class:`InitialMapping` objects
for a snippet pair, in decreasing order of heuristic confidence:

1. memory operands paired by IR variable name ("Num"/"Name" failures),
2. live-in registers mapped by matching normalized memory-address
   forms (base/index terms with equal coefficients),
3. remaining live-in registers mapped by the operations performed on
   them,
4. still-unmapped live-in registers by bounded permutation search
   ("FailG" if the counts differ),
5. host immediates related to guest immediate slots by value (identity,
   additive inverse, bitwise not, or/add/sub/shl of two guest slots) and
   host address displacements related to the matched guest address
   aggregate.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.isa.operands import Imm
from repro.learning.direction import ARM_TO_X86, Direction
from repro.learning.addrnorm import (
    AccessInfo,
    LinForm,
    SlotNamer,
    analyze_snippet,
)
from repro.learning.extract import SnippetPair

MAX_TRIES = 5


class ParamFailure(enum.Enum):
    """Parameterization-step rejection causes (Table 1 columns)."""

    MEM_COUNT = "Num"
    MEM_NAME = "Name"
    LIVE_IN = "FailG"


@dataclass
class InitialMapping:
    """One candidate operand mapping for verification.

    Attributes:
        reg_map: guest live-in register -> host live-in register.
        imm_asts: host slot name -> immediate AST over guest slots (see
            :class:`repro.isa.operands.SymImm`); host slots absent here
            stay concrete in the rule template.
        guest_param_slots: guest slots that are referenced by some host
            AST (only these become wildcards in the template).
        mem_pairs: (guest access, host access) pairs by IR variable.
    """

    reg_map: dict[str, str]
    imm_asts: dict[str, tuple]
    guest_param_slots: set[str] = field(default_factory=set)
    mem_pairs: list[tuple[AccessInfo, AccessInfo]] = field(default_factory=list)


@dataclass
class ParamContext:
    """Everything later stages need about the analyzed pair."""

    pair: SnippetPair
    guest_namer: SlotNamer
    host_namer: SlotNamer
    guest_accesses: list[AccessInfo]
    host_accesses: list[AccessInfo]
    guest_live_in: tuple[str, ...]
    host_live_in: tuple[str, ...]
    direction: Direction = ARM_TO_X86


def live_in_registers(instrs, isa) -> tuple[str, ...]:
    """Registers used before being defined, in first-use order."""
    defined: set[str] = set()
    live_in: list[str] = []
    for instr in instrs:
        for reg in isa.used_registers(instr):
            if reg not in defined and reg not in live_in:
                live_in.append(reg)
        defined.update(isa.defined_registers(instr))
    return tuple(live_in)


def analyze_pair(pair: SnippetPair,
                 direction: Direction = ARM_TO_X86) -> ParamContext:
    guest_namer = SlotNamer("ig")
    host_namer = SlotNamer("ih")
    guest_accesses, _ = analyze_snippet(
        pair.guest, direction.guest_isa, guest_namer
    )
    host_accesses, _ = analyze_snippet(
        pair.host, direction.host_isa, host_namer
    )
    _register_plain_imm_slots(pair.guest, guest_namer)
    _register_plain_imm_slots(pair.host, host_namer)
    return ParamContext(
        pair,
        guest_namer,
        host_namer,
        guest_accesses,
        host_accesses,
        live_in_registers(pair.guest, direction.guest_isa),
        live_in_registers(pair.host, direction.host_isa),
        direction,
    )


def _register_plain_imm_slots(instrs, namer: SlotNamer) -> None:
    """Give every immediate operand a slot (addresses already did theirs)."""
    for index, instr in enumerate(instrs):
        for op_index, op in enumerate(instr.operands):
            if isinstance(op, Imm):
                namer.slot_for(index, op_index, op.value)


def generate_mappings(context: ParamContext
                      ) -> tuple[list[InitialMapping], ParamFailure | None]:
    """Produce candidate initial mappings, or a failure classification."""
    mem_pairs, failure = _pair_memory_operands(context)
    if failure is not None:
        return [], failure

    # Stage 2: live-in registers from normalized addresses.
    base_maps = _match_addresses(context, mem_pairs)
    if base_maps is None:
        return [], ParamFailure.LIVE_IN

    candidates: list[InitialMapping] = []
    for reg_map in base_maps:
        completed = _complete_with_operations(context, reg_map)
        if completed is None:
            continue
        for full_map in completed:
            if len(candidates) >= MAX_TRIES:
                break
            imm_asts, guest_slots = _relate_immediates(
                context, mem_pairs, full_map
            )
            candidates.append(
                InitialMapping(full_map, imm_asts, guest_slots, mem_pairs)
            )
        if len(candidates) >= MAX_TRIES:
            break
    if not candidates:
        return [], ParamFailure.LIVE_IN
    return candidates, None


# -- stage 1: memory operands ----------------------------------------------


def _pair_memory_operands(context: ParamContext):
    guest, host = context.guest_accesses, context.host_accesses
    if len(guest) != len(host):
        return None, ParamFailure.MEM_COUNT
    guest_names = sorted(access.var or "?" for access in guest)
    host_names = sorted(access.var or "?" for access in host)
    if guest_names != host_names:
        return None, ParamFailure.MEM_NAME
    by_name: dict[str, list[AccessInfo]] = {}
    for access in host:
        by_name.setdefault(access.var or "?", []).append(access)
    pairs: list[tuple[AccessInfo, AccessInfo]] = []
    for access in guest:
        partner = by_name[access.var or "?"].pop(0)
        if access.size != partner.size or access.is_store != partner.is_store:
            return None, ParamFailure.MEM_NAME
        pairs.append((access, partner))
    return pairs, None


# -- stage 2: live-in registers from addresses --------------------------------


def _match_addresses(
    context: ParamContext, mem_pairs
) -> list[dict[str, str]] | None:
    """Register constraints from matching normalized address forms.

    Returns a list of candidate (partial) register maps, or None when
    the forms are structurally incompatible.
    """
    guest_live = set(context.guest_live_in)
    host_live = set(context.host_live_in)
    alternatives: list[dict[str, str]] = [{}]
    for guest_access, host_access in mem_pairs:
        gform, hform = guest_access.form, host_access.form
        if gform.is_opaque or hform.is_opaque:
            continue  # leave these registers to later stages
        gterms = {r: c for r, c in gform.regs.items() if r in guest_live}
        hterms = {r: c for r, c in hform.regs.items() if r in host_live}
        if sorted(gterms.values()) != sorted(hterms.values()):
            return None
        locals_maps = _coeff_matchings(gterms, hterms)
        merged: list[dict[str, str]] = []
        for base in alternatives:
            for extra in locals_maps:
                combined = _merge_maps(base, extra)
                if combined is not None:
                    merged.append(combined)
        if not merged:
            return None
        alternatives = merged[:MAX_TRIES]
    return alternatives


def _coeff_matchings(gterms: dict[str, int], hterms: dict[str, int]
                     ) -> list[dict[str, str]]:
    """All ways to match guest terms to host terms of equal coefficient."""
    by_coeff: dict[int, tuple[list[str], list[str]]] = {}
    for reg, coeff in gterms.items():
        by_coeff.setdefault(coeff, ([], []))[0].append(reg)
    for reg, coeff in hterms.items():
        by_coeff.setdefault(coeff, ([], []))[1].append(reg)
    results = [{}]
    for coeff, (gregs, hregs) in sorted(by_coeff.items()):
        gregs, hregs = sorted(gregs), sorted(hregs)
        new_results = []
        for permutation in itertools.permutations(hregs):
            mapping = dict(zip(gregs, permutation))
            for base in results:
                combined = _merge_maps(base, mapping)
                if combined is not None:
                    new_results.append(combined)
        results = new_results[:MAX_TRIES]
    return results


def _merge_maps(a: dict[str, str], b: dict[str, str]) -> dict[str, str] | None:
    merged = dict(a)
    used_hosts = set(merged.values())
    for guest, host in b.items():
        if guest in merged:
            if merged[guest] != host:
                return None
            continue
        if host in used_hosts:
            return None
        merged[guest] = host
        used_hosts.add(host)
    return merged


# -- stage 3: operations / permutations -----------------------------------------


_OP_CATEGORY = {
    "add": "add", "addl": "add",
    "sub": "sub", "subl": "sub", "rsb": "sub",
    "mul": "mul", "imull": "mul",
    "and": "and", "andl": "and",
    "orr": "or", "orl": "or",
    "eor": "xor", "xorl": "xor",
    "cmp": "cmp", "cmpl": "cmp", "cmn": "cmp", "tst": "cmp", "testl": "cmp",
    "mov": "mov", "movl": "mov", "mvn": "mov",
    "lsl": "shift", "lsr": "shift", "asr": "shift",
    "shll": "shift", "shrl": "shift", "sarl": "shift",
}


def _operation_categories(instrs, isa, reg: str) -> set[str]:
    """Operations performed on a live-in register's *value*.

    Categories follow plain register copies: in ``movl %ebp, %ecx;
    subl %esi, %ecx`` the value of ``ebp`` participates in a
    subtraction (paper Figure 3(a) maps it against ARM's ``sub``
    operand), so ``mov`` itself never counts as a category when the
    copy's destination is consumed by a real operation.
    """
    categories: set[str] = set()
    holders: set[str] = {reg}  # registers currently holding the value
    for instr in instrs:
        used = set(isa.used_registers(instr))
        defined = set(isa.defined_registers(instr))
        consumed = bool(used & holders)
        category = _OP_CATEGORY.get(instr.mnemonic)
        if consumed and category == "mov":
            holders |= defined  # the value was propagated, not consumed
        else:
            if consumed and category:
                categories.add(category)
            holders -= defined  # overwritten registers stop holding it
        if not holders:
            break
    if not categories:
        # Pure copies only: fall back to "mov" so mov-to-mov pairs can
        # still match each other.
        categories.add("mov")
    return categories


def _complete_with_operations(
    context: ParamContext, reg_map: dict[str, str]
) -> list[dict[str, str]] | None:
    """Map leftover live-ins by operation category, then permutations."""
    guest_rest = [r for r in context.guest_live_in if r not in reg_map]
    used_hosts = set(reg_map.values())
    host_rest = [r for r in context.host_live_in if r not in used_hosts]

    # Operation-based unique matches first.
    progress = True
    while progress:
        progress = False
        for guest in list(guest_rest):
            g_cats = _operation_categories(
                context.pair.guest, context.direction.guest_isa, guest
            )
            matches = [
                host for host in host_rest
                if g_cats & _operation_categories(
                    context.pair.host, context.direction.host_isa, host
                )
            ]
            if len(matches) == 1:
                reg_map = dict(reg_map)
                reg_map[guest] = matches[0]
                guest_rest.remove(guest)
                host_rest.remove(matches[0])
                progress = True

    if not guest_rest and not host_rest:
        return [reg_map]
    if len(guest_rest) != len(host_rest):
        return None
    if len(guest_rest) > 4:
        return None  # permutation space too large; paper caps at 5 tries
    results = []
    for permutation in itertools.permutations(host_rest):
        candidate = dict(reg_map)
        candidate.update(zip(guest_rest, permutation))
        results.append(candidate)
        if len(results) >= MAX_TRIES:
            break
    return results


# -- stage 4: immediates -----------------------------------------------------------


def _relate_immediates(context: ParamContext, mem_pairs,
                       reg_map: dict[str, str]) -> tuple[dict[str, tuple], set]:
    """Find ASTs expressing host immediates over guest slots."""
    guest_values = context.guest_namer.values
    host_values = dict(context.host_namer.values)
    imm_asts: dict[str, tuple] = {}
    guest_param_slots: set[str] = set()

    # Address displacements: host disp = guest aggregate + delta
    # (Figure 2(a) / Figure 4(a)).
    for guest_access, host_access in mem_pairs:
        host_slot = _disp_slot(context.host_namer, host_access)
        if host_slot is None or host_slot in imm_asts:
            continue
        ast, used = _address_disp_ast(
            guest_access.form, host_access.form, host_slot,
            guest_values, host_values,
        )
        if ast is None:
            # Opaque address (e.g. pointer loaded within the snippet,
            # Figure 2(b)): map the two displacement slots directly.
            guest_slot = _disp_slot(context.guest_namer, guest_access)
            if guest_slot is not None:
                delta = (host_values[host_slot]
                         - guest_values[guest_slot]) & 0xFFFFFFFF
                ast = ("slot", guest_slot)
                if delta:
                    ast = ("add", ast, ("const", delta))
                used = {guest_slot}
        if ast is not None:
            imm_asts[host_slot] = ast
            guest_param_slots.update(used)

    # Remaining host immediates by value relations (Figure 4(b)).
    guest_slots = sorted(guest_values)
    for host_slot, host_value in sorted(host_values.items()):
        if host_slot in imm_asts:
            continue
        relation = _value_relation(host_value, guest_slots, guest_values)
        if relation is not None:
            ast, used = relation
            imm_asts[host_slot] = ast
            guest_param_slots.update(used)
    return imm_asts, guest_param_slots


def _disp_slot(namer: SlotNamer, access: AccessInfo) -> str | None:
    return namer.slots.get((access.instr_index, -(access.operand_index + 1)))


def _address_disp_ast(gform: LinForm, hform: LinForm, host_disp_slot: str,
                      guest_values, host_values):
    """AST for a host displacement from the guest address aggregate.

    host_aggregate == guest_aggregate at learning time, so::

        disp = sum(guest slots * coeff) + guest_const
               - (other host slot contributions at learn values)
               - host_const_structural + 0

    The non-disp host contributions are folded in at their learning
    values; if that makes the rule too specific, verification of a
    broader candidate would have failed anyway.
    """
    if gform.is_opaque or hform.is_opaque:
        return None, set()
    ast = None
    used: set[str] = set()
    for slot, coeff in sorted(gform.slots.items()):
        term: tuple = ("slot", slot)
        if coeff != 1:
            term = ("mul", term, ("const", coeff & 0xFFFFFFFF))
        ast = term if ast is None else ("add", ast, term)
        used.add(slot)
    delta = gform.const - hform.const
    for slot, coeff in hform.slots.items():
        if slot != host_disp_slot:
            delta -= host_values[slot] * coeff
    disp_coeff = hform.slots.get(host_disp_slot, 1)
    if disp_coeff != 1:
        return None, set()
    if ast is None:
        ast = ("const", delta & 0xFFFFFFFF)
    elif delta:
        ast = ("add", ast, ("const", delta & 0xFFFFFFFF))
    return ast, used


def _value_relation(host_value: int, guest_slots: list[str],
                    guest_values: dict[str, int]):
    """Search identity/inverse/not/two-slot relations (Section 3.2)."""
    mask = 0xFFFFFFFF
    host_value &= mask
    for slot in guest_slots:
        value = guest_values[slot] & mask
        if value == host_value:
            return ("slot", slot), {slot}
        if (-value) & mask == host_value:
            return ("neg", ("slot", slot)), {slot}
        if (~value) & mask == host_value:
            return ("not", ("slot", slot)), {slot}
    for a, b in itertools.combinations(guest_slots, 2):
        va, vb = guest_values[a] & mask, guest_values[b] & mask
        for op, result in (
            ("or", va | vb),
            ("add", (va + vb) & mask),
            ("and", va & vb),
            ("xor", va ^ vb),
            ("sub", (va - vb) & mask),
        ):
            if result == host_value:
                return (op, ("slot", a), ("slot", b)), {a, b}
        if vb < 32 and (va << vb) & mask == host_value:
            return ("shl", ("slot", a), ("slot", b)), {a, b}
    return None
