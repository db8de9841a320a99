"""Linear-scan register allocation shared by both backends.

Operates on machine code with virtual registers, using per-ISA metadata
(defs/uses) plus ABI annotations carried in ``Instruction.meta``:

* ``meta["uses_regs"]`` — extra physical registers an instruction reads
  (e.g. ``bl`` reading ARM argument registers),
* ``meta["clobbers"]`` — physical registers it destroys (calls clobber
  the caller-saved set).

Physical registers participate in liveness like virtual ones, so fixed
sequences (x86 ``mov/cltd/idivl``, ARM argument marshalling) are
protected without any special pre-coloring machinery.  Allocation
failures are resolved by spilling the failing register to the frame and
re-running; spill code uses fresh short-lived virtual registers, so no
scratch register needs to be reserved.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.minic.backend.mach import (
    MachineFunction,
    TargetInfo,
    is_vreg,
    rename_registers,
    rewrite_registers,
)

_MAX_ROUNDS = 60


class RegisterAllocationError(Exception):
    """Could not allocate registers even after spilling."""


#: (effective uses, effective defs) of one instruction.
_Footprint = tuple[tuple[str, ...], tuple[str, ...]]


def _footprint(instr: Instruction, target: TargetInfo) -> _Footprint:
    uses = target.uses(instr)
    defs = target.defs(instr)
    if instr.meta:
        uses = (*uses, *instr.meta.get("uses_regs", ()))
        defs = (*defs, *instr.meta.get("clobbers", ()))
    return uses, defs


def _blocks(func: MachineFunction, target: TargetInfo) -> list[tuple[int, int]]:
    leaders = {0}
    for pos in func.labels.values():
        leaders.add(pos)
    for index, instr in enumerate(func.instrs):
        if target.is_branch(instr) and index + 1 < len(func.instrs):
            leaders.add(index + 1)
    ordered = sorted(p for p in leaders if p < len(func.instrs))
    return [
        (start, ordered[i + 1] if i + 1 < len(ordered) else len(func.instrs))
        for i, start in enumerate(ordered)
    ]


def _successors(func: MachineFunction, target: TargetInfo,
                blocks: list[tuple[int, int]]) -> dict[int, list[int]]:
    starts = [start for start, _ in blocks]
    succ: dict[int, list[int]] = {start: [] for start in starts}
    from repro.isa.operands import Label

    for start, end in blocks:
        if end == start:
            continue
        last = func.instrs[end - 1]
        fallthrough = True
        if target.is_call(last):
            # Calls return: plain fallthrough, and the callee's label is
            # NOT a CFG successor (values stay live across the call).
            pass
        elif target.is_branch(last):
            for op in last.operands:
                if isinstance(op, Label) and op.name in func.labels:
                    succ[start].append(func.labels[op.name])
            # Unconditional jump/return: no fallthrough.
            if target.branch_condition(last) is None:
                fallthrough = False
        if fallthrough and end < len(func.instrs):
            succ[start].append(end)
    return succ


#: Basic blocks as (start, end) positions, and each one's live-in and
#: live-out set.
_Liveness = tuple[list[tuple[int, int]], list[set[str]], list[set[str]]]


def _liveness(func: MachineFunction, target: TargetInfo,
              footprints: list[_Footprint]) -> _Liveness:
    """Basic blocks with the live-in and live-out set of each.

    When no CFG edge goes backward (true of every DBT block) one pass
    over the blocks in reverse order settles every set; otherwise the
    passes repeat until nothing changes.
    """
    blocks = _blocks(func, target)
    succ = _successors(func, target, blocks)
    block_of = {start: b for b, (start, _) in enumerate(blocks)}
    succ_blocks = [
        [block_of[s] for s in succ[start] if s in block_of]
        for start, _ in blocks
    ]
    gen: list[set[str]] = []  # upward-exposed uses
    kill: list[set[str]] = []  # everything defined
    for start, end in blocks:
        uses_before: set[str] = set()
        defined: set[str] = set()
        for index in range(end - 1, start - 1, -1):
            uses, defs = footprints[index]
            uses_before.difference_update(defs)
            uses_before.update(uses)
            defined.update(defs)
        gen.append(uses_before)
        kill.append(defined)
    cyclic = any(t <= b for b, succs in enumerate(succ_blocks) for t in succs)
    live_in: list[set[str]] = [set() for _ in blocks]
    live_out: list[set[str]] = [set() for _ in blocks]
    changed = True
    while changed:
        changed = False
        for b in range(len(blocks) - 1, -1, -1):
            out = set().union(*(live_in[t] for t in succ_blocks[b]))
            live_out[b] = out
            new_in = gen[b] | (out - kill[b])
            if new_in != live_in[b]:
                live_in[b] = new_in
                changed = True
        changed = changed and cyclic
    return blocks, live_in, live_out


@dataclass
class _Interval:
    name: str
    start: int
    end: int
    needs_low8: bool = False


def _build_intervals(func: MachineFunction, target: TargetInfo,
                     footprints: list[_Footprint], liveness: _Liveness
                     ) -> tuple[list[_Interval], dict[str, list[int]]]:
    """Each vreg's interval spans every position where it is live,
    defined or used; ``phys_busy`` lists those positions for every
    allocatable physical register."""
    blocks, live_in, live_out = liveness
    tracked = frozenset(target.alloc_order)
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    # position -> (allocatable registers it uses, those it defines)
    phys: dict[int, tuple[list[str], list[str]]] = {}
    for index, (uses, defs) in enumerate(footprints):
        for name in uses:
            if is_vreg(name):
                if name not in first:
                    first[name] = index
                last[name] = index
            elif name in tracked:
                phys.setdefault(index, ([], []))[0].append(name)
        for name in defs:
            if is_vreg(name):
                if name not in first:
                    first[name] = index
                last[name] = index
            elif name in tracked:
                phys.setdefault(index, ([], []))[1].append(name)
    phys_touched = list(phys)  # ascending
    phys_busy: dict[str, list[int]] = {}
    for (start, end), block_in, block_out in zip(blocks, live_in, live_out):
        # Liveness across a block boundary stretches an interval to it.
        for name in block_in:
            if first.get(name, start) > start:
                first[name] = start
        for name in block_out:
            if last.get(name, end - 1) < end - 1:
                last[name] = end - 1
        live = block_out & tracked
        if not live and not _conflicts(phys_touched, start, end - 1):
            continue  # no allocatable register is live or touched here
        for index in range(end - 1, start - 1, -1):
            touched = phys.get(index)
            if touched is None:
                for name in live:
                    phys_busy.setdefault(name, []).append(index)
                continue
            uses, defs = touched
            for name in live.union(defs, uses):
                phys_busy.setdefault(name, []).append(index)
            live.difference_update(defs)
            live.update(uses)
    low8 = _low8_requirements(func, target)
    intervals = [
        _Interval(name, start, last[name], name in low8)
        for name, start in first.items()
    ]
    intervals.sort(key=lambda iv: (iv.start, iv.end))
    for positions in phys_busy.values():
        positions.sort()
    return intervals, phys_busy


def _low8_requirements(func: MachineFunction, target: TargetInfo) -> set[str]:
    if not target.low8_regs:
        return set()
    needs: set[str] = set()
    for instr in func.instrs:
        if instr.meta and instr.meta.get("needs_low8"):
            needs.update(
                name for name in instr.meta["needs_low8"] if is_vreg(name)
            )
    return needs


def _conflicts(busy: list[int], start: int, end: int) -> bool:
    index = bisect.bisect_left(busy, start)
    return index < len(busy) and busy[index] <= end


def allocate(func: MachineFunction, target: TargetInfo) -> dict[str, str]:
    """Assign physical registers; mutates ``func`` (spill code, operand
    rewriting) and returns the final vreg -> phys mapping."""
    footprints = [_footprint(instr, target) for instr in func.instrs]
    liveness = _liveness(func, target, footprints)
    for _ in range(_MAX_ROUNDS):
        intervals, phys_busy = _build_intervals(func, target, footprints,
                                                liveness)
        mapping, failed = _linear_scan(intervals, phys_busy, target)
        if failed is None:
            _apply(func, target, mapping)
            return mapping
        victim = _choose_victim(intervals, mapping, failed, target).name
        blocks, live_in, live_out = liveness
        # A store after a block-ending definition would start a block
        # of its own: recompute.  Otherwise every spill temp lives and
        # dies inside its block and the victim is gone from the code.
        keep = not any(
            victim in footprints[end - 1][1]
            and target.is_branch(func.instrs[end - 1])
            for _, end in blocks
        )
        footprints, moved = _spill(func, target, victim, footprints)
        if keep:
            for live in (*live_in, *live_out):
                live.discard(victim)
            liveness = ([(moved[start], moved[end]) for start, end in blocks],
                        live_in, live_out)
        else:
            liveness = _liveness(func, target, footprints)
    raise RegisterAllocationError(
        f"{func.name}: allocation did not converge after {_MAX_ROUNDS} rounds"
    )


def _choose_victim(intervals: list[_Interval], mapping: dict[str, str],
                   failed: _Interval, target: TargetInfo) -> _Interval:
    """Pick what to spill when ``failed`` found no register.

    Spilling the failing interval is pointless when its (possibly
    constrained) candidate registers are all held by *other* long
    intervals at the conflict point — the reload temps would fail the
    same way.  Prefer evicting the longest overlapping unconstrained
    interval that occupies one of the failing interval's candidates.
    """
    candidates = set(
        target.low8_regs if failed.needs_low8 else target.alloc_order
    )

    def pick(allow_low8: bool) -> _Interval | None:
        best: _Interval | None = None
        for interval in intervals:
            if interval.name == failed.name:
                continue
            if interval.needs_low8 and not allow_low8:
                continue
            if interval.name.startswith("%spill"):
                continue
            reg = mapping.get(interval.name)
            if reg not in candidates:
                continue
            if interval.end < failed.start or interval.start > failed.end:
                continue
            if best is None or (interval.end - interval.start) > \
                    (best.end - best.start):
                best = interval
        return best

    best = pick(allow_low8=False)
    if best is None or (best.end - best.start) <= (failed.end - failed.start):
        # No unconstrained long victim: evict a longer byte-constrained
        # interval instead (its reload temps are tiny and will fit).
        fallback = pick(allow_low8=True)
        if fallback is not None and (
            (fallback.end - fallback.start) > (failed.end - failed.start)
            or failed.name.startswith("%spill")
        ):
            return fallback
    if best is not None and (
        (best.end - best.start) > (failed.end - failed.start)
        or failed.name.startswith("%spill")
    ):
        return best
    return failed


def _linear_scan(
    intervals: list[_Interval],
    phys_busy: dict[str, list[int]],
    target: TargetInfo,
) -> tuple[dict[str, str], _Interval | None]:
    mapping: dict[str, str] = {}
    # A register's intervals never overlap, so the last one assigned
    # to it ends last.
    reg_end: dict[str, int] = {}
    for interval in intervals:
        candidates = target.low8_regs if interval.needs_low8 else \
            target.alloc_order
        chosen = None
        for reg in candidates:
            if reg_end.get(reg, -1) >= interval.start:
                continue
            if _conflicts(phys_busy.get(reg, []), interval.start, interval.end):
                continue
            chosen = reg
            break
        if chosen is None:
            return mapping, interval
        mapping[interval.name] = chosen
        reg_end[chosen] = interval.end
    return mapping, None


def _apply(func: MachineFunction, target: TargetInfo,
           mapping: dict[str, str]) -> None:
    func.instrs = rename_registers(func.instrs, mapping)
    func.used_callee_saved = ()
    if target.callee_saved:  # else the scan below can find nothing
        used = {reg.name for instr in func.instrs
                for reg in instr.registers()}
        used.update(mapping.values())
        func.used_callee_saved = tuple(
            reg for reg in target.callee_saved if reg in used
        )


def _spill(func: MachineFunction, target: TargetInfo, victim: str,
           footprints: list[_Footprint]
           ) -> tuple[list[_Footprint], list[int]]:
    """Spill ``victim`` to the frame and rewrite its accesses; returns
    the footprints of the new instruction list and each old position's
    new one (one past the end maps to the new length)."""
    offset = func.frame_slots + func.spill_bytes
    func.spill_bytes += target.word_size
    new_instrs: list[Instruction] = []
    new_footprints: list[_Footprint] = []
    moved: list[int] = []
    counter = 0
    for instr, footprint in zip(func.instrs, footprints):
        uses, defs = footprint
        moved.append(len(new_instrs))
        if victim not in uses and victim not in defs:
            new_instrs.append(instr)
            new_footprints.append(footprint)
            continue
        counter += 1
        temp = f"%spill{offset}_{counter}"
        if victim in uses:
            load = target.spill_load(temp, offset)
            new_instrs.append(load)
            new_footprints.append(_footprint(load, target))
        new_instrs.append(rewrite_registers(instr, {victim: temp}))
        new_footprints.append((
            tuple(temp if name == victim else name for name in uses),
            tuple(temp if name == victim else name for name in defs)))
        if victim in defs:
            store = target.spill_store(temp, offset)
            new_instrs.append(store)
            new_footprints.append(_footprint(store, target))
    moved.append(len(new_instrs))
    func.labels = {
        name: moved[pos] if pos < len(moved) else len(new_instrs)
        for name, pos in func.labels.items()
    }
    func.instrs = new_instrs
    return new_footprints, moved
