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
scratch register needs to be reserved.  Spill rounds run on positions
that never move (see :class:`_SlotCode`), and the spill code and final
register names are written in one pass once the scan succeeds.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter

from repro.isa.instruction import Instruction
from repro.minic.backend.mach import (
    MachineFunction,
    TargetInfo,
    is_vreg,
    renamer,
    rewrite_registers,
)

_MAX_ROUNDS = 60
#: Slot geometry (see :class:`_SlotCode`): instruction ``p`` sits at
#: ``p * _SLOTS``, its spill code within ``_REACH`` of it.
_REACH = _MAX_ROUNDS + 1
_SLOTS = 2 * _MAX_ROUNDS + 4
#: Below every slot: where an unused register's last interval ends.
_UNUSED = -_SLOTS


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


@dataclass(eq=False, slots=True)
class _Interval:
    name: str
    start: int  # slot
    end: int  # slot
    needs_low8: bool = False
    #: Tie-break among equal (start, end): the slot of the name's first
    #: def or use, then first-touch order.  Temps need no rank: one with
    #: a reload is first touched at that reload's own slot, and one
    #: without ends at its store's slot, where no other interval ends.
    touch: int = 0
    rank: int = 0


_order = attrgetter("start", "end", "touch", "rank")


def _build_intervals(func: MachineFunction, target: TargetInfo,
                     footprints: list[_Footprint], liveness: _Liveness
                     ) -> tuple[list[_Interval], dict[str, list[int]]]:
    """Each vreg's interval spans every position where it is live,
    defined or used; ``phys_busy`` lists those positions for every
    allocatable physical register.  Positions are slots: instruction
    ``p`` sits at ``p * _SLOTS``."""
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
    starts: dict[str, int] = {}  # first positions moved to a block start
    for (start, end), block_in, block_out in zip(blocks, live_in, live_out):
        # Liveness across a block boundary stretches an interval to it.
        for name in block_in:
            if first.get(name, start) > start and name not in starts:
                starts[name] = start
        for name in block_out:
            if last.get(name, end - 1) < end - 1:
                last[name] = end - 1
        live = block_out & tracked
        if not live and not _conflicts(phys_touched, start, end - 1):
            continue  # no allocatable register is live or touched here
        for index in range(end - 1, start - 1, -1):
            slot = index * _SLOTS
            touched = phys.get(index)
            if touched is None:
                for name in live:
                    phys_busy.setdefault(name, []).append(slot)
                continue
            uses, defs = touched
            for name in live.union(defs, uses):
                phys_busy.setdefault(name, []).append(slot)
            live.difference_update(defs)
            live.update(uses)
    low8 = _low8_requirements(func, target)
    intervals = [
        _Interval(name, starts.get(name, touch) * _SLOTS, last[name] * _SLOTS,
                  name in low8, touch * _SLOTS, rank)
        for rank, (name, touch) in enumerate(first.items())
    ]
    intervals.sort(key=_order)
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
    code = _SlotCode(func, target, footprints,
                     _liveness(func, target, footprints))
    for _ in range(_MAX_ROUNDS):
        mapping, failed = code.scan()
        if failed is None:
            code.write(mapping)
            return mapping
        code.spill(_choose_victim(code.intervals, mapping, failed, target,
                                  code.length))
    raise RegisterAllocationError(
        f"{func.name}: allocation did not converge after {_MAX_ROUNDS} rounds"
    )


#: One spill at one instruction: (victim, temp, frame offset, reload
#: before it, store after it).
_Spill = tuple[str, str, int, bool, bool]


class _SlotCode:
    """``func``'s code during allocation, on positions that never move.

    Instruction ``p`` of ``func.instrs`` sits at slot ``p * _SLOTS``.
    Spill round ``r`` puts its reload before ``p`` at
    ``p * _SLOTS - _REACH + r`` and its store after ``p`` at
    ``p * _SLOTS + _REACH - r``, so later rounds nest closer to ``p``
    just as rewriting the code would place them.  A spill round drops
    the victim's interval and adds a short interval for the temp at
    each instruction that touches it; the code is written once, when the
    scan succeeds.  That matches a rebuild of the rewritten code:

    * A reload before a block's first instruction becomes the block's
      first slot, so the intervals live into the block start there.  A
      store after a block's last instruction needs nothing: that
      instruction is no branch (see below), so the block falls through
      and every interval live out of it reaches past the store.
    * Busy positions of physical registers stay as built: a reload or a
      store touches no allocatable register, what is busy there is busy
      at its own instruction too, and an interval spanning it spans that
      instruction.

    Two spills rebase instead, writing the pending spill code into
    ``func`` and building again: one whose victim is a pending temp, and
    one with a store after a block-ending branch (the store would start
    a block of its own, so liveness is recomputed).
    """

    def __init__(self, func: MachineFunction, target: TargetInfo,
                 footprints: list[_Footprint], liveness: _Liveness) -> None:
        self.func = func
        self.target = target
        self._start(footprints, liveness)

    def _start(self, footprints: list[_Footprint],
               liveness: _Liveness) -> None:
        """Build on ``func``'s code as it stands: no spill pending."""
        self.footprints = footprints
        self.liveness = liveness
        self.intervals, self.phys_busy = _build_intervals(
            self.func, self.target, footprints, liveness)
        self.spills: dict[int, list[_Spill]] = {}
        self.spill_slots: list[int] = []  # ascending
        self.temps: set[str] = set()  # pending temps
        self.rounds = 0
        # Built by the first spill: each interval by name, and each
        # block's index by its first instruction.
        self.by_name: dict[str, _Interval] = {}
        self.block_starts: dict[int, int] = {}

    def scan(self) -> tuple[dict[str, str], _Interval | None]:
        return _linear_scan(self.intervals, self.phys_busy, self.target)

    def length(self, interval: _Interval) -> int:
        """``interval``'s length in instructions of the written code."""
        return self._real(interval.end) - self._real(interval.start)

    def _real(self, slot: int) -> int:
        return -(-slot // _SLOTS) + bisect.bisect_left(self.spill_slots, slot)

    def spill(self, victim: _Interval) -> None:
        """Spill ``victim`` to the frame."""
        if victim.name in self.temps:
            self._rebase(keep_liveness=True)
            victim = next(iv for iv in self.intervals
                          if iv.name == victim.name)
        if self.rounds == 0:
            self.by_name = {iv.name: iv for iv in self.intervals}
            self.block_starts = {start: b for b, (start, _) in
                                 enumerate(self.liveness[0])}
        func, target = self.func, self.target
        name = victim.name
        offset = func.frame_slots + func.spill_bytes
        func.spill_bytes += target.word_size
        self.rounds += 1
        self.intervals.remove(victim)
        del self.by_name[name]
        low8 = bool(target.low8_regs)
        block_end_store = False
        counter = 0
        for p in range(victim.touch // _SLOTS, victim.end // _SLOTS + 1):
            uses, defs = self.footprints[p]
            load = name in uses
            store = name in defs
            if not load and not store:
                continue
            counter += 1
            temp = f"%spill{offset}_{counter}"
            start = end = p * _SLOTS
            if load:
                start -= _REACH - self.rounds
                bisect.insort(self.spill_slots, start)
                block = self.block_starts.get(p)
                if block is not None:  # live-in intervals start here now
                    for live_name in self.liveness[1][block]:
                        live = self.by_name.get(live_name)
                        if live is not None and live.start > start:
                            self.intervals.remove(live)
                            live.start = start
                            bisect.insort(self.intervals, live, key=_order)
            if store:
                end += _REACH - self.rounds
                bisect.insort(self.spill_slots, end)
                block_end_store = block_end_store or target.is_branch(
                    func.instrs[p])
            meta = func.instrs[p].meta
            interval = _Interval(
                temp, start, end,
                low8 and bool(meta) and name in meta.get("needs_low8", ()),
                start)
            bisect.insort(self.intervals, interval, key=_order)
            self.by_name[temp] = interval
            self.temps.add(temp)
            self.spills.setdefault(p, []).append(
                (name, temp, offset, load, store))
        if block_end_store:
            self._rebase(keep_liveness=False)

    def _written(self, mapping: dict[str, str] | None
                 ) -> tuple[list[Instruction], list[_Footprint],
                            Callable[[int], int]]:
        """The code with the pending spill code written out: under
        ``mapping`` when given, else with each victim's accesses renamed
        to its temps, and then with each instruction's footprint.  Also
        returns where each old position (or the end) moved."""
        func, target, old = self.func, self.target, self.footprints
        rename = renamer(mapping) if mapping is not None else None
        instrs: list[Instruction] = []
        footprints: list[_Footprint] = []
        positions = sorted(self.spills)
        inserted = [0]  # spill instructions before each spill position
        done = 0
        for p in positions:
            run = func.instrs[done:p]
            instrs.extend(run if rename is None else map(rename, run))
            spills = self.spills[p]
            local = {victim: temp if mapping is None else mapping[temp]
                     for victim, temp, _, _, _ in spills}
            loads = [target.spill_load(local[victim], offset)
                     for victim, _, offset, load, _ in spills if load]
            stores = [target.spill_store(local[victim], offset)
                      for victim, _, offset, _, store in reversed(spills)
                      if store]
            rewritten = rewrite_registers(func.instrs[p], local)
            if rename is None:
                uses, defs = old[p]
                footprints.extend(old[done:p])
                footprints.extend(_footprint(load, target) for load in loads)
                footprints.append((
                    tuple(local.get(name, name) for name in uses),
                    tuple(local.get(name, name) for name in defs)))
                footprints.extend(_footprint(store, target)
                                  for store in stores)
            else:
                rewritten = rename(rewritten)
            instrs += loads
            instrs.append(rewritten)
            instrs += stores
            inserted.append(inserted[-1] + len(loads) + len(stores))
            done = p + 1
        run = func.instrs[done:]
        instrs.extend(run if rename is None else map(rename, run))
        if rename is None:
            footprints.extend(old[done:])

        def moved(pos: int) -> int:
            return pos + inserted[bisect.bisect_left(positions, pos)]

        return instrs, footprints, moved

    def _rebase(self, keep_liveness: bool) -> None:
        """Write the pending spill code into ``func`` and start again on
        the new code's slots."""
        func, target = self.func, self.target
        instrs, footprints, moved = self._written(None)
        func.labels = _moved_labels(func.labels, moved, len(instrs))
        func.instrs = instrs
        if keep_liveness:
            blocks, live_in, live_out = self.liveness
            spilled = {victim for spills in self.spills.values()
                       for victim, _, _, _, _ in spills}
            for live in (*live_in, *live_out):
                live.difference_update(spilled)
            liveness = ([(moved(start), moved(end)) for start, end in blocks],
                        live_in, live_out)
        else:
            liveness = _liveness(func, target, footprints)
        self._start(footprints, liveness)

    def write(self, mapping: dict[str, str]) -> None:
        """Write the final code into ``func``: spill code, and every
        register renamed under ``mapping``."""
        func, target = self.func, self.target
        instrs, _, moved = self._written(mapping)
        if self.spills:
            func.labels = _moved_labels(func.labels, moved, len(instrs))
        func.instrs = instrs
        func.used_callee_saved = ()
        if target.callee_saved:
            # Every register the written code names: the physical names
            # of the code before its pending spills, what the vregs and
            # temps became, and the spill code's base register.
            used = {name for footprint in self.footprints
                    for names in footprint for name in names}
            used.update(mapping.values())
            if self.spills:
                _, temp, offset, _, _ = next(iter(self.spills.values()))[0]
                used.update(target.uses(
                    target.spill_store(mapping[temp], offset)))
            func.used_callee_saved = tuple(
                reg for reg in target.callee_saved if reg in used
            )


def _moved_labels(labels: dict[str, int], moved: Callable[[int], int],
                  length: int) -> dict[str, int]:
    return {name: min(moved(pos), length) for name, pos in labels.items()}


def _choose_victim(intervals: list[_Interval], mapping: dict[str, str],
                   failed: _Interval, target: TargetInfo,
                   length: Callable[[_Interval], int]) -> _Interval:
    """Pick what to spill when ``failed`` found no register.

    Spilling the failing interval is pointless when its (possibly
    constrained) candidate registers are all held by *other* long
    intervals at the conflict point — the reload temps would fail the
    same way.  Prefer evicting the longest overlapping unconstrained
    interval that occupies one of the failing interval's candidates.
    ``length`` gives an interval's length in instructions.
    """
    candidates = set(
        target.low8_regs if failed.needs_low8 else target.alloc_order
    )
    failed_length = length(failed)

    def pick(allow_low8: bool) -> tuple[_Interval | None, int]:
        best: _Interval | None = None
        best_length = -1
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
            interval_length = length(interval)
            if interval_length > best_length:
                best, best_length = interval, interval_length
        return best, best_length

    best, best_length = pick(allow_low8=False)
    if best is None or best_length <= failed_length:
        # No unconstrained long victim: evict a longer byte-constrained
        # interval instead (its reload temps are tiny and will fit).
        fallback, fallback_length = pick(allow_low8=True)
        if fallback is not None and (
            fallback_length > failed_length
            or failed.name.startswith("%spill")
        ):
            return fallback
    if best is not None and (
        best_length > failed_length or failed.name.startswith("%spill")
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
            if reg_end.get(reg, _UNUSED) >= interval.start:
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
