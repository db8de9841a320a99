"""TAC optimization passes.

Pass schedule per optimization level (mirroring how real compilers
change code shape across ``-O`` levels, which drives the paper's
Figure 6 sensitivity study and Figure 7 example):

* ``-O0``: nothing — locals stay in memory, every access loads/stores.
* ``-O1``: mem2reg, constant folding, copy propagation, DCE, CFG
  cleanup.
* ``-O2``: -O1 + local CSE, strength reduction (multiply/divide by
  powers of two), if-conversion to selects (→ predicated ARM /
  x86 cmov).
* ``-O3``: -O2 + constant re-association and shift-add decomposition of
  small constant multiplies.
"""

from __future__ import annotations

from dataclasses import replace

from repro.minic.interp import TacRuntimeError, binop, compare
from repro.minic.tac import Instr, TacFunction, TacProgram

_MASK = 0xFFFFFFFF

_PURE_OPS = frozenset(("const", "copy", "bin", "un", "load", "la",
                       "select"))
#: Ops after which a new basic block starts.
_BLOCK_ENDS = frozenset(("jmp", "cbr", "ret"))
#: Ops at which a basic block starts or ends.
_BLOCK_BOUNDS = _BLOCK_ENDS | {"label"}
#: Ops whose result ``coalesce_copies`` may redirect.
_COALESCIBLE = frozenset(("const", "copy", "bin", "un", "load", "la",
                          "select", "call"))


def optimize_program(program: TacProgram, level: int) -> None:
    """Run the pass schedule for ``-O<level>`` over every function."""
    for func in program.functions.values():
        optimize_function(func, level)


def optimize_function(func: TacFunction, level: int) -> None:
    if level <= 0:
        cleanup_cfg(func)
        return
    mem2reg(func)
    # At most three rounds; each is a deterministic function of the
    # snapshot, so a round that changes nothing ends the loop early.
    before = _snapshot(func)
    for round_ in range(3):
        fold_and_propagate(func)
        if level >= 2:
            local_cse(func)
            strength_reduce(func, aggressive=level >= 3)
        # A later round starts from code ``dead_code_elim`` left: if the
        # round has changed nothing so far, that pass would not either.
        if round_ and _snapshot(func) == before:
            break
        dead_code_elim(func)
        after = _snapshot(func)
        if after == before:
            break
        before = after
    _coalesce_then_dce(func)
    if level >= 2:
        if_convert(func)
        fold_and_propagate(func)
        dead_code_elim(func)
        _coalesce_then_dce(func)
    cleanup_cfg(func)


def _coalesce_then_dce(func: TacFunction) -> None:
    """``coalesce_copies`` then ``dead_code_elim``, which runs only if a
    copy was coalesced: every coalesced copy is deleted, and the code
    coalescing starts from has just been through ``dead_code_elim``."""
    count = len(func.instrs)
    coalesce_copies(func)
    if len(func.instrs) != count:
        dead_code_elim(func)


def _snapshot(func: TacFunction) -> tuple:
    """The state the optimize rounds read and change: every field of
    every instruction, and the counters."""
    return func.temp_counter, func.label_counter, [
        (instr.op, instr.line, instr.dest, instr.bin_op, instr.a, instr.b,
         instr.addr, instr.size, instr.name, instr.args, instr.label,
         instr.label2, instr.tval, instr.fval)
        for instr in func.instrs
    ]


# -- mem2reg ---------------------------------------------------------------


def mem2reg(func: TacFunction) -> None:
    """Promote non-addressed scalar stack slots to virtual registers."""
    escaping: set[str] = set()
    for instr in func.instrs:
        addr = instr.addr
        if addr is None or addr.symbol is None:
            continue
        slot = func.slots.get(addr.symbol)
        if slot is None:
            continue
        plain = addr.base is None and addr.index is None and addr.disp == 0
        if instr.op == "la" or slot.is_array or not plain:
            escaping.add(addr.symbol)
    promoted = {
        name: f"%v_{name.replace('.', '_')}"
        for name in func.slots
        if name not in escaping and not func.slots[name].is_array
    }
    if not promoted:
        return
    # Each load or store of a promoted slot becomes a copy in place: the
    # fields a copy does not use are back at their defaults.
    for instr in func.instrs:
        addr = instr.addr
        if addr is not None and addr.symbol in promoted:
            if instr.op == "load":
                instr.a = promoted[addr.symbol]
            elif instr.op == "store":
                instr.dest = promoted[addr.symbol]
            else:
                continue
            instr.op = "copy"
            instr.addr = None
            instr.size = 4
    for name in promoted:
        del func.slots[name]


# -- folding / propagation ---------------------------------------------------


def fold_and_propagate(func: TacFunction) -> None:
    """Block-local constant folding + copy propagation.

    One walk over the function; the maps reset where a block starts (a
    label) or ends (a jump, branch or return).
    """
    consts: dict[str, int] = {}
    copies: dict[str, str] = {}
    copied: dict[str, set[str]] = {}  # source -> its keys in copies
    for instr in func.instrs:
        op = instr.op
        if op == "label":
            if consts or copies:
                consts, copies, copied = {}, {}, {}
            continue
        if consts or copies:
            mapping: dict[str, object] | None = None
            for use in instr.uses():
                value = consts.get(use)
                if value is None:
                    value = copies.get(use)
                    if value is None:
                        continue
                if mapping is None:
                    mapping = {}
                mapping[use] = value
            if mapping:
                instr.replace_uses(mapping)
        if op in _BLOCK_ENDS:
            if consts or copies:
                consts, copies, copied = {}, {}, {}
            continue
        if op == "bin":
            a = instr.a
            b = instr.b
            if isinstance(a, int) and isinstance(b, int):
                try:
                    folded = binop(instr.bin_op, a, b)
                except TacRuntimeError:
                    pass  # division by zero: left for run time
                else:
                    instr.op = op = "const"
                    instr.a = folded
                    instr.b = None
                    instr.bin_op = None
            if op == "bin":
                _fold_identities(instr)
                op = instr.op
        elif op == "un" and isinstance(instr.a, int):
            value = -instr.a if instr.bin_op == "neg" else ~instr.a
            instr.op = op = "const"
            instr.a = value & _MASK
            instr.bin_op = None
        elif op == "select" and isinstance(instr.a, int) and isinstance(
            instr.b, int
        ):
            value = instr.tval if compare(instr.bin_op, instr.a, instr.b) \
                else instr.fval
            instr.op = op = "copy" if isinstance(value, str) else "const"
            instr.a = value
            instr.b = instr.tval = instr.fval = None
            instr.bin_op = None
        dest = instr.dest
        if dest is not None:
            # Forget what ``dest`` held and every copy of it.
            if consts:
                consts.pop(dest, None)
            if copies:
                source = copies.pop(dest, None)
                if source is not None:
                    copied[source].discard(dest)
                for key in copied.pop(dest, ()):
                    del copies[key]
            if op == "const" and isinstance(instr.a, int):
                consts[dest] = instr.a
            elif op == "copy":
                a = instr.a
                if isinstance(a, str):
                    copies[dest] = a
                    copied.setdefault(a, set()).add(dest)
                elif isinstance(a, int):
                    instr.op = "const"
                    consts[dest] = a


def _fold_identities(instr: Instr) -> None:
    """x+0, x*1, x*0, x-0, x&x ... algebraic identities."""
    op, a, b = instr.bin_op, instr.a, instr.b
    if isinstance(b, int):
        if b == 0 and op in ("+", "-", "|", "^", "<<", ">>", "u>>"):
            _to_copy(instr, a)
            return
        if b == 1 and op in ("*", "/"):
            _to_copy(instr, a)
            return
        if b == 0 and op in ("*", "&"):
            _to_const(instr, 0)
            return
    if isinstance(a, int):
        if a == 0 and op in ("+", "|", "^"):
            _to_copy(instr, b)
            return
        if a == 0 and op in ("*", "&", "<<", ">>", "u>>"):
            _to_const(instr, 0)
            return
        # Canonicalize constant to the right for commutative ops.
        if op in ("+", "*", "&", "|", "^") and not isinstance(b, int):
            instr.a, instr.b = b, a


def _to_copy(instr: Instr, value) -> None:
    instr.op = "copy" if isinstance(value, str) else "const"
    instr.a = value
    instr.b = None
    instr.bin_op = None


def _to_const(instr: Instr, value: int) -> None:
    instr.op = "const"
    instr.a = value & _MASK
    instr.b = None
    instr.bin_op = None


# -- CSE ------------------------------------------------------------------------


def local_cse(func: TacFunction) -> None:
    """Block-local common-subexpression elimination for pure ALU ops.

    One walk over the function, resetting at block boundaries.  Writing
    a register kills every expression that reads it or is held in it;
    ``mentions`` finds those without scanning ``available``.
    """
    available: dict[tuple, str] = {}
    # register -> keys that named it (as operand or holder) when added;
    # an entry may be stale, so each is rechecked before it is dropped.
    mentions: dict[str, list[tuple]] = {}
    for instr in func.instrs:
        dest = instr.dest
        if dest is None:
            if available and instr.op in _BLOCK_BOUNDS:
                available = {}
                mentions = {}
            continue
        op = instr.op
        key = None
        if op == "bin":
            key = ("bin", instr.bin_op, instr.a, instr.b)
        elif op == "un":
            key = ("un", instr.bin_op, instr.a)
        elif op == "la" and instr.addr is not None:
            addr = instr.addr
            key = ("la", addr.symbol, addr.base, addr.index, addr.scale,
                   addr.disp)
        if key is not None and key in available:
            instr.op = "copy"
            instr.a = available[key]
            instr.b = None
            instr.bin_op = None
            instr.addr = None
            key = None  # a copy makes no new expression available
        if available:
            # Invalidate expressions that used the overwritten register.
            # Registers start with ``%``, so ``dest`` can only match a
            # key's register fields.
            for stale in mentions.pop(dest, ()):
                if stale in available and (
                        available[stale] == dest or dest in stale):
                    del available[stale]
        if key is not None:
            available[key] = dest
            mentions.setdefault(dest, []).append(key)
            for value in key[2:4]:
                if isinstance(value, str) and value != dest:
                    mentions.setdefault(value, []).append(key)


# -- strength reduction ------------------------------------------------------------


def _log2(value: int) -> int | None:
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def strength_reduce(func: TacFunction, aggressive: bool = False) -> None:
    """mul/div by powers of two -> shifts; O3 adds shift-add decomposition."""
    new_instrs: list[Instr] = []
    for instr in func.instrs:
        if instr.op == "bin" and instr.bin_op == "*" and isinstance(instr.b, int):
            shift = _log2(instr.b)
            if shift is not None:
                new_instrs.append(replace(instr, bin_op="<<", b=shift))
                continue
            if aggressive and instr.b > 2 and bin(instr.b).count("1") == 2 and \
                    isinstance(instr.a, str):
                # x * c with two set bits -> (x << hi) + (x << lo)
                high = instr.b.bit_length() - 1
                low = (instr.b & -instr.b).bit_length() - 1
                t_high = func.new_temp()
                t_low = func.new_temp()
                new_instrs.append(Instr(op="bin", line=instr.line, dest=t_high,
                                        bin_op="<<", a=instr.a, b=high))
                if low:
                    new_instrs.append(Instr(op="bin", line=instr.line,
                                            dest=t_low, bin_op="<<",
                                            a=instr.a, b=low))
                else:
                    t_low = instr.a
                new_instrs.append(replace(instr, bin_op="+", a=t_high, b=t_low))
                continue
        if instr.op == "bin" and instr.bin_op == "/" and isinstance(instr.b, int):
            shift = _log2(instr.b)
            # 2**31 is INT_MIN to a signed division, not a power of two.
            if shift is not None and 0 < shift <= 30 and \
                    isinstance(instr.a, str):
                # Signed division by 2**k with rounding toward zero:
                #   bias = (x >> 31) u>> (32 - k);  (x + bias) >> k
                sign = func.new_temp()
                bias = func.new_temp()
                biased = func.new_temp()
                new_instrs.append(Instr(op="bin", line=instr.line, dest=sign,
                                        bin_op=">>", a=instr.a, b=31))
                new_instrs.append(Instr(op="bin", line=instr.line, dest=bias,
                                        bin_op="u>>", a=sign, b=32 - shift))
                new_instrs.append(Instr(op="bin", line=instr.line, dest=biased,
                                        bin_op="+", a=instr.a, b=bias))
                new_instrs.append(replace(instr, bin_op=">>", a=biased, b=shift))
                continue
        new_instrs.append(instr)
    func.instrs = new_instrs


# -- copy coalescing ------------------------------------------------------------------


def coalesce_copies(func: TacFunction) -> None:
    """Fold ``t = <expr>; ...; x = t`` into ``x = <expr>`` when ``t`` is
    only used by that copy and ``x`` is untouched in between.

    This removes the temp-then-copy chains lowering produces for every
    assignment, matching the tighter code real compilers emit.
    """
    instrs = func.instrs
    uses = [instr.uses() for instr in instrs]  # coalescing keeps them
    use_counts: dict[str, int] = {}
    def_counts: dict[str, int] = {}
    for instr, used in zip(instrs, uses):
        for use in used:
            use_counts[use] = use_counts.get(use, 0) + 1
        if instr.dest is not None:
            def_counts[instr.dest] = def_counts.get(instr.dest, 0) + 1
    dead_positions: set[int] = set()
    # One walk; both maps reset at block boundaries.  A coalesced temp
    # is used nowhere else and a copy's target is defined at least twice
    # afterwards, so neither is looked up again: the maps need no update
    # when a definition is redirected.
    last_def: dict[str, int] = {}  # register -> position of its last def
    last_touch: dict[str, int] = {}  # register -> last read or write
    for copy_pos, instr in enumerate(instrs):
        op = instr.op
        if op == "label":
            if last_touch:
                last_def, last_touch = {}, {}
            continue
        temp = instr.a
        target = instr.dest
        if op == "copy" and isinstance(temp, str) and temp != target and \
                use_counts.get(temp, 0) == 1 and def_counts.get(temp, 0) == 1:
            def_pos = last_def.get(temp)
            # Safety: ``target`` must not be read or written strictly
            # between the def and the copy.  (The defining instruction
            # itself may read ``target`` — its reads happen before the
            # redirected write, as in ``d = 0 - d``.)
            if def_pos is not None and instrs[def_pos].op in _COALESCIBLE and \
                    last_touch.get(target, -1) <= def_pos:
                instrs[def_pos].dest = target
                dead_positions.add(copy_pos)
                use_counts[temp] = 0
                def_counts[target] = def_counts.get(target, 0) + 1
        if op in _BLOCK_ENDS:
            if last_touch:
                last_def, last_touch = {}, {}
            continue
        for use in uses[copy_pos]:
            last_touch[use] = copy_pos
        if target is not None:
            last_def[target] = copy_pos
            last_touch[target] = copy_pos
    if dead_positions:
        func.instrs = [
            instr for pos, instr in enumerate(instrs)
            if pos not in dead_positions
        ]


# -- dead code elimination -----------------------------------------------------------


def dead_code_elim(func: TacFunction) -> None:
    """Remove pure instructions whose results are never used, and then
    those that only fed removed ones, until nothing more dies."""
    instrs = func.instrs
    use_counts: dict[str, int] = {}
    pure_defs: dict[str, list[int]] = {}
    for pos, instr in enumerate(instrs):
        for name in instr.uses():
            use_counts[name] = use_counts.get(name, 0) + 1
        if instr.op in _PURE_OPS and instr.dest is not None:
            pure_defs.setdefault(instr.dest, []).append(pos)
    worklist = [pos for name, positions in pure_defs.items()
                if name not in use_counts for pos in positions]
    if not worklist:
        return
    dead: set[int] = set()
    while worklist:
        pos = worklist.pop()
        dead.add(pos)
        for name in instrs[pos].uses():
            use_counts[name] -= 1
            if not use_counts[name]:
                worklist.extend(pure_defs.get(name, ()))
    func.instrs = [instr for pos, instr in enumerate(instrs)
                   if pos not in dead]


# -- if-conversion --------------------------------------------------------------------


def if_convert(func: TacFunction) -> None:
    """Turn small if-shapes into selects (drives predicated ARM code
    and x86 cmov at -O2, the paper's "PI" preparation-failure class).

    Two shapes are recognized:

    * the diamond ``cbr c Lt Lf; Lt: v=x; jmp Le; Lf: v=y; Le:``
      becomes ``v = select(c, x, y)``;
    * the one-sided ``cbr c Lt Le; Lt: v=<pure op>; Le:`` becomes a
      speculated compute into a fresh temp plus ``v = select(c, t, v)``
      (safe: the op is pure and writes only the temp).
    """
    refcounts: dict[str, int] = {}
    for instr in func.instrs:
        if instr.op == "jmp":
            refcounts[instr.label] = refcounts.get(instr.label, 0) + 1
        elif instr.op == "cbr":
            refcounts[instr.label] = refcounts.get(instr.label, 0) + 1
            refcounts[instr.label2] = refcounts.get(instr.label2, 0) + 1

    instrs = func.instrs
    index = 0
    result: list[Instr] = []
    while index < len(instrs):
        instr = instrs[index]
        if instr.op == "cbr":  # both shapes start with a branch
            converted = _match_diamond(instrs[index : index + 7], refcounts)
            if converted is not None:
                result.extend(converted)
                index += 7
                continue
            speculated = _match_one_sided(func, instrs[index : index + 4],
                                          refcounts)
            if speculated is not None:
                result.extend(speculated)
                index += 4
                continue
        result.append(instr)
        index += 1
    func.instrs = result


def _match_diamond(window: list[Instr],
                   refcounts: dict[str, int]) -> list[Instr] | None:
    if len(window) < 7:
        return None
    cbr, lt, assign_t, jmp, lf, assign_f, le = window
    if cbr.op != "cbr" or lt.op != "label" or jmp.op != "jmp" or \
            lf.op != "label" or le.op != "label":
        return None
    if assign_t.op not in ("const", "copy") or assign_f.op not in (
        "const", "copy"
    ):
        return None
    if assign_t.dest != assign_f.dest:
        return None
    if cbr.label != lt.label or cbr.label2 != lf.label or jmp.label != le.label:
        return None
    # The arm labels must have no other users (a jump into an arm would
    # skip the select); the join label is preserved for other users.
    if refcounts.get(lt.label, 0) != 1 or refcounts.get(lf.label, 0) != 1:
        return None
    select = Instr(
        op="select", line=cbr.line, dest=assign_t.dest, bin_op=cbr.bin_op,
        a=cbr.a, b=cbr.b, tval=assign_t.a, fval=assign_f.a,
    )
    return [select, le]


def _match_one_sided(func: TacFunction, window: list[Instr],
                     refcounts: dict[str, int]) -> list[Instr] | None:
    if len(window) < 4:
        return None
    cbr, lt, assign, le = window
    if cbr.op != "cbr" or lt.op != "label" or le.op != "label":
        return None
    if cbr.label != lt.label or cbr.label2 != le.label:
        return None
    if refcounts.get(lt.label, 0) != 1:
        return None
    if assign.op not in ("const", "copy", "bin", "un") or assign.dest is None:
        return None
    dest = assign.dest
    if assign.op in ("const", "copy"):
        return [
            Instr(
                op="select", line=cbr.line, dest=dest, bin_op=cbr.bin_op,
                a=cbr.a, b=cbr.b, tval=assign.a, fval=dest,
            ),
            le,
        ]
    # Speculate the pure op into a fresh temp, then select.
    temp = func.new_temp()
    speculated = replace(assign, dest=temp)
    select = Instr(
        op="select", line=cbr.line, dest=dest, bin_op=cbr.bin_op,
        a=cbr.a, b=cbr.b, tval=temp, fval=dest,
    )
    return [speculated, select, le]


# -- CFG cleanup -----------------------------------------------------------------------


def cleanup_cfg(func: TacFunction) -> None:
    """Drop jumps to the next instruction, unreachable code, and unused
    labels; thread jump chains."""
    _thread_jumps(func)
    _drop_unreachable(func)
    _drop_trivial_jumps(func)
    _drop_unused_labels(func)


def _label_targets(func: TacFunction) -> dict[str, int]:
    return {
        instr.label: index
        for index, instr in enumerate(func.instrs)
        if instr.op == "label"
    }


def _thread_jumps(func: TacFunction) -> None:
    labels = _label_targets(func)

    def resolve(label: str) -> str:
        seen = set()
        while label not in seen:
            seen.add(label)
            index = labels.get(label)
            if index is None:
                return label
            cursor = index + 1
            while cursor < len(func.instrs) and func.instrs[cursor].op == "label":
                cursor += 1
            if cursor < len(func.instrs) and func.instrs[cursor].op == "jmp":
                label = func.instrs[cursor].label
                continue
            return label
        return label

    for instr in func.instrs:
        if instr.op == "jmp":
            instr.label = resolve(instr.label)
        elif instr.op == "cbr":
            instr.label = resolve(instr.label)
            instr.label2 = resolve(instr.label2)


def _drop_unreachable(func: TacFunction) -> None:
    labels = _label_targets(func)
    reachable: set[int] = set()
    worklist = [0]
    while worklist:
        index = worklist.pop()
        while index < len(func.instrs) and index not in reachable:
            reachable.add(index)
            instr = func.instrs[index]
            if instr.op == "jmp":
                worklist.append(labels[instr.label])
                break
            if instr.op == "cbr":
                worklist.append(labels[instr.label])
                worklist.append(labels[instr.label2])
                break
            if instr.op == "ret":
                break
            index += 1
    func.instrs = [
        instr for index, instr in enumerate(func.instrs) if index in reachable
    ]


def _drop_trivial_jumps(func: TacFunction) -> None:
    result: list[Instr] = []
    for index, instr in enumerate(func.instrs):
        if instr.op == "jmp":
            cursor = index + 1
            while cursor < len(func.instrs) and func.instrs[cursor].op == "label":
                if func.instrs[cursor].label == instr.label:
                    break
                cursor += 1
            else:
                result.append(instr)
                continue
            if cursor < len(func.instrs) and \
                    func.instrs[cursor].op == "label" and \
                    func.instrs[cursor].label == instr.label:
                continue  # jump to fall-through target
            result.append(instr)
            continue
        result.append(instr)
    func.instrs = result


def _drop_unused_labels(func: TacFunction) -> None:
    used: set[str] = set()
    for instr in func.instrs:
        if instr.op == "jmp":
            used.add(instr.label)
        elif instr.op == "cbr":
            used.add(instr.label)
            used.add(instr.label2)
    func.instrs = [
        instr
        for instr in func.instrs
        if instr.op != "label" or instr.label in used
    ]
