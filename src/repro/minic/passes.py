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

from repro.ir.expr import to_signed
from repro.minic.tac import CMP_OPS, Instr, TacFunction, TacProgram

_MASK = 0xFFFFFFFF

_PURE_OPS = ("const", "copy", "bin", "un", "load", "la", "select")


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
    for _ in range(3):
        fold_and_propagate(func)
        if level >= 2:
            local_cse(func)
            strength_reduce(func, aggressive=level >= 3)
        dead_code_elim(func)
        after = _snapshot(func)
        if after == before:
            break
        before = after
    coalesce_copies(func)
    dead_code_elim(func)
    if level >= 2:
        if_convert(func)
        fold_and_propagate(func)
        dead_code_elim(func)
        coalesce_copies(func)
        dead_code_elim(func)
    cleanup_cfg(func)


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
    new_instrs: list[Instr] = []
    for instr in func.instrs:
        addr = instr.addr
        if addr is not None and addr.symbol in promoted:
            vreg = promoted[addr.symbol]
            if instr.op == "load":
                new_instrs.append(
                    Instr(op="copy", line=instr.line, dest=instr.dest, a=vreg)
                )
                continue
            if instr.op == "store":
                new_instrs.append(
                    Instr(op="copy", line=instr.line, dest=vreg, a=instr.a)
                )
                continue
        new_instrs.append(instr)
    func.instrs = new_instrs
    for name in promoted:
        del func.slots[name]


# -- folding / propagation ---------------------------------------------------


def _fold_bin(op: str, a: int, b: int) -> int | None:
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    if op == "+":
        return (a + b) & _MASK
    if op == "-":
        return (a - b) & _MASK
    if op == "*":
        return (a * b) & _MASK
    if op == "/":
        if sb == 0:
            return None
        quotient = abs(sa) // abs(sb)
        return (-quotient if (sa < 0) != (sb < 0) else quotient) & _MASK
    if op == "%":
        if sb == 0:
            return None
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return (sa - quotient * sb) & _MASK
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "<<":
        return 0 if b >= 32 else (a << b) & _MASK
    if op == ">>":
        return (sa >> min(b, 31)) & _MASK
    if op == "u>>":
        return 0 if b >= 32 else (a & _MASK) >> b
    return None


def _fold_cmp(op: str, a: int, b: int) -> bool:
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    return {
        "==": a == b, "!=": a != b,
        "<": sa < sb, "<=": sa <= sb, ">": sa > sb, ">=": sa >= sb,
        "u<": a < b, "u<=": a <= b, "u>": a > b, "u>=": a >= b,
    }[op]


def _block_boundaries(func: TacFunction) -> list[tuple[int, int]]:
    """(start, end) index ranges of basic blocks."""
    leaders = {0}
    for index, instr in enumerate(func.instrs):
        if instr.op == "label":
            leaders.add(index)
        if instr.op in ("jmp", "cbr", "ret") and index + 1 < len(func.instrs):
            leaders.add(index + 1)
    ordered = sorted(leaders)
    return [
        (start, ordered[i + 1] if i + 1 < len(ordered) else len(func.instrs))
        for i, start in enumerate(ordered)
    ]


def fold_and_propagate(func: TacFunction) -> None:
    """Block-local constant folding + copy propagation."""
    for start, end in _block_boundaries(func):
        consts: dict[str, int] = {}
        copies: dict[str, str] = {}
        copied: dict[str, set[str]] = {}  # source -> its keys in copies
        for instr in func.instrs[start:end]:
            if consts or copies:
                mapping: dict[str, object] = {}
                for use in instr.uses():
                    if use in consts:
                        mapping[use] = consts[use]
                    elif use in copies:
                        mapping[use] = copies[use]
                if mapping:
                    instr.replace_uses(mapping)
            if instr.op == "bin" and isinstance(instr.a, int) and isinstance(
                instr.b, int
            ):
                folded = _fold_bin(instr.bin_op, instr.a, instr.b)
                if folded is not None:
                    instr.op = "const"
                    instr.a = folded
                    instr.b = None
                    instr.bin_op = None
            if instr.op == "un" and isinstance(instr.a, int):
                value = -instr.a if instr.bin_op == "neg" else ~instr.a
                instr.op = "const"
                instr.a = value & _MASK
                instr.bin_op = None
            if instr.op == "bin":
                _fold_identities(instr)
            if instr.op == "select" and isinstance(instr.a, int) and isinstance(
                instr.b, int
            ):
                value = instr.tval if _fold_cmp(instr.bin_op, instr.a, instr.b) \
                    else instr.fval
                instr.op = "copy" if isinstance(value, str) else "const"
                instr.a = value
                instr.b = instr.tval = instr.fval = None
                instr.bin_op = None
            dest = instr.dest
            if dest is not None:
                # Forget what ``dest`` held and every copy of it.
                consts.pop(dest, None)
                source = copies.pop(dest, None)
                if source is not None:
                    copied[source].discard(dest)
                for key in copied.pop(dest, ()):
                    del copies[key]
                if instr.op == "const" and isinstance(instr.a, int):
                    consts[dest] = instr.a
                elif instr.op == "copy" and isinstance(instr.a, str):
                    copies[dest] = instr.a
                    copied.setdefault(instr.a, set()).add(dest)
                elif instr.op == "copy" and isinstance(instr.a, int):
                    instr.op = "const"
                    consts[dest] = instr.a


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
    """Block-local common-subexpression elimination for pure ALU ops."""
    for start, end in _block_boundaries(func):
        available: dict[tuple, str] = {}
        for instr in func.instrs[start:end]:
            if instr.dest is None:
                continue
            key = None
            if instr.op == "bin":
                key = ("bin", instr.bin_op, instr.a, instr.b)
            elif instr.op == "un":
                key = ("un", instr.bin_op, instr.a)
            elif instr.op == "la" and instr.addr is not None:
                key = ("la", instr.addr.symbol, instr.addr.base,
                       instr.addr.index, instr.addr.scale, instr.addr.disp)
            if key is not None and key in available:
                source = available[key]
                instr.op = "copy"
                instr.a = source
                instr.b = None
                instr.bin_op = None
                instr.addr = None
            dest = instr.dest
            # Invalidate expressions that used the overwritten register.
            available = {
                k: v
                for k, v in available.items()
                if v != dest and dest not in k
            }
            if key is not None and instr.op in ("bin", "un", "la"):
                available[key] = dest


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
            if shift is not None and shift > 0 and isinstance(instr.a, str):
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
    use_counts: dict[str, int] = {}
    def_counts: dict[str, int] = {}
    for instr in func.instrs:
        for use in instr.uses():
            use_counts[use] = use_counts.get(use, 0) + 1
        if instr.dest is not None:
            def_counts[instr.dest] = def_counts.get(instr.dest, 0) + 1
    dead_positions: set[int] = set()
    for start, end in _block_boundaries(func):
        for copy_pos in range(start, end):
            copy_instr = func.instrs[copy_pos]
            if copy_instr.op != "copy" or not isinstance(copy_instr.a, str):
                continue
            temp = copy_instr.a
            target = copy_instr.dest
            if use_counts.get(temp, 0) != 1 or def_counts.get(temp, 0) != 1:
                continue
            if target == temp:
                continue
            # Find the defining instruction earlier in this block.
            def_pos = None
            for pos in range(copy_pos - 1, start - 1, -1):
                if func.instrs[pos].dest == temp:
                    def_pos = pos
                    break
            if def_pos is None or def_pos in dead_positions or \
                    func.instrs[def_pos].op not in (
                        "const", "copy", "bin", "un", "load", "la", "select",
                        "call",
                    ):
                continue
            # Safety: ``target`` must not be read or written strictly
            # between the def and the copy.  (The defining instruction
            # itself may read ``target`` — its reads happen before the
            # redirected write, as in ``d = 0 - d``.)
            window = func.instrs[def_pos + 1 : copy_pos]
            if any(target in instr.uses() or instr.dest == target
                   for instr in window):
                continue
            if func.instrs[def_pos].dest == target:
                continue
            func.instrs[def_pos].dest = target
            dead_positions.add(copy_pos)
            use_counts[temp] = 0
            def_counts[target] = def_counts.get(target, 0) + 1
    func.instrs = [
        instr for pos, instr in enumerate(func.instrs)
        if pos not in dead_positions
    ]


# -- dead code elimination -----------------------------------------------------------


def dead_code_elim(func: TacFunction) -> None:
    """Remove pure instructions whose results are never used, and then
    those that only fed removed ones, until nothing more dies."""
    instrs = func.instrs
    uses = [instr.uses() for instr in instrs]
    use_counts: dict[str, int] = {}
    for used in uses:
        for name in used:
            use_counts[name] = use_counts.get(name, 0) + 1
    pure_defs: dict[str, list[int]] = {}
    for pos, instr in enumerate(instrs):
        if instr.op in _PURE_OPS and instr.dest is not None:
            pure_defs.setdefault(instr.dest, []).append(pos)
    worklist = [pos for name, positions in pure_defs.items()
                if name not in use_counts for pos in positions]
    dead: set[int] = set()
    while worklist:
        pos = worklist.pop()
        dead.add(pos)
        for name in uses[pos]:
            use_counts[name] -= 1
            if not use_counts[name]:
                worklist.extend(pure_defs.get(name, ()))
    if dead:
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
        result.append(instrs[index])
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
