"""HQEMU-style LLVM-JIT backend model.

Translates TCG ops through an optimizing middle-end (copy propagation,
redundant guest-register load elimination, dead store/temp elimination)
before the normal lowering.  This produces better host code than plain
TCG — but the optimizer is charged a large modeled translation cost,
reproducing the paper's observation that LLVM JIT loses on short
workloads and barely breaks even on long ones (Figures 8/9).

Like the real HQEMU backend, it cannot remove the guest register file
from memory (values still cross block boundaries through the env) and
it has no cross-block scope, which caps its steady-state advantage.
"""

from __future__ import annotations

from repro.dbt.tcg import TcgOp


def optimize_tcg(ops: list[TcgOp]) -> list[TcgOp]:
    """The -O2-ish TCG-level pipeline."""
    ops = _copy_propagate(ops)
    ops = _eliminate_redundant_reg_loads(ops)
    ops = _dead_code(ops)
    return ops


def _copy_propagate(ops: list[TcgOp]) -> list[TcgOp]:
    """Forward-propagate mov/movi temps (straight-line: blocks only)."""
    values: dict[str, str | int] = {}
    result: list[TcgOp] = []
    for op in ops:
        def subst(value):
            seen = set()
            while isinstance(value, str) and value in values and \
                    value not in seen:
                seen.add(value)
                value = values[value]
            return value

        new_a = subst(op.a)
        new_b = subst(op.b)
        new_c = subst(op.c)
        if new_a is not op.a or new_b is not op.b or new_c is not op.c:
            from dataclasses import replace

            op = replace(op, a=new_a, b=new_b, c=new_c)
        if op.out is not None:
            values.pop(op.out, None)
            stale = [k for k, v in values.items() if v == op.out]
            for key in stale:
                del values[key]
            if op.op == "mov":
                values[op.out] = op.a
            elif op.op == "movi":
                values[op.out] = op.a
        result.append(op)
    return result


def _eliminate_redundant_reg_loads(ops: list[TcgOp]) -> list[TcgOp]:
    """Fuse repeated ld_reg of the same guest register into movs (which
    copy propagation then removes)."""
    current: dict[str, str] = {}
    result: list[TcgOp] = []
    for op in ops:
        if op.op == "ld_reg":
            known = current.get(op.reg)
            if known is not None:
                result.append(TcgOp("mov", out=op.out, a=known))
                continue
            current[op.reg] = op.out
            result.append(op)
            continue
        if op.op == "st_reg" and isinstance(op.a, str):
            current[op.reg] = op.a
        elif op.op == "st_reg":
            current.pop(op.reg, None)
        if op.out is not None:
            for reg, temp in list(current.items()):
                if temp == op.out:
                    del current[reg]
        result.append(op)
    return _copy_propagate(result)


_SIDE_EFFECTS = ("st_reg", "st_flag", "qemu_st", "brcond", "goto_tb",
                 "exit_indirect", "qemu_ld", "cmp_flags")


def _dead_code(ops: list[TcgOp]) -> list[TcgOp]:
    """Drop pure ops with unused results and overwritten env stores."""
    # Dead env stores: a st_reg/st_flag overwritten later in the block
    # with no intervening read or block exit.
    live_ops: list[TcgOp] = []
    last_store: dict[tuple[str, str], int] = {}
    killed: set[int] = set()
    for index, op in enumerate(ops):
        if op.op in ("st_reg", "st_flag"):
            key = (op.op, op.reg or op.flag)
            previous = last_store.get(key)
            if previous is not None:
                killed.add(previous)
            last_store[key] = index
        elif op.op in ("ld_reg", "ld_flag"):
            last_store.pop(("st_reg" if op.op == "ld_reg" else "st_flag",
                            op.reg or op.flag), None)
    live_ops = [op for i, op in enumerate(ops) if i not in killed]

    # Dead temps.
    while True:
        used: set[str] = set()
        for op in live_ops:
            used.update(op.temps_used())
        kept = []
        dropped = False
        for op in live_ops:
            if op.op not in _SIDE_EFFECTS and op.out is not None and \
                    op.out not in used:
                dropped = True
                continue
            kept.append(op)
        live_ops = kept
        if not dropped:
            return live_ops
