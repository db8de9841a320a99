"""Bitvector expression IR.

This package implements the symbolic intermediate representation used by
the binary symbolic executor (:mod:`repro.symexec`) and the equivalence
prover (:mod:`repro.solver`).  It plays the role of the Vine IR / FuzzBALL
expression language in the original paper's toolchain.

Expressions are immutable trees of fixed-width bitvector operations.  All
values are canonicalized modulo ``2 ** width``.  Booleans are represented
as 1-bit vectors so that a single evaluator / circuit builder covers the
whole language.

The public surface is:

* node classes (:class:`Const`, :class:`Sym`, :class:`UnOp`,
  :class:`BinOp`, :class:`CmpOp`, :class:`Extract`, :class:`Extend`,
  :class:`Concat`, :class:`Ite`),
* smart constructors in :mod:`repro.ir.build` (``add``, ``sub``, ...) that
  perform light constant folding,
* :func:`repro.ir.simplify.simplify` for deeper algebraic rewriting,
* :func:`repro.ir.evaluate.evaluate` for concrete evaluation under an
  environment of symbol values,
* :func:`repro.ir.traverse.variables` / ``substitute`` for analysis.
"""

from repro.ir.expr import (
    BinOp,
    Binary,
    CmpKind,
    CmpOp,
    Concat,
    Const,
    Expr,
    Extend,
    Extract,
    Ite,
    Sym,
    UnOp,
    Unary,
    mask,
    to_signed,
    to_unsigned,
)
from repro.ir.build import (
    add,
    and_,
    ashr,
    bv,
    concat,
    eq,
    extract,
    ite,
    lshr,
    mul,
    ne,
    neg,
    not_,
    or_,
    sdiv,
    sext,
    sge,
    sgt,
    shl,
    sle,
    slt,
    srem,
    sub,
    sym,
    udiv,
    uge,
    ugt,
    ule,
    ult,
    urem,
    xor,
    zext,
)
from repro.ir.evaluate import evaluate
from repro.ir.simplify import simplify
from repro.ir.traverse import expr_size, substitute, variables

__all__ = [
    "BinOp",
    "Binary",
    "CmpKind",
    "CmpOp",
    "Concat",
    "Const",
    "Expr",
    "Extend",
    "Extract",
    "Ite",
    "Sym",
    "UnOp",
    "Unary",
    "mask",
    "to_signed",
    "to_unsigned",
    "add",
    "and_",
    "ashr",
    "bv",
    "concat",
    "eq",
    "extract",
    "ite",
    "lshr",
    "mul",
    "ne",
    "neg",
    "not_",
    "or_",
    "sdiv",
    "sext",
    "sge",
    "sgt",
    "shl",
    "sle",
    "slt",
    "srem",
    "sub",
    "sym",
    "udiv",
    "uge",
    "ugt",
    "ule",
    "ult",
    "urem",
    "xor",
    "zext",
    "evaluate",
    "simplify",
    "expr_size",
    "substitute",
    "variables",
]
