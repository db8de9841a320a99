"""Algebraic simplification of IR expressions.

The smart constructors already fold constants; this pass adds the
rewrites that matter for proving cross-ISA equivalences *syntactically*
(so the BDD engine is only needed for genuinely hard cases):

* flattening + re-association of ADD/SUB chains into a canonical
  ``sum(terms) + constant`` form with multiplicity counting,
* commutative-operand ordering for ADD/MUL/AND/OR/XOR,
* ``x - y`` -> ``x + (-1)*y`` normal form inside sums,
* shift-by-constant -> multiply-by-power-of-two canonicalization inside
  sums (so ARM's ``lsl #2`` matches x86's ``*4`` scaling),
* AND-mask / extract-extend interplay (``zext(extract(x, 7, 0))`` ==
  ``x & 0xff``) so ``movzbl`` matches ``and #255``.
"""

from __future__ import annotations

from collections import Counter

from repro.ir import build
from repro.ir.expr import (
    BinOp,
    Binary,
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
    to_unsigned,
)


def simplify(expr: Expr) -> Expr:
    """Return a canonical, simplified form of ``expr``."""
    cache: dict[int, Expr] = {}
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in cache:
            continue
        if isinstance(node, (Const, Sym)):
            cache[id(node)] = node
            continue
        children = _children(node)
        if not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in children)
            continue
        simplified = [cache[id(child)] for child in children]
        cache[id(node)] = _simplify_node(node, simplified)
    return cache[id(expr)]


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, UnOp):
        return (node.a,)
    if isinstance(node, (BinOp, CmpOp, Concat)):
        return (node.a, node.b)
    if isinstance(node, (Extract, Extend)):
        return (node.a,)
    if isinstance(node, Ite):
        return (node.cond, node.then, node.other)
    raise AssertionError(f"unhandled node {type(node).__name__}")


def _simplify_node(node: Expr, kids: list[Expr]) -> Expr:
    if isinstance(node, UnOp):
        (a,) = kids
        if node.op is Unary.NEG:
            # -x == 0 - x; fold into sum canonicalization.
            return _canon_sum(build.sub(Const(node.width, 0), a))
        return build.not_(a)
    if isinstance(node, BinOp):
        a, b = kids
        if node.op in (Binary.ADD, Binary.SUB):
            return _canon_sum(BinOp(node.width, node.op, a, b))
        if node.op is Binary.SHL and isinstance(b, Const) and b.value < node.width:
            # x << k  ->  x * 2**k, re-canonicalized (may merge into sums).
            power = Const(node.width, 1 << b.value)
            return _canon_mul(build.mul(a, power))
        if node.op is Binary.MUL:
            return _canon_mul(build.mul(a, b))
        if node.op in (Binary.AND, Binary.OR, Binary.XOR):
            return _canon_bitwise(node.op, a, b, node.width)
        return build._binop(node.op, a, b)
    if isinstance(node, CmpOp):
        a, b = kids
        return _canon_cmp(node, a, b)
    if isinstance(node, Extract):
        return build.extract(node.hi, node.lo, kids[0])
    if isinstance(node, Extend):
        (a,) = kids
        if not node.signed and isinstance(a, Extract) and a.lo == 0:
            # zext(x[k:0]) == x & mask  when widths line up with the source.
            if a.a.width == node.width:
                return _canon_bitwise(
                    Binary.AND, a.a, Const(node.width, mask(a.width)), node.width
                )
        builder = build.sext if node.signed else build.zext
        return builder(node.width, a)
    if isinstance(node, Concat):
        return build.concat(kids[0], kids[1])
    if isinstance(node, Ite):
        return build.ite(kids[0], kids[1], kids[2])
    raise AssertionError(f"unhandled node {type(node).__name__}")


# --- sum canonicalization -------------------------------------------------


def _sum_terms(expr: Expr, sign: int, terms: Counter, width: int) -> int:
    """Accumulate ``sign * expr`` into ``terms``; return constant part."""
    if isinstance(expr, Const):
        return sign * expr.value
    if isinstance(expr, BinOp) and expr.op is Binary.ADD:
        return _sum_terms(expr.a, sign, terms, width) + _sum_terms(
            expr.b, sign, terms, width
        )
    if isinstance(expr, BinOp) and expr.op is Binary.SUB:
        return _sum_terms(expr.a, sign, terms, width) + _sum_terms(
            expr.b, -sign, terms, width
        )
    if isinstance(expr, UnOp) and expr.op is Unary.NEG:
        return _sum_terms(expr.a, -sign, terms, width)
    if (
        isinstance(expr, BinOp)
        and expr.op is Binary.MUL
        and isinstance(expr.b, Const)
    ):
        terms[expr.a] += sign * expr.b.value
        return 0
    if isinstance(expr, BinOp) and expr.op is Binary.SHL and isinstance(
        expr.b, Const
    ) and expr.b.value < width:
        terms[expr.a] += sign * (1 << expr.b.value)
        return 0
    terms[expr] += sign
    return 0


def _term_key(term: Expr) -> str:
    return str(term)


def _canon_sum(expr: Expr) -> Expr:
    """Canonicalize a +/- chain as ``(pos_terms + const) - neg_terms``.

    Multiplicities are kept signed so that ``x - y`` never degenerates
    into ``x + y * 0xffffffff`` (which would force a full multiplier in
    the bit-level engines).
    """
    width = expr.width
    terms: Counter = Counter()
    constant = _sum_terms(expr, 1, terms, width)
    constant = to_unsigned(constant, width)
    positives: list[tuple[str, Expr]] = []
    negatives: list[tuple[str, Expr]] = []
    for term, count in terms.items():
        signed_count = to_unsigned(count, width)
        if signed_count == 0:
            continue
        signed_count = Const(width, signed_count).signed
        bucket = positives if signed_count > 0 else negatives
        magnitude = abs(signed_count)
        part = term if magnitude == 1 else build.mul(term, Const(width, magnitude))
        bucket.append((_term_key(term), part))
    positives.sort(key=lambda pair: pair[0])
    negatives.sort(key=lambda pair: pair[0])
    result: Expr | None = None
    for _, part in positives:
        result = part if result is None else BinOp(width, Binary.ADD, result, part)
    if result is None and not negatives:
        return Const(width, constant)
    if result is None:
        result = Const(width, constant)
        constant = 0
    if constant:
        result = BinOp(width, Binary.ADD, result, Const(width, constant))
    for _, part in negatives:
        result = BinOp(width, Binary.SUB, result, part)
    return result


def _canon_mul(expr: Expr) -> Expr:
    if not isinstance(expr, BinOp) or expr.op is not Binary.MUL:
        return expr
    a, b = expr.a, expr.b
    # Constants on the right; order symbolic operands deterministically.
    if isinstance(a, Const) and not isinstance(b, Const):
        a, b = b, a
    if not isinstance(b, Const) and _term_key(b) < _term_key(a):
        a, b = b, a
    # (x * c1) * c2 -> x * (c1*c2)
    if (
        isinstance(b, Const)
        and isinstance(a, BinOp)
        and a.op is Binary.MUL
        and isinstance(a.b, Const)
    ):
        return build.mul(a.a, Const(expr.width, a.b.value * b.value))
    return build.mul(a, b)


def _canon_bitwise(op: Binary, a: Expr, b: Expr, width: int) -> Expr:
    if isinstance(a, Const) and not isinstance(b, Const):
        a, b = b, a
    if not isinstance(b, Const) and _term_key(b) < _term_key(a):
        a, b = b, a
    if a == b:
        if op in (Binary.AND, Binary.OR):
            return a
        return Const(width, 0)  # x xor x
    # (x op c1) op c2 -> x op (c1 op c2) for the same associative op.
    if (
        isinstance(b, Const)
        and isinstance(a, BinOp)
        and a.op is op
        and isinstance(a.b, Const)
    ):
        folded = build._binop(op, a.b, b)
        return build._binop(op, a.a, folded)
    # zext(extract(x,k,0)) & mask patterns: AND with a low mask of an AND
    # with the same mask collapses.
    if (
        op is Binary.AND
        and isinstance(b, Const)
        and isinstance(a, BinOp)
        and a.op is Binary.AND
        and isinstance(a.b, Const)
        and (a.b.value & b.value) == b.value
    ):
        return build.and_(a.a, b)
    return build._binop(op, a, b)


def _canon_cmp(node: CmpOp, a: Expr, b: Expr) -> Expr:
    # Normalize (a - b) cmp 0 into a cmp b for EQ/NE, which is how ARM's
    # cmp-driven Z flag usually meets x86's.
    from repro.ir.expr import CmpKind

    if (
        isinstance(b, Const)
        and b.value == 0
        and node.kind in (CmpKind.EQ, CmpKind.NE)
        and isinstance(a, BinOp)
        and a.op is Binary.SUB
    ):
        return build._cmp(node.kind, a.a, a.b)
    # (x + c) ==/!= 0  ->  x ==/!= -c  (canonical sums put SUB this way).
    if (
        isinstance(b, Const)
        and b.value == 0
        and node.kind in (CmpKind.EQ, CmpKind.NE)
        and isinstance(a, BinOp)
        and a.op is Binary.ADD
        and isinstance(a.b, Const)
    ):
        return build._cmp(node.kind, a.a, Const(a.width, -a.b.value))
    if node.kind in (CmpKind.EQ, CmpKind.NE) and _term_key(b) < _term_key(a):
        a, b = b, a
    return build._cmp(node.kind, a, b)
