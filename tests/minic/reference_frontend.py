"""The MiniC front end as it stood before its fast rewrite, kept as a
differential oracle (``test_frontend_oracle.py``).

Each function here is the earlier body of a lexer, parser, ``Instr``
method or optimization pass that was rewritten for speed; the fast
version must produce the same tokens, the same AST and pickle-identical
TAC.  Two mends made since are applied here too, so the oracle holds on
every input: postfix ``++``/``--`` is marked ``postfix`` (lowering values
it as the old value), and ``strength_reduce`` (shared, not copied)
leaves division by ``2**31`` alone.  What was not rewritten
(``strength_reduce``, ``cleanup_cfg``, ``_snapshot`` and the pattern
helpers) is imported from ``repro.minic.passes``.
"""

from __future__ import annotations

import re
from dataclasses import replace

from repro.minic import ast
from repro.minic.errors import ParseError
from repro.minic.interp import TacRuntimeError, binop, compare
from repro.minic.lexer import KEYWORDS, Token, _char_value
from repro.minic.passes import (
    _MASK,
    _PURE_OPS,
    _fold_identities,
    _match_diamond,
    _match_one_sided,
    _snapshot,
    cleanup_cfg,
    strength_reduce,
)
from repro.minic.tac import Instr, TacFunction, Value

# -- Instr.uses / Instr.replace_uses ------------------------------------------


def instr_uses(self: Instr) -> tuple[str, ...]:
    """Virtual registers this instruction reads."""
    used: list[str] = []
    for value in (self.a, self.b, self.tval, self.fval, *self.args):
        if isinstance(value, str) and value not in used:
            used.append(value)
    addr = self.addr
    if addr is not None:
        for value in (addr.base, addr.index):
            if isinstance(value, str) and value not in used:
                used.append(value)
    return tuple(used)


def instr_replace_uses(self: Instr, mapping: dict[str, Value]) -> None:
    """Rewrite register uses in place via ``mapping``."""

    def sub(value):
        if isinstance(value, str):
            return mapping.get(value, value)
        return value

    self.a = sub(self.a)
    self.b = sub(self.b)
    self.tval = sub(self.tval)
    self.fval = sub(self.fval)
    self.args = tuple(sub(arg) for arg in self.args)
    if self.addr is not None:
        base = self.addr.base
        index = self.addr.index
        new_base = mapping.get(base, base) if base else base
        new_index = mapping.get(index, index) if index else index
        if new_base is not base or new_index is not index:
            # Addresses can only hold registers; constant folds into
            # disp when possible.
            addr = self.addr
            if isinstance(new_base, int):
                addr = replace(addr, base=None, disp=addr.disp + new_base)
            elif new_base is not base:
                addr = replace(addr, base=new_base)
            if isinstance(new_index, int):
                addr = replace(
                    addr, index=None, disp=addr.disp + new_index * addr.scale
                )
            elif new_index is not index:
                addr = replace(addr, index=new_index)
            self.addr = addr


# -- lexer -----------------------------------------------------------------------

# Longest-first so multi-char operators win.
_OPERATORS = (
    "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",",
)

# One alternative per token kind, tried in order; ``error`` catches
# any character no other alternative starts with.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<num>\d+)
  | (?P<char>'(?:\\.|[^'\\])')
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
  | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_SKIPPED = frozenset(("ws", "line_comment", "block_comment"))

def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC source into a token list ending with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind in _SKIPPED:
            line += text.count("\n")
        elif kind == "ident":
            append(Token("kw" if text in KEYWORDS else "ident", text, line))
        elif kind == "op":
            append(Token("op", text, line))
        elif kind == "num":
            append(Token("num", text, line, int(text)))
        elif kind == "hex":
            append(Token("num", text, line, int(text, 16)))
        elif kind == "char":
            append(Token("char", text, line, _char_value(text, line)))
            line += text.count("\n")
        else:
            raise ParseError(f"unexpected character {text!r}", line)
    append(Token("eof", "", line))
    return tokens


# -- parser ----------------------------------------------------------------------

_COMPOUND_ASSIGN = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}

# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


def parse(source: str) -> ast.Program:
    """Parse MiniC source text into an AST program."""
    return Parser(tokenize(source)).parse_program()


class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _check(self, kind: str, text: str | None = None) -> bool:
        token = self._tokens[self._pos]
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        if not self._check(kind, text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {self._cur.text!r}", self._cur.line
            )
        return self._advance()

    # -- grammar ----------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._check("eof"):
            self._parse_top_level(program)
        return program

    def _parse_type(self) -> ast.Type:
        token = self._expect("kw")
        if token.text not in ("int", "char", "void"):
            raise ParseError(f"expected a type, found {token.text!r}", token.line)
        pointer = bool(self._accept("op", "*"))
        return ast.Type(token.text, pointer=pointer)

    def _parse_top_level(self, program: ast.Program) -> None:
        base_type = self._parse_type()
        name = self._expect("ident")
        if self._check("op", "("):
            program.functions.append(self._parse_function(base_type, name))
        else:
            program.globals.append(self._parse_global(base_type, name))

    def _parse_function(self, return_type: ast.Type, name: Token) -> ast.Function:
        self._expect("op", "(")
        params: list[ast.Param] = []
        if not self._check("op", ")"):
            if self._check("kw", "void") and self._tokens[self._pos + 1].text == ")":
                self._advance()
            else:
                while True:
                    ptype = self._parse_type()
                    pname = self._expect("ident")
                    if self._accept("op", "["):
                        self._expect("op", "]")
                        ptype = ast.Type(ptype.base, pointer=True)
                    params.append(ast.Param(pname.text, ptype, pname.line))
                    if not self._accept("op", ","):
                        break
        self._expect("op", ")")
        body = self._parse_block()
        return ast.Function(name.text, return_type, params, body, name.line)

    def _parse_global(self, gtype: ast.Type, name: Token) -> ast.Global:
        if self._accept("op", "["):
            size = self._expect("num")
            self._expect("op", "]")
            gtype = ast.Type(gtype.base, array_size=size.value)
        init: list[int] | None = None
        if self._accept("op", "="):
            if self._accept("op", "{"):
                init = []
                while not self._check("op", "}"):
                    init.append(self._parse_const_int())
                    if not self._accept("op", ","):
                        break
                self._expect("op", "}")
            else:
                init = [self._parse_const_int()]
        self._expect("op", ";")
        return ast.Global(name.text, gtype, init, name.line)

    def _parse_const_int(self) -> int:
        negative = bool(self._accept("op", "-"))
        token = self._cur
        if token.kind not in ("num", "char"):
            raise ParseError("expected a constant", token.line)
        self._advance()
        value = token.value or 0
        return -value if negative else value

    def _parse_block(self) -> list[ast.Stmt]:
        self._expect("op", "{")
        stmts: list[ast.Stmt] = []
        while not self._check("op", "}"):
            stmts.append(self._parse_statement())
        self._expect("op", "}")
        return stmts

    def _parse_statement(self) -> ast.Stmt:
        token = self._cur
        if token.kind == "kw" and token.text in ("int", "char"):
            return self._parse_decl()
        if self._check("kw", "if"):
            return self._parse_if()
        if self._check("kw", "while"):
            return self._parse_while()
        if self._check("kw", "for"):
            return self._parse_for()
        if self._check("kw", "return"):
            self._advance()
            value = None if self._check("op", ";") else self._parse_expr()
            self._expect("op", ";")
            return ast.Return(token.line, value)
        if self._accept("kw", "break"):
            self._expect("op", ";")
            return ast.Break(token.line)
        if self._accept("kw", "continue"):
            self._expect("op", ";")
            return ast.Continue(token.line)
        if self._check("op", "{"):
            # Anonymous block: flatten into an If(1) is overkill; MiniC
            # treats it as statement sequence via a synthetic If.
            body = self._parse_block()
            return ast.If(token.line, ast.IntLit(token.line, 1), body, [])
        expr = self._parse_expr()
        self._expect("op", ";")
        return ast.ExprStmt(token.line, expr)

    def _parse_decl(self) -> ast.Stmt:
        dtype = self._parse_type()
        name = self._expect("ident")
        if self._accept("op", "["):
            size = self._expect("num")
            self._expect("op", "]")
            dtype = ast.Type(dtype.base, array_size=size.value)
        init = None
        if self._accept("op", "="):
            init = self._parse_expr()
        self._expect("op", ";")
        return ast.Decl(name.line, name.text, dtype, init)

    def _parse_if(self) -> ast.Stmt:
        token = self._expect("kw", "if")
        self._expect("op", "(")
        cond = self._parse_expr()
        self._expect("op", ")")
        then_body = self._parse_body()
        else_body: list[ast.Stmt] = []
        if self._accept("kw", "else"):
            if self._check("kw", "if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_body()
        return ast.If(token.line, cond, then_body, else_body)

    def _parse_while(self) -> ast.Stmt:
        token = self._expect("kw", "while")
        self._expect("op", "(")
        cond = self._parse_expr()
        self._expect("op", ")")
        return ast.While(token.line, cond, self._parse_body())

    def _parse_for(self) -> ast.Stmt:
        token = self._expect("kw", "for")
        self._expect("op", "(")
        init: ast.Stmt | None = None
        if not self._check("op", ";"):
            if self._cur.kind == "kw" and self._cur.text in ("int", "char"):
                init = self._parse_decl()
            else:
                expr = self._parse_expr()
                self._expect("op", ";")
                init = ast.ExprStmt(token.line, expr)
        else:
            self._expect("op", ";")
        cond = None if self._check("op", ";") else self._parse_expr()
        self._expect("op", ";")
        step = None if self._check("op", ")") else self._parse_expr()
        self._expect("op", ")")
        return ast.For(token.line, init, cond, step, self._parse_body())

    def _parse_body(self) -> list[ast.Stmt]:
        if self._check("op", "{"):
            return self._parse_block()
        return [self._parse_statement()]

    # -- expressions ---------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_binary(1)
        token = self._cur
        if token.kind == "op" and token.text == "=":
            self._advance()
            value = self._parse_assignment()
            return ast.Assign(token.line, left, value)
        if token.kind == "op" and token.text in _COMPOUND_ASSIGN:
            self._advance()
            value = self._parse_assignment()
            return ast.Assign(token.line, left, value, _COMPOUND_ASSIGN[token.text])
        return left

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._cur
            prec = _PRECEDENCE.get(token.text) if token.kind == "op" else None
            if prec is None or prec < min_prec:
                return left
            self._advance()
            right = self._parse_binary(prec + 1)
            left = ast.Binary(token.line, token.text, left, right)

    def _parse_unary(self) -> ast.Expr:
        token = self._cur
        if token.kind == "op" and token.text in ("-", "~", "!", "*", "&"):
            self._advance()
            return ast.Unary(token.line, token.text, self._parse_unary())
        if token.kind == "op" and token.text in ("++", "--"):
            self._advance()
            target = self._parse_unary()
            one = ast.IntLit(token.line, 1)
            return ast.Assign(token.line, target, one, token.text[0])
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._accept("op", "["):
                index = self._parse_expr()
                self._expect("op", "]")
                expr = ast.Index(expr.line, expr, index)
            elif self._check("op", "++") or self._check("op", "--"):
                # Mended since: valued as the old value.
                token = self._advance()
                one = ast.IntLit(token.line, 1)
                expr = ast.Assign(token.line, expr, one, token.text[0],
                                  postfix=True)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._cur
        if token.kind in ("num", "char"):
            self._advance()
            return ast.IntLit(token.line, token.value or 0)
        if token.kind == "ident":
            self._advance()
            if self._accept("op", "("):
                args: list[ast.Expr] = []
                if not self._check("op", ")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept("op", ","):
                            break
                self._expect("op", ")")
                return ast.Call(token.line, token.text, args)
            return ast.Name(token.line, token.text)
        if self._accept("op", "("):
            expr = self._parse_expr()
            self._expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.line)


# -- passes ----------------------------------------------------------------------


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
                for use in instr_uses(instr):
                    if use in consts:
                        mapping[use] = consts[use]
                    elif use in copies:
                        mapping[use] = copies[use]
                if mapping:
                    instr_replace_uses(instr, mapping)
            if instr.op == "bin" and isinstance(instr.a, int) and isinstance(
                instr.b, int
            ):
                try:
                    folded = binop(instr.bin_op, instr.a, instr.b)
                except TacRuntimeError:
                    pass  # division by zero: left for run time
                else:
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
                value = instr.tval if compare(instr.bin_op, instr.a, instr.b) \
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


def coalesce_copies(func: TacFunction) -> None:
    """Fold ``t = <expr>; ...; x = t`` into ``x = <expr>`` when ``t`` is
    only used by that copy and ``x`` is untouched in between.

    This removes the temp-then-copy chains lowering produces for every
    assignment, matching the tighter code real compilers emit.
    """
    use_counts: dict[str, int] = {}
    def_counts: dict[str, int] = {}
    for instr in func.instrs:
        for use in instr_uses(instr):
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
            if any(target in instr_uses(instr) or instr.dest == target
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
    uses = [instr_uses(instr) for instr in instrs]
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
