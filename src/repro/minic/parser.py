"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from repro.minic import ast
from repro.minic.errors import ParseError
from repro.minic.lexer import Token, tokenize

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
    return _Parser(tokenize(source)).parse_program()


class _Parser:
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
                # Post-increment used as a statement only; MiniC gives it
                # pre-increment semantics (value unused in our corpus).
                token = self._advance()
                one = ast.IntLit(token.line, 1)
                expr = ast.Assign(token.line, expr, one, token.text[0])
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
