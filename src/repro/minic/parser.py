"""Recursive-descent parser for MiniC.

An operator's or keyword's text also names its kind (identifiers,
numbers and character literals never spell one), so the parser tests
most tokens by text alone, against a list of the token texts.
"""

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

_PREFIX_OPS = frozenset(("-", "~", "!", "*", "&"))
_STEP_OPS = frozenset(("++", "--"))


def parse(source: str) -> ast.Program:
    """Parse MiniC source text into an AST program."""
    return _Parser(tokenize(source)).parse_program()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._texts = [token.text for token in tokens]
        self._pos = 0

    # -- token plumbing -------------------------------------------------------

    def _accept(self, text: str) -> bool:
        """Consume the next token if it is the operator or keyword
        ``text``."""
        if self._texts[self._pos] == text:
            self._pos += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if self._texts[self._pos] != text:
            self._fail(text)
        self._pos += 1

    def _expect_kind(self, kind: str) -> Token:
        token = self._tokens[self._pos]
        if token.kind != kind:
            self._fail(kind)
        self._pos += 1
        return token

    def _fail(self, want: str) -> None:
        token = self._tokens[self._pos]
        raise ParseError(f"expected {want!r}, found {token.text!r}",
                         token.line)

    # -- grammar ----------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self._tokens[self._pos].kind != "eof":
            self._parse_top_level(program)
        return program

    def _parse_type(self) -> ast.Type:
        token = self._expect_kind("kw")
        if token.text not in ("int", "char", "void"):
            raise ParseError(f"expected a type, found {token.text!r}", token.line)
        return ast.Type(token.text, pointer=self._accept("*"))

    def _parse_top_level(self, program: ast.Program) -> None:
        base_type = self._parse_type()
        name = self._expect_kind("ident")
        if self._texts[self._pos] == "(":
            program.functions.append(self._parse_function(base_type, name))
        else:
            program.globals.append(self._parse_global(base_type, name))

    def _parse_function(self, return_type: ast.Type, name: Token) -> ast.Function:
        self._expect("(")
        params: list[ast.Param] = []
        texts = self._texts
        if texts[self._pos] != ")":
            if texts[self._pos] == "void" and texts[self._pos + 1] == ")":
                self._pos += 1
            else:
                while True:
                    ptype = self._parse_type()
                    pname = self._expect_kind("ident")
                    if self._accept("["):
                        self._expect("]")
                        ptype = ast.Type(ptype.base, pointer=True)
                    params.append(ast.Param(pname.text, ptype, pname.line))
                    if not self._accept(","):
                        break
        self._expect(")")
        body = self._parse_block()
        return ast.Function(name.text, return_type, params, body, name.line)

    def _parse_global(self, gtype: ast.Type, name: Token) -> ast.Global:
        if self._accept("["):
            size = self._expect_kind("num")
            self._expect("]")
            gtype = ast.Type(gtype.base, array_size=size.value)
        init: list[int] | None = None
        if self._accept("="):
            if self._accept("{"):
                init = []
                while self._texts[self._pos] != "}":
                    init.append(self._parse_const_int())
                    if not self._accept(","):
                        break
                self._expect("}")
            else:
                init = [self._parse_const_int()]
        self._expect(";")
        return ast.Global(name.text, gtype, init, name.line)

    def _parse_const_int(self) -> int:
        negative = self._accept("-")
        token = self._tokens[self._pos]
        if token.kind not in ("num", "char"):
            raise ParseError("expected a constant", token.line)
        self._pos += 1
        value = token.value or 0
        return -value if negative else value

    def _parse_block(self) -> list[ast.Stmt]:
        self._expect("{")
        stmts: list[ast.Stmt] = []
        texts = self._texts
        while texts[self._pos] != "}":
            stmts.append(self._parse_statement())
        self._pos += 1
        return stmts

    def _parse_statement(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        text = token.text
        if text == "int" or text == "char":
            return self._parse_decl()
        if text == "if":
            return self._parse_if()
        if text == "while":
            return self._parse_while()
        if text == "for":
            return self._parse_for()
        if text == "return":
            self._pos += 1
            value = None if self._texts[self._pos] == ";" \
                else self._parse_expr()
            self._expect(";")
            return ast.Return(token.line, value)
        if text == "break":
            self._pos += 1
            self._expect(";")
            return ast.Break(token.line)
        if text == "continue":
            self._pos += 1
            self._expect(";")
            return ast.Continue(token.line)
        if text == "{":
            # Anonymous block: flatten into an If(1) is overkill; MiniC
            # treats it as statement sequence via a synthetic If.
            body = self._parse_block()
            return ast.If(token.line, ast.IntLit(token.line, 1), body, [])
        expr = self._parse_expr()
        self._expect(";")
        return ast.ExprStmt(token.line, expr)

    def _parse_decl(self) -> ast.Stmt:
        dtype = self._parse_type()
        name = self._expect_kind("ident")
        if self._accept("["):
            size = self._expect_kind("num")
            self._expect("]")
            dtype = ast.Type(dtype.base, array_size=size.value)
        init = None
        if self._accept("="):
            init = self._parse_expr()
        self._expect(";")
        return ast.Decl(name.line, name.text, dtype, init)

    def _parse_if(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        self._expect("if")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        then_body = self._parse_body()
        else_body: list[ast.Stmt] = []
        if self._accept("else"):
            if self._texts[self._pos] == "if":
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_body()
        return ast.If(token.line, cond, then_body, else_body)

    def _parse_while(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        self._expect("while")
        self._expect("(")
        cond = self._parse_expr()
        self._expect(")")
        return ast.While(token.line, cond, self._parse_body())

    def _parse_for(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        self._expect("for")
        self._expect("(")
        texts = self._texts
        init: ast.Stmt | None = None
        if texts[self._pos] != ";":
            if texts[self._pos] in ("int", "char"):
                init = self._parse_decl()
            else:
                expr = self._parse_expr()
                self._expect(";")
                init = ast.ExprStmt(token.line, expr)
        else:
            self._pos += 1
        cond = None if texts[self._pos] == ";" else self._parse_expr()
        self._expect(";")
        step = None if texts[self._pos] == ")" else self._parse_expr()
        self._expect(")")
        return ast.For(token.line, init, cond, step, self._parse_body())

    def _parse_body(self) -> list[ast.Stmt]:
        if self._texts[self._pos] == "{":
            return self._parse_block()
        return [self._parse_statement()]

    # -- expressions ---------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        """An assignment expression (right-associative), or a binary
        one."""
        left = self._parse_binary(1)
        token = self._tokens[self._pos]
        text = token.text
        if text == "=":
            self._pos += 1
            return ast.Assign(token.line, left, self._parse_expr())
        op = _COMPOUND_ASSIGN.get(text)
        if op is not None:
            self._pos += 1
            return ast.Assign(token.line, left, self._parse_expr(), op)
        return left

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        """Precedence climbing: operators binding at least ``min_prec``."""
        left = self._parse_unary()
        texts = self._texts
        while True:
            prec = _PRECEDENCE.get(texts[self._pos])
            if prec is None or prec < min_prec:
                return left
            token = self._tokens[self._pos]
            self._pos += 1
            right = self._parse_binary(prec + 1)
            left = ast.Binary(token.line, token.text, left, right)

    def _parse_unary(self) -> ast.Expr:
        """Prefix operators, then a primary and its postfix operators."""
        token = self._tokens[self._pos]
        text = token.text
        self._pos += 1
        if text in _PREFIX_OPS:
            return ast.Unary(token.line, text, self._parse_unary())
        if text in _STEP_OPS:
            target = self._parse_unary()
            one = ast.IntLit(token.line, 1)
            return ast.Assign(token.line, target, one, text[0])
        kind = token.kind
        if kind == "ident":
            if self._accept("("):
                args: list[ast.Expr] = []
                if self._texts[self._pos] != ")":
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept(","):
                            break
                self._expect(")")
                expr = ast.Call(token.line, text, args)
            else:
                expr = ast.Name(token.line, text)
        elif kind == "num" or kind == "char":
            expr = ast.IntLit(token.line, token.value or 0)
        elif text == "(":
            expr = self._parse_expr()
            self._expect(")")
        else:
            raise ParseError(f"unexpected token {text!r}", token.line)
        texts = self._texts
        while True:
            text = texts[self._pos]
            if text == "[":
                self._pos += 1
                index = self._parse_expr()
                self._expect("]")
                expr = ast.Index(expr.line, expr, index)
            elif text in _STEP_OPS:
                # ``x++`` / ``x--``: valued as the old ``x``.
                token = self._tokens[self._pos]
                self._pos += 1
                one = ast.IntLit(token.line, 1)
                expr = ast.Assign(token.line, expr, one, text[0],
                                  postfix=True)
            else:
                return expr
