"""MiniC lexer.

Tokenizes the C subset: identifiers, integer/char literals, operators,
punctuation.  ``//`` and ``/* */`` comments are skipped; every token
carries its 1-based source line (the learner's learning scope is the
source line, so line fidelity matters here).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.minic.errors import ParseError

KEYWORDS = frozenset(
    {"int", "char", "void", "if", "else", "while", "for", "return", "break",
     "continue"}
)

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

_ESCAPES = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39, '"': 34, "r": 13}


class Token(NamedTuple):
    """One lexical token."""

    kind: str  # "ident" | "num" | "char" | "op" | "kw" | "eof"
    text: str
    line: int
    value: int | None = None  # numeric value for num/char tokens


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


def _char_value(text: str, line: int) -> int:
    body = text[1:-1]
    if body.startswith("\\"):
        escape = body[1]
        if escape not in _ESCAPES:
            raise ParseError(f"unknown escape {body!r}", line)
        return _ESCAPES[escape]
    return ord(body)
