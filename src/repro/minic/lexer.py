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

# One match per token: the whitespace and comments before it (group 1),
# then one group per token kind.  The kinds start with disjoint
# characters, except that hex must be tried before decimal; the last
# catches any character no other kind starts with.  Only the matches at
# the end of the source hold no token.
_TOKEN_RE = re.compile(
    r"""
    ((?:\s+|//[^\n]*|/\*.*?\*/)*)
    (?:
        ([A-Za-z_]\w*)
      | (""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
      | (0[xX][0-9a-fA-F]+)
      | (\d+)
      | ('(?:\\.|[^'\\])')
      | (.)
    )?
    """,
    re.VERBOSE | re.DOTALL,
)

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
    new = tuple.__new__  # Token(...) without its Python-level __new__
    line = 1
    for skipped, ident, op, hexa, num, char, error in \
            _TOKEN_RE.findall(source):
        if skipped:
            line += skipped.count("\n")
        if ident:
            append(new(Token, ("kw" if ident in KEYWORDS else "ident",
                               ident, line, None)))
        elif op:
            append(new(Token, ("op", op, line, None)))
        elif num:
            append(new(Token, ("num", num, line, int(num))))
        elif hexa:
            append(new(Token, ("num", hexa, line, int(hexa, 16))))
        elif char:
            append(new(Token, ("char", char, line, _char_value(char, line))))
            line += char.count("\n")
        elif error:
            raise ParseError(f"unexpected character {error!r}", line)
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
