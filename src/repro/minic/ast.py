"""MiniC abstract syntax tree.

Every node carries its source line; the rule learner's whole premise is
grouping machine instructions by the source line they came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# -- types --------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """A MiniC type: ``int``, ``char``, ``void``, or a pointer/array.

    ``base`` is "int" | "char" | "void"; ``pointer`` marks one level of
    indirection (arrays decay to pointers); ``array_size`` is set only
    on array declarations.
    """

    base: str
    pointer: bool = False
    array_size: int | None = None

    @property
    def is_void(self) -> bool:
        return self.base == "void" and not self.pointer

    @property
    def element_size(self) -> int:
        """Size in bytes of what this (pointer/array) type points at."""
        return 1 if self.base == "char" else 4

    @property
    def size(self) -> int:
        if self.array_size is not None:
            return self.array_size * self.element_size
        if self.pointer:
            return 4
        return 1 if self.base == "char" else 4

    def decayed(self) -> "Type":
        """Array-to-pointer decay."""
        if self.array_size is not None:
            return Type(self.base, pointer=True)
        return self

    def __str__(self) -> str:
        text = self.base
        if self.pointer:
            text += "*"
        if self.array_size is not None:
            text += f"[{self.array_size}]"
        return text


INT = Type("int")
CHAR = Type("char")
VOID = Type("void")


# -- expressions ---------------------------------------------------------------


@dataclass
class Expr:
    line: int


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class Name(Expr):
    ident: str


@dataclass
class Unary(Expr):
    op: str  # "-" "~" "!" "*" "&"
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # arithmetic / comparison / logical
    left: Expr
    right: Expr


@dataclass
class Assign(Expr):
    """``target = value`` or compound ``target op= value``; ``x++`` and
    ``x--`` are compound with ``postfix`` set: their value is the old
    ``x``."""

    target: Expr  # Name, Index, or Unary("*")
    value: Expr
    op: str | None = None  # "+" for "+=", etc.
    postfix: bool = False


@dataclass
class Index(Expr):
    """``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class Call(Expr):
    func: str
    args: list[Expr] = field(default_factory=list)


# -- statements -----------------------------------------------------------------


@dataclass
class Stmt:
    line: int


@dataclass
class Decl(Stmt):
    name: str
    type: Type
    init: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr
    body: list[Stmt]


@dataclass
class For(Stmt):
    init: Stmt | None
    cond: Expr | None
    step: Expr | None
    body: list[Stmt]


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# -- top level -------------------------------------------------------------------


@dataclass
class Param:
    name: str
    type: Type
    line: int


@dataclass
class Function:
    name: str
    return_type: Type
    params: list[Param]
    body: list[Stmt]
    line: int


@dataclass
class Global:
    name: str
    type: Type
    init: list[int] | None  # scalar init = [value]; arrays = values
    line: int


@dataclass
class Program:
    functions: list[Function] = field(default_factory=list)
    globals: list[Global] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)
