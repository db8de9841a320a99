"""Lowering MiniC ASTs to TAC.

Lowering is deliberately naive (every local variable lives in a stack
slot, every access is a load/store); the optimization passes then clean
this up per ``-O`` level, which is what makes the generated code differ
across levels the way the paper's Figure 7 illustrates.

Semantic checking (undeclared names, arity, lvalue-ness) happens inline
during lowering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.minic import ast
from repro.minic.errors import SemanticError
from repro.minic.tac import (
    GlobalData,
    Instr,
    StackSlot,
    TacFunction,
    TacProgram,
    TAddr,
    Value,
)

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def lower_program(program: ast.Program) -> TacProgram:
    """Lower a parsed program to TAC."""
    tac = TacProgram()
    global_types: dict[str, ast.Type] = {}
    for glob in program.globals:
        if glob.name in tac.globals:
            raise SemanticError(f"duplicate global {glob.name!r}", glob.line)
        init = list(glob.init or [])
        tac.globals[glob.name] = GlobalData(
            glob.name, glob.type.size, glob.type.element_size, init
        )
        global_types[glob.name] = glob.type
    signatures = {
        func.name: (func.return_type, [param.type for param in func.params])
        for func in program.functions
    }
    for func in program.functions:
        if func.name in tac.functions:
            raise SemanticError(f"duplicate function {func.name!r}", func.line)
        lowerer = _FunctionLowerer(func, global_types, signatures)
        tac.functions[func.name] = lowerer.lower()
    return tac


@dataclass
class _Binding:
    kind: str  # "slot" | "global"
    name: str  # slot name or global name
    type: ast.Type


class _FunctionLowerer:
    def __init__(
        self,
        func: ast.Function,
        global_types: dict[str, ast.Type],
        signatures: dict[str, tuple[ast.Type, list[ast.Type]]],
    ) -> None:
        self.func = func
        self.globals = global_types
        self.signatures = signatures
        self.tac = TacFunction(
            func.name,
            params=[f"%a{i}" for i in range(len(func.params))],
            line=func.line,
            returns_value=not func.return_type.is_void,
        )
        self.scopes: list[dict[str, _Binding]] = [{}]
        self.loop_stack: list[tuple[str, str]] = []  # (continue, break)
        self.slot_counter = 0

    # -- helpers ------------------------------------------------------------

    def emit(self, **kwargs) -> Instr:
        instr = Instr(**kwargs)
        self.tac.instrs.append(instr)
        return instr

    def lookup(self, name: str, line: int) -> _Binding:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return _Binding("global", name, self.globals[name])
        raise SemanticError(f"undeclared identifier {name!r}", line)

    def declare(self, name: str, dtype: ast.Type, line: int) -> _Binding:
        scope = self.scopes[-1]
        if name in scope:
            raise SemanticError(f"redeclaration of {name!r}", line)
        self.slot_counter += 1
        slot_name = f"{name}.{self.slot_counter}"
        self.tac.slots[slot_name] = StackSlot(
            slot_name,
            dtype.size,
            dtype.element_size if dtype.array_size is not None else dtype.size,
            dtype.array_size is not None,
            var=name,
        )
        binding = _Binding("slot", slot_name, dtype)
        scope[name] = binding
        return binding

    # -- top level ------------------------------------------------------------

    def lower(self) -> TacFunction:
        line = self.func.line
        for vreg, param in zip(self.tac.params, self.func.params):
            binding = self.declare(param.name, param.type, param.line)
            self.emit(
                op="store",
                line=param.line,
                a=vreg,
                addr=TAddr(symbol=binding.name, var=param.name),
                size=param.type.size if not param.type.pointer else 4,
            )
        self.lower_stmts(self.func.body)
        # Implicit return for void functions / missing returns.
        if self.func.return_type.is_void:
            self.emit(op="ret", line=line)
        else:
            self.emit(op="ret", line=line, a=0)
        return self.tac

    def lower_stmts(self, stmts: list[ast.Stmt]) -> None:
        self.scopes.append({})
        for stmt in stmts:
            self.lower_stmt(stmt)
        self.scopes.pop()

    # -- statements --------------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Decl):
            binding = self.declare(stmt.name, stmt.type, stmt.line)
            if stmt.init is not None:
                if stmt.type.array_size is not None:
                    raise SemanticError("array initializers are not supported",
                                        stmt.line)
                value = self.lower_expr(stmt.init)
                self.emit(
                    op="store",
                    line=stmt.line,
                    a=value,
                    addr=TAddr(symbol=binding.name, var=stmt.name),
                    size=binding.type.size,
                )
            return
        if isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr, want_value=False)
            return
        if isinstance(stmt, ast.Return):
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            self.emit(op="ret", line=stmt.line, a=value)
            return
        if isinstance(stmt, ast.If):
            self.lower_if(stmt)
            return
        if isinstance(stmt, ast.While):
            self.lower_while(stmt)
            return
        if isinstance(stmt, ast.For):
            self.lower_for(stmt)
            return
        if isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise SemanticError("break outside loop", stmt.line)
            self.emit(op="jmp", line=stmt.line, label=self.loop_stack[-1][1])
            return
        if isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise SemanticError("continue outside loop", stmt.line)
            self.emit(op="jmp", line=stmt.line, label=self.loop_stack[-1][0])
            return
        raise SemanticError(f"unhandled statement {type(stmt).__name__}", stmt.line)

    def lower_if(self, stmt: ast.If) -> None:
        then_label = self.tac.new_label("then")
        else_label = self.tac.new_label("else")
        end_label = self.tac.new_label("endif")
        target_else = else_label if stmt.else_body else end_label
        self.lower_cond(stmt.cond, then_label, target_else)
        self.emit(op="label", line=stmt.line, label=then_label)
        self.lower_stmts(stmt.then_body)
        if stmt.else_body:
            self.emit(op="jmp", line=stmt.line, label=end_label)
            self.emit(op="label", line=stmt.line, label=else_label)
            self.lower_stmts(stmt.else_body)
        self.emit(op="label", line=stmt.line, label=end_label)

    def lower_while(self, stmt: ast.While) -> None:
        head = self.tac.new_label("while")
        body = self.tac.new_label("body")
        done = self.tac.new_label("done")
        self.emit(op="label", line=stmt.line, label=head)
        self.lower_cond(stmt.cond, body, done)
        self.emit(op="label", line=stmt.line, label=body)
        self.loop_stack.append((head, done))
        self.lower_stmts(stmt.body)
        self.loop_stack.pop()
        self.emit(op="jmp", line=stmt.line, label=head)
        self.emit(op="label", line=stmt.line, label=done)

    def lower_for(self, stmt: ast.For) -> None:
        head = self.tac.new_label("for")
        body = self.tac.new_label("body")
        step_label = self.tac.new_label("step")
        done = self.tac.new_label("done")
        self.scopes.append({})
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        self.emit(op="label", line=stmt.line, label=head)
        if stmt.cond is not None:
            self.lower_cond(stmt.cond, body, done)
        self.emit(op="label", line=stmt.line, label=body)
        self.loop_stack.append((step_label, done))
        self.lower_stmts(stmt.body)
        self.loop_stack.pop()
        self.emit(op="label", line=stmt.line, label=step_label)
        if stmt.step is not None:
            self.lower_expr(stmt.step, want_value=False)
        self.emit(op="jmp", line=stmt.line, label=head)
        self.emit(op="label", line=stmt.line, label=done)

    # -- conditions -----------------------------------------------------------------

    def lower_cond(self, expr: ast.Expr, true_label: str, false_label: str) -> None:
        """Lower a boolean context with short-circuiting and fused
        compare-and-branch."""
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            middle = self.tac.new_label("and")
            self.lower_cond(expr.left, middle, false_label)
            self.emit(op="label", line=expr.line, label=middle)
            self.lower_cond(expr.right, true_label, false_label)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            middle = self.tac.new_label("or")
            self.lower_cond(expr.left, true_label, middle)
            self.emit(op="label", line=expr.line, label=middle)
            self.lower_cond(expr.right, true_label, false_label)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.lower_cond(expr.operand, false_label, true_label)
            return
        if isinstance(expr, ast.Binary) and expr.op in _CMP_OPS:
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            self.emit(
                op="cbr", line=expr.line, bin_op=expr.op, a=left, b=right,
                label=true_label, label2=false_label,
            )
            return
        value = self.lower_expr(expr)
        self.emit(
            op="cbr", line=expr.line, bin_op="!=", a=value, b=0,
            label=true_label, label2=false_label,
        )

    # -- expressions -------------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr, want_value: bool = True) -> Value:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.Name):
            return self.lower_name(expr)
        if isinstance(expr, ast.Index):
            addr, size = self.lower_lvalue(expr)
            dest = self.tac.new_temp()
            self.emit(op="load", line=expr.line, dest=dest, addr=addr, size=size)
            return dest
        if isinstance(expr, ast.Unary):
            return self.lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self.lower_binary(expr)
        if isinstance(expr, ast.Assign):
            return self.lower_assign(expr, want_value)
        if isinstance(expr, ast.Call):
            return self.lower_call(expr, want_value)
        raise SemanticError(f"unhandled expression {type(expr).__name__}", expr.line)

    def lower_name(self, expr: ast.Name) -> Value:
        binding = self.lookup(expr.ident, expr.line)
        if binding.type.array_size is not None:
            # Array decays to its address.
            dest = self.tac.new_temp()
            self.emit(
                op="la", line=expr.line, dest=dest,
                addr=TAddr(symbol=binding.name, var=expr.ident),
            )
            return dest
        dest = self.tac.new_temp()
        self.emit(
            op="load", line=expr.line, dest=dest,
            addr=TAddr(symbol=binding.name, var=expr.ident),
            size=binding.type.size,
        )
        return dest

    def type_of(self, expr: ast.Expr) -> ast.Type:
        if isinstance(expr, ast.Name):
            return self.lookup(expr.ident, expr.line).type
        if isinstance(expr, ast.Index):
            base = self.type_of(expr.base)
            return ast.Type(base.base)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            base = self.type_of(expr.operand)
            return ast.Type(base.base)
        if isinstance(expr, ast.Unary) and expr.op == "&":
            inner = self.type_of(expr.operand)
            return ast.Type(inner.base, pointer=True)
        if isinstance(expr, ast.Call):
            signature = self.signatures.get(expr.func)
            return signature[0] if signature else ast.INT
        if isinstance(expr, ast.Binary):
            left = self.type_of(expr.left)
            if left.pointer or left.array_size is not None:
                return left.decayed()
            right = self.type_of(expr.right)
            if right.pointer or right.array_size is not None:
                return right.decayed()
            return ast.INT
        return ast.INT

    def lower_lvalue(self, expr: ast.Expr) -> tuple[TAddr, int]:
        """Lower an assignable expression to (address, access size)."""
        if isinstance(expr, ast.Name):
            binding = self.lookup(expr.ident, expr.line)
            if binding.kind == "slot":
                return (
                    TAddr(symbol=binding.name, var=expr.ident),
                    binding.type.size if binding.type.array_size is None else 4,
                )
            return (
                TAddr(symbol=binding.name, var=expr.ident),
                binding.type.size if binding.type.array_size is None else 4,
            )
        if isinstance(expr, ast.Index):
            base_type = self.type_of(expr.base).decayed()
            elem_size = base_type.element_size
            index = self.lower_expr(expr.index)
            if isinstance(expr.base, ast.Name):
                binding = self.lookup(expr.base.ident, expr.base.line)
                if binding.type.array_size is not None:
                    # Direct array indexing: keep the symbol in the address.
                    if isinstance(index, int):
                        return (
                            TAddr(symbol=binding.name, disp=index * elem_size,
                                  var=expr.base.ident),
                            elem_size,
                        )
                    index_reg = self._as_reg(index, expr.line)
                    return (
                        TAddr(symbol=binding.name, index=index_reg,
                              scale=elem_size, var=expr.base.ident),
                        elem_size,
                    )
            base_value = self.lower_expr(expr.base)
            base_reg = self._as_reg(base_value, expr.line)
            if isinstance(index, int):
                return (
                    TAddr(base=base_reg, disp=index * elem_size,
                          var=self._var_hint(expr.base)),
                    elem_size,
                )
            index_reg = self._as_reg(index, expr.line)
            return (
                TAddr(base=base_reg, index=index_reg, scale=elem_size,
                      var=self._var_hint(expr.base)),
                elem_size,
            )
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointee = self.type_of(expr.operand).decayed()
            base = self._as_reg(self.lower_expr(expr.operand), expr.line)
            return (
                TAddr(base=base, var=self._var_hint(expr.operand)),
                pointee.element_size,
            )
        raise SemanticError("expression is not assignable", expr.line)

    def _var_hint(self, expr: ast.Expr) -> str | None:
        if isinstance(expr, ast.Name):
            return expr.ident
        return None

    def _as_reg(self, value: Value, line: int) -> str:
        if isinstance(value, str):
            return value
        dest = self.tac.new_temp()
        self.emit(op="const", line=line, dest=dest, a=value)
        return dest

    def lower_unary(self, expr: ast.Unary) -> Value:
        if expr.op == "&":
            addr, _ = self.lower_lvalue(expr.operand)
            dest = self.tac.new_temp()
            self.emit(op="la", line=expr.line, dest=dest, addr=addr)
            return dest
        if expr.op == "*":
            addr, size = self.lower_lvalue(expr)
            dest = self.tac.new_temp()
            self.emit(op="load", line=expr.line, dest=dest, addr=addr, size=size)
            return dest
        if expr.op == "!":
            # Materialize a boolean through a select.
            value = self.lower_expr(expr.operand)
            dest = self.tac.new_temp()
            self.emit(
                op="select", line=expr.line, dest=dest, bin_op="==",
                a=value, b=0, tval=1, fval=0,
            )
            return dest
        value = self.lower_expr(expr.operand)
        dest = self.tac.new_temp()
        op = "neg" if expr.op == "-" else "not"
        self.emit(op="un", line=expr.line, dest=dest, bin_op=op, a=value)
        return dest

    def lower_binary(self, expr: ast.Binary) -> Value:
        if expr.op in ("&&", "||"):
            return self._materialize_bool(expr)
        if expr.op in _CMP_OPS:
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            dest = self.tac.new_temp()
            self.emit(
                op="select", line=expr.line, dest=dest, bin_op=expr.op,
                a=left, b=right, tval=1, fval=0,
            )
            return dest
        # Pointer arithmetic scales the integer side of ``+``/``-`` by the
        # element size; no other operator needs the operands' types.
        left_scale = right_scale = 1
        if expr.op in ("+", "-"):
            left_type = self.type_of(expr.left).decayed()
            right_type = self.type_of(expr.right).decayed()
            if left_type.pointer and not right_type.pointer:
                right_scale = left_type.element_size
            elif right_type.pointer and expr.op == "+" and \
                    not left_type.pointer:
                left_scale = right_type.element_size
        left = self.lower_expr(expr.left)
        right = self.lower_expr(expr.right)
        right = self._scale(right, right_scale, expr.line)
        left = self._scale(left, left_scale, expr.line)
        dest = self.tac.new_temp()
        self.emit(op="bin", line=expr.line, dest=dest, bin_op=expr.op,
                  a=left, b=right)
        return dest

    def _scale(self, value: Value, factor: int, line: int) -> Value:
        if factor == 1:
            return value
        if isinstance(value, int):
            return value * factor
        dest = self.tac.new_temp()
        self.emit(op="bin", line=line, dest=dest, bin_op="*", a=value, b=factor)
        return dest

    def _materialize_bool(self, expr: ast.Expr) -> Value:
        true_label = self.tac.new_label("bt")
        false_label = self.tac.new_label("bf")
        end_label = self.tac.new_label("bend")
        result_slot = f"%bool{self.tac.new_temp()[2:]}"
        self.lower_cond(expr, true_label, false_label)
        self.emit(op="label", line=expr.line, label=true_label)
        self.emit(op="const", line=expr.line, dest=result_slot, a=1)
        self.emit(op="jmp", line=expr.line, label=end_label)
        self.emit(op="label", line=expr.line, label=false_label)
        self.emit(op="const", line=expr.line, dest=result_slot, a=0)
        self.emit(op="label", line=expr.line, label=end_label)
        return result_slot

    def lower_assign(self, expr: ast.Assign, want_value: bool) -> Value:
        addr, size = self.lower_lvalue(expr.target)
        if expr.op is None:
            value = self.lower_expr(expr.value)
        else:
            old = self.tac.new_temp()
            self.emit(op="load", line=expr.line, dest=old, addr=addr, size=size)
            rhs = self.lower_expr(expr.value)
            target_type = self.type_of(expr.target).decayed()
            if target_type.pointer and expr.op in ("+", "-"):
                rhs = self._scale(rhs, target_type.element_size, expr.line)
            value = self.tac.new_temp()
            self.emit(op="bin", line=expr.line, dest=value, bin_op=expr.op,
                      a=old, b=rhs)
        self.emit(op="store", line=expr.line, a=value, addr=addr, size=size)
        if expr.postfix and want_value:
            return old
        return value

    def lower_call(self, expr: ast.Call, want_value: bool) -> Value:
        signature = self.signatures.get(expr.func)
        if signature is None:
            raise SemanticError(f"call to undefined function {expr.func!r}",
                                expr.line)
        _, param_types = signature
        if len(param_types) != len(expr.args):
            raise SemanticError(
                f"{expr.func} expects {len(param_types)} args, got "
                f"{len(expr.args)}", expr.line,
            )
        args = tuple(self.lower_expr(arg) for arg in expr.args)
        dest = self.tac.new_temp() if want_value and not signature[0].is_void \
            else None
        self.emit(op="call", line=expr.line, dest=dest, name=expr.func, args=args)
        return dest if dest is not None else 0
