"""Reduced ordered binary decision diagrams (ROBDD).

The primary equivalence engine.  With an interleaved variable order
(bit *i* of every symbol adjacent), the circuits the learner produces —
adders, subtractors, comparators, shifts and multiplications by
constants — all have polynomially-sized BDDs, so equivalence of typical
guest/host snippets is decided in milliseconds.  Genuinely hard cases
(variable x variable multiplication) blow the node budget and raise
:class:`BddBudgetExceeded`; :mod:`repro.solver.equivalence` then
reports the query UNKNOWN.

Nodes are integers indexing parallel arrays; 0 and 1 are the terminals.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

_TERMINAL_VAR = sys.maxsize


class BddBudgetExceeded(Exception):
    """Raised when the unique table outgrows the configured budget."""


@dataclass
class BddManager:
    """Owns the unique table and the memoized ``ite`` operation."""

    node_budget: int = 2_000_000

    _var: list[int] = field(default_factory=lambda: [_TERMINAL_VAR, _TERMINAL_VAR])
    _low: list[int] = field(default_factory=lambda: [0, 1])
    _high: list[int] = field(default_factory=lambda: [0, 1])

    def __post_init__(self) -> None:
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._num_vars = 0

    FALSE = 0
    TRUE = 1

    @property
    def node_count(self) -> int:
        return len(self._var)

    def new_var_index(self) -> int:
        """Allocate the next variable in the global order."""
        index = self._num_vars
        self._num_vars += 1
        return index

    def var_node(self, var_index: int) -> int:
        """The BDD for the bare variable ``var_index``."""
        return self._mk(var_index, self.FALSE, self.TRUE)

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        if len(self._var) >= self.node_budget:
            raise BddBudgetExceeded(f"BDD exceeded {self.node_budget} nodes")
        node = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else, the universal BDD operation (iterative)."""
        # Terminal shortcuts.
        result = self._ite_terminal(f, g, h)
        if result is not None:
            return result
        stack: list[tuple] = [("call", f, g, h)]
        results: list[int] = []
        while stack:
            frame = stack.pop()
            if frame[0] == "call":
                _, cf, cg, ch = frame
                shortcut = self._ite_terminal(cf, cg, ch)
                if shortcut is not None:
                    results.append(shortcut)
                    continue
                key = (cf, cg, ch)
                cached = self._ite_cache.get(key)
                if cached is not None:
                    results.append(cached)
                    continue
                top = min(self._var[cf], self._var[cg], self._var[ch])
                f_low, f_high = self._cofactors(cf, top)
                g_low, g_high = self._cofactors(cg, top)
                h_low, h_high = self._cofactors(ch, top)
                stack.append(("combine", key, top))
                stack.append(("call", f_high, g_high, h_high))
                stack.append(("call", f_low, g_low, h_low))
            else:
                _, key, top = frame
                high = results.pop()
                low = results.pop()
                node = self._mk(top, low, high)
                self._ite_cache[key] = node
                results.append(node)
        return results[0]

    def _ite_terminal(self, f: int, g: int, h: int) -> int | None:
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        return None

    def _cofactors(self, node: int, var: int) -> tuple[int, int]:
        if self._var[node] == var:
            return self._low[node], self._high[node]
        return node, node

    # -- boolean sugar -------------------------------------------------------

    def and_(self, a: int, b: int) -> int:
        return self.ite(a, b, self.FALSE)

    def or_(self, a: int, b: int) -> int:
        return self.ite(a, self.TRUE, b)

    def not_(self, a: int) -> int:
        return self.ite(a, self.FALSE, self.TRUE)

    def xor(self, a: int, b: int) -> int:
        return self.ite(a, self.not_(b), b)

    def satisfying_path(self, node: int) -> dict[int, bool] | None:
        """Return a variable assignment reaching TRUE, or None."""
        if node == self.FALSE:
            return None
        assignment: dict[int, bool] = {}
        while node != self.TRUE:
            if self._low[node] != self.FALSE:
                assignment[self._var[node]] = False
                node = self._low[node]
            else:
                assignment[self._var[node]] = True
                node = self._high[node]
        return assignment


class BddBackend:
    """The gates :class:`~repro.solver.gates.CircuitBuilder` builds
    circuits from, over a :class:`BddManager`.

    Symbols must be registered up front (so bit variables can be
    interleaved across symbols, which keeps adder BDDs linear).
    """

    def __init__(self, manager: BddManager, symbol_widths: dict[str, int]) -> None:
        self.manager = manager
        self._bits: dict[str, list[int]] = {name: [] for name in symbol_widths}
        self._var_origin: dict[int, tuple[str, int]] = {}
        max_width = max(symbol_widths.values(), default=0)
        names = sorted(symbol_widths)
        for bit in range(max_width):
            for name in names:
                if bit < symbol_widths[name]:
                    var = manager.new_var_index()
                    self._bits[name].append(manager.var_node(var))
                    self._var_origin[var] = (name, bit)

    @property
    def true_bit(self) -> int:
        return self.manager.TRUE

    @property
    def false_bit(self) -> int:
        return self.manager.FALSE

    def not_gate(self, a: int) -> int:
        return self.manager.not_(a)

    def and_gate(self, a: int, b: int) -> int:
        return self.manager.and_(a, b)

    def xor_gate(self, a: int, b: int) -> int:
        return self.manager.xor(a, b)

    def symbol_bits(self, name: str, width: int) -> list[int]:
        bits = self._bits.get(name)
        if bits is None or len(bits) != width:
            raise KeyError(f"symbol {name!r} was not pre-registered at width {width}")
        return bits

    def decode_assignment(self, assignment: dict[int, bool]) -> dict[str, int]:
        """Turn a variable assignment into symbol values (unset bits = 0)."""
        values: dict[str, int] = {name: 0 for name in self._bits}
        for var, value in assignment.items():
            if value:
                name, bit = self._var_origin[var]
                values[name] |= 1 << bit
        return values
