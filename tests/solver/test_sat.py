"""Propositional satisfiability decided by the ROBDD engine.

The BDD manager is the solver's only decision procedure, so these CNF
formulas (DIMACS-style literals: ``v`` / ``-v`` for variable ``v >= 1``)
are built as BDDs: a formula is UNSAT exactly when its BDD is FALSE, and
:meth:`BddManager.satisfying_path` supplies the model otherwise.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.bdd import BddManager


class _CnfSolver:
    """Conjoins clauses into one BDD; variable ``v`` is BDD variable ``v - 1``."""

    def __init__(self) -> None:
        self.manager = BddManager()
        self.formula = self.manager.TRUE
        self.model: dict[int, bool] | None = None
        self.num_vars = 0

    def _var(self, v: int) -> int:
        while self.num_vars < v:
            self.num_vars = self.manager.new_var_index() + 1
        return self.manager.var_node(v - 1)

    def add_clause(self, clause: list[int]) -> None:
        manager = self.manager
        node = manager.FALSE
        for lit in clause:
            var = self._var(abs(lit))
            node = manager.or_(node, var if lit > 0 else manager.not_(var))
        self.formula = manager.and_(self.formula, node)

    def solve(self) -> bool:
        self.model = self.manager.satisfying_path(self.formula)
        return self.model is not None

    def value(self, lit: int) -> bool:
        # Variables off the satisfying path are unconstrained; read them as False.
        bit = self.model.get(abs(lit) - 1, False)
        return bit if lit > 0 else not bit


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert _CnfSolver().solve()

    def test_unit_clause(self):
        solver = _CnfSolver()
        solver.add_clause([1])
        assert solver.solve()
        assert solver.value(1) is True

    def test_contradicting_units(self):
        solver = _CnfSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.solve()

    def test_empty_clause_is_unsat(self):
        solver = _CnfSolver()
        solver.add_clause([])
        assert not solver.solve()

    def test_tautology_ignored(self):
        solver = _CnfSolver()
        solver.add_clause([1, -1])
        assert solver.formula == solver.manager.TRUE
        assert solver.solve()

    def test_simple_implication_chain(self):
        solver = _CnfSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve()
        assert solver.value(3) is True

    def test_model_satisfies_clauses(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        solver = _CnfSolver()
        for clause in clauses:
            solver.add_clause(list(clause))
        assert solver.solve()
        for clause in clauses:
            assert any(solver.value(lit) for lit in clause)


class TestPigeonhole:
    """PHP(n+1, n) is classically UNSAT; its BDD must reduce to FALSE."""

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_unsat(self, holes):
        pigeons = holes + 1
        solver = _CnfSolver()

        def var(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert not solver.solve()
        assert solver.formula == solver.manager.FALSE


def _brute_force(num_vars: int, clauses: list[list[int]]) -> bool:
    for assignment in range(1 << num_vars):
        def value(lit: int) -> bool:
            bit = bool(assignment >> (abs(lit) - 1) & 1)
            return bit if lit > 0 else not bit

        if all(any(value(lit) for lit in clause) for clause in clauses):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_3sat_matches_brute_force(data):
    num_vars = data.draw(st.integers(3, 8))
    num_clauses = data.draw(st.integers(1, 24))
    rng = random.Random(data.draw(st.integers(0, 2**31)))
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clause = [
            rng.choice([1, -1]) * rng.randint(1, num_vars)
            for _ in range(width)
        ]
        clauses.append(clause)
    solver = _CnfSolver()
    for clause in clauses:
        solver.add_clause(list(clause))
    result = solver.solve()
    expected = _brute_force(num_vars, clauses)
    assert result == expected
    if result:
        for clause in clauses:
            assert any(solver.value(lit) for lit in clause)
