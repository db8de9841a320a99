"""The BDD engine must agree with brute force on every query.

Runs random small-width expressions through the BDD circuit builder
and compares its verdicts with exhaustive evaluation as referee.
"""

from hypothesis import given, settings, strategies as st

from repro import ir
from repro.ir.evaluate import evaluate
from repro.solver.bdd import BddBackend, BddManager
from repro.solver.gates import CircuitBuilder

WIDTH = 5


def _expr(draw, depth):
    choice = draw(st.integers(0, 8 if depth > 0 else 1))
    if choice == 0:
        return ir.bv(WIDTH, draw(st.integers(0, (1 << WIDTH) - 1)))
    if choice == 1:
        return ir.sym(WIDTH, draw(st.sampled_from(["a", "b"])))
    x = _expr(draw, depth - 1)
    y = _expr(draw, depth - 1)
    ops = [ir.add, ir.sub, ir.mul, ir.and_, ir.or_, ir.xor, ir.udiv]
    if choice - 2 < len(ops):
        return ops[choice - 2](x, y)
    return ir.shl(x, ir.bv(WIDTH, draw(st.integers(0, WIDTH))))


@st.composite
def small_expr_pair(draw):
    return _expr(draw, 3), _expr(draw, 3)


def _brute_equal(a, b) -> bool:
    for va in range(1 << WIDTH):
        for vb in range(1 << WIDTH):
            env = {"a": va, "b": vb}
            if evaluate(a, env) != evaluate(b, env):
                return False
    return True


def _bdd_equal(a, b) -> bool:
    manager = BddManager()
    backend = BddBackend(manager, {"a": WIDTH, "b": WIDTH})
    circuit = CircuitBuilder(backend)
    bits_a = circuit.lower(a)
    bits_b = circuit.lower(b)
    return all(
        manager.xor(x, y) == manager.FALSE for x, y in zip(bits_a, bits_b)
    )


@settings(max_examples=40, deadline=None)
@given(pair=small_expr_pair())
def test_engines_agree_with_brute_force(pair):
    a, b = pair
    truth = _brute_equal(a, b)
    assert _bdd_equal(a, b) == truth
