"""The simplifier: canonicalization properties + semantic preservation."""

from hypothesis import given, strategies as st

from repro import ir
from repro.ir.evaluate import evaluate
from repro.ir.simplify import simplify


X = ir.sym(32, "x")
Y = ir.sym(32, "y")
Z = ir.sym(32, "z")


class TestCanonicalEquality:
    """Equivalent expressions must simplify to identical trees — this is
    what lets most rule verifications succeed without the BDD
    engine."""

    def test_commutative_add(self):
        assert simplify(ir.add(X, Y)) == simplify(ir.add(Y, X))

    def test_associative_add(self):
        assert simplify(ir.add(ir.add(X, Y), Z)) == \
            simplify(ir.add(X, ir.add(Y, Z)))

    def test_sub_as_negative_add(self):
        a = ir.sub(ir.add(X, Y), ir.bv(32, 1))
        b = ir.add(ir.add(X, Y), ir.bv(32, 0xFFFFFFFF))
        assert simplify(a) == simplify(b)

    def test_shift_equals_scale(self):
        assert simplify(ir.shl(X, ir.bv(32, 2))) == \
            simplify(ir.mul(X, ir.bv(32, 4)))

    def test_address_forms(self):
        # ARM: (y + (x << 2)) - 4   vs  x86: y + x*4 + (-4)
        arm = ir.sub(ir.add(Y, ir.shl(X, ir.bv(32, 2))), ir.bv(32, 4))
        x86 = ir.add(ir.add(Y, ir.mul(X, ir.bv(32, 4))),
                     ir.bv(32, 0xFFFFFFFC))
        assert simplify(arm) == simplify(x86)

    def test_movzbl_equals_and_255(self):
        a = ir.zext(32, ir.extract(7, 0, X))
        b = ir.and_(X, ir.bv(32, 255))
        assert simplify(a) == simplify(b)

    def test_repeated_term_becomes_multiplication(self):
        a = ir.add(ir.add(X, X), X)
        b = ir.mul(X, ir.bv(32, 3))
        assert simplify(a) == simplify(b)

    def test_term_cancellation(self):
        expr = ir.sub(ir.add(X, Y), Y)
        assert simplify(expr) == X

    def test_full_cancellation_to_zero(self):
        expr = ir.sub(ir.add(X, Y), ir.add(Y, X))
        assert simplify(expr) == ir.bv(32, 0)

    def test_cmp_sub_zero_normalization(self):
        a = ir.eq(ir.sub(X, Y), ir.bv(32, 0))
        b = ir.eq(X, Y)
        assert simplify(a) == simplify(b)

    def test_neg_never_becomes_mul_by_minus_one(self):
        # mul by 0xffffffff would force a full multiplier in the BDD
        # engine (regression: exponential blowup).
        text = str(simplify(ir.sub(X, ir.mul(Y, ir.bv(32, 1)))))
        assert "0xffffffff" not in text

    def test_and_mask_collapse(self):
        expr = ir.and_(ir.and_(X, ir.bv(32, 0xFFFF)), ir.bv(32, 0xFF))
        assert simplify(expr) == simplify(ir.and_(X, ir.bv(32, 0xFF)))

    def test_xor_self_is_zero(self):
        assert simplify(ir.xor(X, X)) == ir.bv(32, 0)


_EXPR_DEPTH = 4


def _exprs(draw, depth: int):
    choice = draw(st.integers(0, 7 if depth > 0 else 1))
    if choice == 0:
        return ir.bv(32, draw(st.integers(0, 0xFFFFFFFF)))
    if choice == 1:
        return ir.sym(32, draw(st.sampled_from(["x", "y", "z"])))
    a = _exprs(draw, depth - 1)
    b = _exprs(draw, depth - 1)
    ops = [ir.add, ir.sub, ir.mul, ir.and_, ir.or_, ir.xor]
    if choice < 8 - 2:
        return ops[choice - 2](a, b)
    return ir.shl(a, ir.bv(32, draw(st.integers(0, 31))))


@st.composite
def random_expr(draw):
    return _exprs(draw, _EXPR_DEPTH)


@given(
    expr=random_expr(),
    x=st.integers(0, 0xFFFFFFFF),
    y=st.integers(0, 0xFFFFFFFF),
    z=st.integers(0, 0xFFFFFFFF),
)
def test_simplify_preserves_semantics(expr, x, y, z):
    env = {"x": x, "y": y, "z": z}
    assert evaluate(simplify(expr), env) == evaluate(expr, env)


@given(expr=random_expr())
def test_simplify_is_idempotent(expr):
    once = simplify(expr)
    assert simplify(once) == once
