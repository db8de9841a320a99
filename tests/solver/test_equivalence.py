"""The equivalence checker: syntactic / random / BDD stages."""

from hypothesis import given, settings, strategies as st

from repro import ir
from repro.ir.evaluate import evaluate
from repro.solver import Verdict, check_equal, find_counterexample, prove_equal


X = ir.sym(32, "x")
Y = ir.sym(32, "y")


class TestKnownEquivalences:
    def test_lea_identity(self):
        arm = ir.sub(ir.add(X, Y), ir.bv(32, 1))
        x86 = ir.add(ir.add(X, Y), ir.bv(32, 0xFFFFFFFF))
        assert prove_equal(arm, x86)

    def test_xor_via_or_minus_and(self):
        assert prove_equal(
            ir.xor(X, Y), ir.sub(ir.or_(X, Y), ir.and_(X, Y))
        )

    def test_demorgan(self):
        assert prove_equal(
            ir.not_(ir.and_(X, Y)), ir.or_(ir.not_(X), ir.not_(Y))
        )

    def test_mod2_is_and1(self):
        assert prove_equal(ir.and_(X, ir.bv(32, 1)), ir.urem(X, ir.bv(32, 2)))

    def test_average_identity(self):
        # (x & y) + ((x ^ y) >> 1) == overflow-free average
        lhs = ir.add(ir.and_(X, Y), ir.lshr(ir.xor(X, Y), ir.bv(32, 1)))
        rhs = ir.add(
            ir.lshr(X, ir.bv(32, 1)),
            ir.add(ir.lshr(Y, ir.bv(32, 1)),
                   ir.and_(ir.and_(X, Y), ir.bv(32, 1))),
        )
        assert prove_equal(lhs, rhs)


class TestKnownInequivalences:
    def test_off_by_one(self):
        result = check_equal(ir.add(X, ir.bv(32, 1)), ir.add(X, ir.bv(32, 2)))
        assert result.verdict is Verdict.NOT_EQUAL
        assert result.counterexample is not None

    def test_sdiv_is_not_ashr(self):
        # Rounds differently for negative odd values.
        assert not prove_equal(
            ir.sdiv(X, ir.bv(32, 2)), ir.ashr(X, ir.bv(32, 1))
        )

    def test_sub_nz_is_not_slt(self):
        # The classic N-flag-vs-signed-less-than overflow trap.
        n_flag = ir.extract(31, 31, ir.sub(X, Y))
        assert not prove_equal(
            n_flag, ir.ite(ir.slt(X, Y), ir.bv(1, 1), ir.bv(1, 0))
        )

    def test_swapped_subtraction_overflow_refuted_by_corners(self):
        # ARM V of ``x - y`` against x86 OF of ``y - x``: the flags agree
        # except where one difference is 0x80000000, which random values
        # miss and equal corner values never reach.
        def sub_overflow(a, b):
            return ir.extract(31, 31, ir.and_(ir.xor(a, b),
                                              ir.xor(a, ir.sub(a, b))))

        a, b = sub_overflow(X, Y), sub_overflow(Y, X)
        result = check_equal(a, b)
        assert result.verdict is Verdict.NOT_EQUAL
        assert result.method == "random"
        assert evaluate(a, result.counterexample) != evaluate(
            b, result.counterexample)

    def test_counterexample_is_genuine(self):
        a = ir.lshr(ir.add(X, Y), ir.bv(32, 1))  # drops the carry
        b = ir.add(ir.and_(X, Y), ir.lshr(ir.xor(X, Y), ir.bv(32, 1)))
        env = find_counterexample(a, b)
        assert env is not None
        assert evaluate(a, env) != evaluate(b, env)


class TestWidthHandling:
    def test_width_mismatch_raises(self):
        import pytest

        with pytest.raises(ValueError):
            check_equal(ir.bv(8, 1), ir.bv(32, 1))

    def test_narrow_budget_overflow_reports_unknown(self):
        """A BDD that outgrows its budget is UNKNOWN at every width."""
        a8 = ir.sym(8, "a")
        b8 = ir.sym(8, "b")
        result = check_equal(
            ir.mul(a8, ir.add(b8, ir.bv(8, 1))),
            ir.add(ir.mul(a8, b8), a8),
            bdd_budget=16,
        )
        assert result.verdict is Verdict.UNKNOWN
        assert result.method == "budget"

    def test_budget_exhaustion_reports_unknown(self):
        z = ir.sym(32, "z")
        hard = ir.mul(ir.mul(X, Y), z)
        hard2 = ir.mul(X, ir.mul(Y, z))
        result = check_equal(hard, hard2, bdd_budget=5_000)
        assert result.verdict in (Verdict.EQUAL, Verdict.UNKNOWN)


@settings(max_examples=30, deadline=None)
@given(
    c1=st.integers(0, 0xFFFFFFFF),
    c2=st.integers(0, 0xFFFFFFFF),
)
def test_linear_forms_always_decided(c1, c2):
    """add/sub/const combinations never need the slow engines."""
    lhs = ir.add(ir.sub(X, ir.bv(32, c1)), ir.bv(32, c2))
    rhs = ir.add(X, ir.bv(32, (c2 - c1) & 0xFFFFFFFF))
    result = check_equal(lhs, rhs)
    assert result.verdict is Verdict.EQUAL
    assert result.method == "syntactic"


@settings(max_examples=20, deadline=None)
@given(shift=st.integers(1, 4), delta=st.integers(0, 255))
def test_scaled_index_addressing_equivalence(shift, delta):
    """ARM shifted-index vs x86 SIB scaling, arbitrary displacement."""
    arm = ir.add(ir.add(Y, ir.shl(X, ir.bv(32, shift))), ir.bv(32, delta))
    x86 = ir.add(ir.add(ir.mul(X, ir.bv(32, 1 << shift)), Y),
                 ir.bv(32, delta))
    assert prove_equal(arm, x86)
