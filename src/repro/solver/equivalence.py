"""Equivalence checking of IR expressions (the STP-substitute API).

The decision procedure runs three stages in order:

1. canonicalization (:func:`repro.ir.simplify.simplify`) — structural
   equality proves equivalence,
2. concrete testing — a mismatch disproves it: every variable at the
   same corner value, then random values, then (with two or more
   variables) paired corners, where the variables take unequal corner
   values in a fixed rotation so that an order-sensitive pair such as
   the overflow flag of ``a - b`` against that of ``b - a`` is refuted
   without a BDD,
3. ROBDD construction with interleaved variable order — identical BDDs
   prove equivalence; differing BDDs yield a counterexample path.

If the BDD node budget is exceeded (essentially only variable-times-
variable multiplication) the query is reported UNKNOWN and the caller
decides: the rule learner counts these as "Other" verification
failures, like the paper's symbolic-execution timeouts.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Iterator
from dataclasses import dataclass

from repro.ir.evaluate import evaluate
from repro.ir.expr import Expr, mask
from repro.ir.simplify import simplify
from repro.ir.traverse import variables
from repro.solver.bdd import BddBackend, BddBudgetExceeded, BddManager
from repro.solver.gates import CircuitBuilder

_RANDOM_SAMPLES = 24
_INTERESTING = (0, 1, 2, 0xFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


class Verdict(enum.Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not_equal"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence query.

    Attributes:
        verdict: EQUAL, NOT_EQUAL, or UNKNOWN (budget exceeded).
        counterexample: Symbol assignment witnessing inequality, if any.
        method: Which stage decided: "syntactic" (simplify), "random"
            (concrete testing), "bdd", or "budget" (the BDD outgrew its
            node budget; the verdict is UNKNOWN).
    """

    verdict: Verdict
    counterexample: dict[str, int] | None
    method: str

    @property
    def equal(self) -> bool:
        return self.verdict is Verdict.EQUAL


def check_equal(
    a: Expr,
    b: Expr,
    *,
    seed: int = 0,
    bdd_budget: int = 400_000,
) -> EquivalenceResult:
    """Decide whether ``a`` and ``b`` denote the same function.

    The two expressions must have the same width.  Free symbols with the
    same name are shared between the two sides.
    """
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    sa, sb = simplify(a), simplify(b)
    if sa == sb:
        return EquivalenceResult(Verdict.EQUAL, None, "syntactic")

    names: dict[str, int] = {}
    names.update(variables(sa))
    names.update(variables(sb))
    rng = random.Random(seed)
    for sample in range(_RANDOM_SAMPLES):
        env = _sample_env(names, rng, sample)
        if evaluate(sa, env) != evaluate(sb, env):
            return EquivalenceResult(Verdict.NOT_EQUAL, env, "random")
    if len(names) > 1:
        for env in _paired_corners(names):
            if evaluate(sa, env) != evaluate(sb, env):
                return EquivalenceResult(Verdict.NOT_EQUAL, env, "random")

    try:
        return _check_bdd(sa, sb, names, bdd_budget)
    except BddBudgetExceeded:
        return EquivalenceResult(Verdict.UNKNOWN, None, "budget")


def prove_equal(a: Expr, b: Expr, *, seed: int = 0) -> bool:
    """Convenience wrapper: True only when equivalence is *proven*."""
    return check_equal(a, b, seed=seed).equal


def find_counterexample(a: Expr, b: Expr, *, seed: int = 0) -> dict[str, int] | None:
    """Return a symbol assignment where ``a`` and ``b`` differ, if any."""
    return check_equal(a, b, seed=seed).counterexample


def _check_bdd(
    a: Expr, b: Expr, names: dict[str, int], budget: int
) -> EquivalenceResult:
    manager = BddManager(node_budget=budget)
    backend = BddBackend(manager, names)
    circuit = CircuitBuilder(backend)
    bits_a = circuit.lower(a)
    bits_b = circuit.lower(b)
    for bit_a, bit_b in zip(bits_a, bits_b):
        if bit_a == bit_b:
            continue
        diff = manager.xor(bit_a, bit_b)
        path = manager.satisfying_path(diff)
        if path is None:
            continue
        env = backend.decode_assignment(path)
        return EquivalenceResult(Verdict.NOT_EQUAL, env, "bdd")
    return EquivalenceResult(Verdict.EQUAL, None, "bdd")


def _sample_env(names: dict[str, int], rng: random.Random, round_no: int) -> dict:
    env: dict[str, int] = {}
    for name, width in names.items():
        if round_no < len(_INTERESTING):
            env[name] = _INTERESTING[round_no] & mask(width)
        else:
            env[name] = rng.getrandbits(width)
    return env


def _paired_corners(names: dict[str, int]) -> Iterator[dict[str, int]]:
    """The 42 assignments giving variable ``i`` the corner value
    ``_INTERESTING[(first + i * step) % 7]``, for each step 1-6 and
    first 0-6.  Since 7 is prime, two variables whose indices differ by
    other than a multiple of 7 meet every ordered pair of distinct
    corner values."""
    count = len(_INTERESTING)
    for step in range(1, count):
        for first in range(count):
            yield {
                name: _INTERESTING[(first + i * step) % count] & mask(width)
                for i, (name, width) in enumerate(names.items())
            }
