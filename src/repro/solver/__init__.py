"""Equivalence prover for IR expressions.

This package plays the role of the STP SMT solver in the paper's
toolchain.  The decision procedure for ``a == b`` over bitvectors runs
three stages in order (see :mod:`repro.solver.equivalence`):

1. canonicalization; structural equality proves equivalence,
2. directed + random testing; a mismatch disproves it,
3. ROBDDs with interleaved variable order over the word-level circuits
   of :mod:`repro.solver.gates`; a query whose BDD outgrows the node
   budget is UNKNOWN.
"""

from repro.solver.bdd import BddBackend, BddBudgetExceeded, BddManager
from repro.solver.equivalence import (
    EquivalenceResult,
    Verdict,
    check_equal,
    find_counterexample,
    prove_equal,
)
from repro.solver.gates import CircuitBuilder

__all__ = [
    "BddBackend",
    "BddBudgetExceeded",
    "BddManager",
    "CircuitBuilder",
    "EquivalenceResult",
    "Verdict",
    "check_equal",
    "find_counterexample",
    "prove_equal",
]
