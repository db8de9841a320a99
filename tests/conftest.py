"""Fixtures shared across test packages."""

import pytest

from repro.learning import verify


@pytest.fixture
def solver_queries(monkeypatch):
    """Every ``(a, b)`` the verifier hands the solver, in order."""
    queries = []
    check_equal = verify.check_equal

    def recording(a, b, **kwargs):
        queries.append((a, b))
        return check_equal(a, b, **kwargs)

    monkeypatch.setattr(verify, "check_equal", recording)
    return queries
