"""``repro-learn``'s verification-economy block, cold then warm cache."""

import contextlib
import io

import pytest

from repro.learning.cli import main
from tests.learning.test_pipeline import SOURCE

TITLE = "verification economy:"


def economy(stderr: str) -> dict[str, int]:
    """The whole-number ``name value`` rows of the economy block; a
    name the block leaves out reads as 0."""
    lines = stderr.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith(TITLE)]
    assert len(heads) == 1, stderr
    rows: dict[str, int] = {}
    for line in lines[heads[0] + 1:]:
        if not line.startswith("  "):
            break
        name, value = line.split(None, 1)
        if value.strip().isdigit():
            rows[name] = int(value)
    return rows


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(cold, warm) economy rows of two runs sharing one cache dir."""
    root = tmp_path_factory.mktemp("economy")
    source = root / "p.c"
    source.write_text(SOURCE)
    argv = [str(source), "--cache-dir", str(root / "cache")]
    results = []
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 0
        results.append(economy(err.getvalue()))
    return results


def count(rows: dict[str, int], name: str) -> int:
    return rows.get(name, 0)


class TestEconomyBlock:
    def test_cold_run_misses_fill_the_cache(self, runs):
        cold, _ = runs
        assert count(cold, "learning.cache.hits") == 0
        assert count(cold, "learning.cache.misses") \
            == count(cold, "learning.cache.entries") > 0
        assert count(cold, "learning.verify.calls") > 0

    def test_warm_run_verifies_nothing(self, runs):
        _, warm = runs
        assert count(warm, "learning.verify.calls") == 0
        assert count(warm, "learning.cache.misses") == 0
        assert count(warm, "learning.cache.hits") \
            == count(warm, "learning.cache.entries") > 0
