"""Metric census: every name the product records has a named reader.

The run records (``LearningReport``, ``CacheStats``, ``DBTStats``,
``FeedResult``, ``SyncResult``, ...) are the one count of what a run
did; the registry holds only what no record does.  A name earns its
place here by a *reader*: a gate, an SLO objective, a reconciliation,
a BENCH key, or a test that asserts the value the product records.
A name seen only through the generic dumps (``--metrics``, the
``stats`` op, the Prometheus exposition) has no reader and is deleted
instead of listed.

The walk covers ``src/`` outside :mod:`repro.obs` (the registry's own
home).  It also fails on a module that imports from
:mod:`repro.obs.metrics` a name it never uses, so a deleted emit site
cannot leave its import behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
RECORDERS = ("inc", "observe")

#: Every recorded metric name (``prefix*`` for an f-string name) ->
#: the file that reads it.
KEPT_METRICS = {
    "learning.worker.resolved": "tests/obs/test_metrics.py",
    "learning.worker.verify_calls": "scripts/slo_gate.py",
    "learning.worker.calls_per_candidate": "tests/obs/test_metrics.py",
    "learning.worker.timeouts": "tests/faults/test_chaos_parallel.py",
    "learning.worker.seconds": "scripts/slo_gate.py",
    "learning.worker.chunks": "tests/obs/test_metrics.py",
    "learning.pool.workers": "tests/obs/test_metrics.py",
    "learning.pool.chunks": "tests/obs/test_metrics.py",
    "learning.pool.restarts": "tests/faults/test_chaos_parallel.py",
    "learning.pool.retries": "tests/faults/test_chaos_parallel.py",
    "learning.pool.bisections": "tests/faults/test_chaos_parallel.py",
    "learning.pool.quarantined": "tests/faults/test_chaos_parallel.py",
    "learning.journal.replayed": "tests/learning/test_parallel.py",
}


def product_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] != "obs":
            yield path, ast.parse(path.read_text(), str(path))


def metric_name(node: ast.expr, where: str) -> str:
    """A literal name, or an f-string's literal prefix plus ``*``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        prefix = ""
        for part in node.values:
            if not isinstance(part, ast.Constant):
                break
            prefix += part.value
        return prefix + "*"
    raise AssertionError(f"{where}: metric name is not a literal")


def recorded_names() -> dict[str, list[str]]:
    """Recorded name -> the ``file:line`` sites recording it."""
    names: dict[str, list[str]] = {}
    for path, tree in product_modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in RECORDERS):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                names.setdefault(metric_name(node.args[0], where),
                                 []).append(where)
    return names


def test_every_recorded_name_is_kept():
    recorded = recorded_names()
    unlisted = {name: sites for name, sites in recorded.items()
                if name not in KEPT_METRICS}
    assert not unlisted, f"recorded with no named reader: {unlisted}"
    assert not set(KEPT_METRICS) - set(recorded), \
        "KEPT_METRICS lists names nothing records"


def test_each_reader_names_its_metric():
    for name, reader in KEPT_METRICS.items():
        text = (ROOT / reader).read_text()
        assert name.rstrip("*") in text, f"{reader} never reads {name}"


def test_no_unused_metrics_import():
    for path, tree in product_modules():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.obs.metrics"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert imported <= used, \
            f"{path.relative_to(ROOT)} imports {imported - used} unused"
