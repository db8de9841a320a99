"""Golden oracle for ``python -m repro.obs.report``.

The fixtures under ``data/`` are frozen traces:

* ``learn_dbt.jsonl`` — ``learn_rules`` on a small MiniC program
  (benchmark ``unit``), then a qemu-mode engine run once and a
  rules-mode engine run twice;
* ``corpus.jsonl`` — a 4-program ``run_ingest(seed=11,
  regions=("arith", "bitops"))`` corpus session on fresh state;
* ``service.jsonl`` — a synthetic rule-service client trace (gap
  reports, publishes, syncs and ``dbt.hot_install`` events);
* ``tampered.jsonl`` — the three above concatenated, with one
  embedded-summary field bumped per section: a ``learn.report``
  ``rules`` count, the last ``dbt.run`` lifetime ``dispatches``, the
  last ``dbt.rule_profile`` ``hits``, a ``service.sync_result``
  ``rules_installed`` and the ``corpus.report`` ``novel_rules``;
* ``dropped.jsonl`` — the three concatenated without the ``unit``
  ``learn.report``, the rules engine's ``dbt.run`` records and the
  ``corpus.report``.

The three clean traces are also pinned read together, as one
multi-file report.  The digests pin the exact stdout bytes (text and
``--json``) and the exit code, so any change to the aggregation, the
reconciliation messages or the rendering shows up here.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro.obs.report import main

DATA = Path(__file__).parent / "data"

#: (trace files, extra argv) -> (exit code, sha256 of stdout)
GOLDEN = {
    (("learn_dbt",), ()): (
        0, "dcf7173236e04526b2561714899f70935b1108bad6c4c78af2bb9a6bc27aeda2"),
    (("learn_dbt",), ("--json",)): (
        0, "662e6993e1a62b04d3cf14c48d618d017344b97b796f46d2c924dcff128cfa49"),
    (("corpus",), ()): (
        0, "1599b7253f61779344156a8cc3fcdc1e0aaed38be164d82f110dc9e5e216e7ce"),
    (("corpus",), ("--json",)): (
        0, "4e7cc128819102522c13cdc369eed8ef2270f72f58abaf458f6b9e647f90bfe7"),
    (("service",), ()): (
        0, "17876715612f923025ab32d6e3a18cc8659a877374683533c2b9916942043da7"),
    (("service",), ("--json",)): (
        0, "66847a2f7c57c035f45786e6e243b78039a0c4b0bacc5c91b60ac17a1dcc9dde"),
    (("learn_dbt", "corpus", "service"), ()): (
        0, "bc353fc5541c92c4a26b56b8f132c14e03b1b8e2fbc2cce0a39578aa542c95b0"),
    (("learn_dbt", "corpus", "service"), ("--json",)): (
        0, "d1246a813c5106cda078710d7815bd839e23985c0db485a5f1ade4c4c1bb9427"),
    (("tampered",), ()): (
        1, "ce9d67b128a1759d83f54980901d1a3ac348495b64aa95c5496a85b19771f561"),
    (("tampered",), ("--json",)): (
        1, "0040bb3c8821baad19492c8bb63792cdbfa338fc26a8ddec0a9955aea98d2f1e"),
    (("dropped",), ()): (
        1, "3912a0361d34ac56a27e9b2387ec583cb7a1b5f7c983cca200ff9d12215fa1e1"),
    (("dropped",), ("--json",)): (
        1, "dbf17f37cfd58873863b29fe6edf11981b68a18599dea7f34368eb18e682a894"),
}


def run_report(names, extra):
    out = StringIO()
    with redirect_stdout(out):
        code = main([str(DATA / f"{name}.jsonl") for name in names]
                    + list(extra))
    return code, out.getvalue()


@pytest.mark.parametrize("names,extra", sorted(GOLDEN),
                         ids=lambda v: "+".join(v) or "text")
def test_report_output_is_pinned(names, extra):
    code, stdout = run_report(names, extra)
    expected_code, expected_digest = GOLDEN[names, extra]
    assert code == expected_code
    assert hashlib.sha256(stdout.encode()).hexdigest() == \
        expected_digest, stdout


def test_tampered_fixture_flags_every_section():
    code, stdout = run_report(("tampered",), ())
    assert code == 1
    mismatches = [line.strip() for line in stdout.splitlines()
                  if "MISMATCH" in line]
    assert len(mismatches) == 5
    for fragment in ("unit: rules derived", "dispatches derived",
                     "rule_profile hits", "sync_result rules_installed",
                     "corpus: novel_rules derived"):
        assert any(fragment in line for line in mismatches), fragment
