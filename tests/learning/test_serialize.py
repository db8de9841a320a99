"""Rule repository serialization round trips."""

import pytest

from repro.learning import learn_rules
from repro.learning.serialize import (
    RuleFormatError,
    dumps_rules,
    loads_rules,
)
from repro.learning.store import RuleStore
from repro.minic import compile_source

SOURCE = """
int a[8];
int main(void) {
  int s = 0;
  int i = 0;
  while (i < 8) {
    a[i] = i * 4 + 1;
    s = s + a[i] - 1;
    i += 1;
  }
  return s;
}
"""


@pytest.fixture(scope="module")
def rules():
    guest = compile_source(SOURCE, "arm", 2, "llvm")
    host = compile_source(SOURCE, "x86", 2, "llvm")
    return learn_rules(guest, host, benchmark="ser").rules


class TestRoundTrip:
    def test_rules_survive_roundtrip(self, rules):
        text = dumps_rules(rules)
        restored = loads_rules(text)
        assert restored == rules

    def test_metadata_preserved(self, rules):
        restored = loads_rules(dumps_rules(rules))
        for before, after in zip(rules, restored):
            assert after.origin == before.origin
            assert after.cc_info == before.cc_info
            assert after.line == before.line
            assert after.temps == before.temps

    def test_restored_rules_still_translate(self, rules):
        from repro.dbt.direct import run_arm_program
        from repro.dbt.engine import run_dbt

        restored = loads_rules(dumps_rules(rules))
        store = RuleStore.from_rules(restored)
        guest = compile_source(SOURCE, "arm", 2, "llvm")
        expected = run_arm_program(guest).return_value
        result = run_dbt(guest, "rules", store)
        assert result.return_value == expected
        assert result.stats.dynamic_coverage > 0

    def test_hash_keys_stable(self, rules):
        restored = loads_rules(dumps_rules(rules))
        for before, after in zip(rules, restored):
            assert after.hash_key() == before.hash_key()


class TestErrors:
    def test_not_a_repository(self):
        with pytest.raises(RuleFormatError):
            loads_rules('{"format": "something-else", "version": 1}')

    def test_wrong_version(self):
        with pytest.raises(RuleFormatError):
            loads_rules(
                '{"format": "repro-dbt-rules", "version": 99, "rules": []}'
            )

    def test_missing_field(self):
        with pytest.raises(RuleFormatError):
            loads_rules(
                '{"format": "repro-dbt-rules", "version": 1,'
                ' "rules": [{"guest": []}]}'
            )


class TestCli:
    def test_learn_cli(self, tmp_path, capsys):
        from repro.learning.cli import main

        source_file = tmp_path / "p.c"
        source_file.write_text(SOURCE)
        output = tmp_path / "rules.json"
        assert main([str(source_file), "-o", str(output), "--print",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert output.exists()
        restored = loads_rules(output.read_text())
        assert restored
