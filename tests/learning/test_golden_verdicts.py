"""Golden verification verdicts over the benchmark corpus.

Every candidate the learner verifies from the 12 benchmarks x both
codegen styles x O0-O3 is pinned: its canonical digest, its verdict
(or Table 1 failure code) and the digest of the rule it yields.  A
change to the solver or the verifier that alters any verdict must
update :data:`VERDICT_SHA256` on purpose.
"""

import hashlib
import io

from repro.benchsuite.suite import BENCHMARK_NAMES, benchmark_source
from repro.learning import pipeline
from repro.learning.pipeline import learn_corpus
from repro.learning.serialize import rule_digest
from repro.minic.compile import compile_pairs
from repro.obs.trace import read_trace, tracing

STYLES = ("llvm", "gcc")
OPT_LEVELS = (0, 1, 2, 3)
#: sha256 over every ``learn.verdict`` of the corpus run, in order:
#: build, candidate digest, result, failure code, rule digest.
VERDICT_SHA256 = (
    "eb727a62accd9208e14fc8ca83b1a7feb7c2775666b0a99b304e75e9f51bc2c6"
)


def test_corpus_verdicts(monkeypatch):
    builds = {}
    for name in BENCHMARK_NAMES:
        source = benchmark_source(name, "ref")
        for level in OPT_LEVELS:
            pairs = compile_pairs(source, level, STYLES)
            for style in STYLES:
                builds[f"{name}-{style}-O{level}"] = pairs[style]

    rules_by_digest: dict[str, str | None] = {}
    resolve = pipeline.resolve_candidate

    def recording(context, mappings, **kwargs):
        outcome = resolve(context, mappings, **kwargs)
        rules_by_digest[kwargs["digest"]] = (
            rule_digest(outcome.rule) if outcome.rule is not None else None)
        return outcome

    monkeypatch.setattr(pipeline, "resolve_candidate", recording)
    sink = io.StringIO()
    with tracing(sink):
        learn_corpus(builds)
    sink.seek(0)

    digest = hashlib.sha256()
    verdicts = 0
    for record in read_trace(sink):
        if record.name != "learn.verdict":
            continue
        fields = record.fields
        digest.update(repr((
            fields["benchmark"], fields["digest"], fields["result"],
            fields["reason"], rules_by_digest[fields["digest"]],
        )).encode())
        verdicts += 1
    assert verdicts > 0
    assert digest.hexdigest() == VERDICT_SHA256
