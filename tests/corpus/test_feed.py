"""Feeds: novelty accounting, provenance, and the service ingest op."""

from repro.benchsuite import build_learning_pair
from repro.corpus.cli import run_ingest
from repro.corpus.dedup import SeenStore
from repro.corpus.feed import LocalFeed
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.corpus.pipeline import IngestPipeline
from repro.learning import pipeline
from repro.learning.pipeline import learn_rules
from repro.service.learner import OnlineLearner
from repro.service.repo import RuleRepository
from repro.service.server import RuleService


def _program(index=0, region="mixed"):
    source = generate_program(REGIONS[region], 17, region, index)
    return IngestPipeline(SeenStore()).process(source, region=region,
                                               seed=17, index=index)


class TestLocalFeed:
    def test_rules_carry_corpus_provenance(self):
        program = _program()
        feed = LocalFeed()
        result = feed.feed(program)
        assert result.origin == program.origin
        assert result.origin.startswith("corpus:")
        for rule in result.rules:
            assert rule.origin == program.origin

    def test_baseline_rules_are_never_novel(self):
        """Rediscovering a benchsuite rule counts for nothing: novelty
        is rule identity, which ignores origin and line."""
        program = _program()
        cold = LocalFeed().feed(program)
        # Styles overlap, so distinct identities <= total rules.
        assert 0 < cold.novel <= len(cold.rules)
        seeded = LocalFeed(baseline=cold.rules).feed(program)
        assert seeded.rules
        assert seeded.novel == 0

    def test_repeat_feed_is_not_novel_again(self):
        feed = LocalFeed()
        first = feed.feed(_program())
        again = feed.feed(_program())
        assert first.novel > 0
        assert again.novel == 0

    def test_report_merged_per_origin_across_styles(self):
        program = _program()
        feed = LocalFeed()
        feed.feed(program)
        merged = feed.reports[program.origin]
        assert merged.benchmark == program.origin
        # Both styles contributed: the merged report saw at least as
        # many sequences as either style alone.
        guest, host = program.builds["llvm"]
        solo = learn_rules(guest, host, benchmark=program.origin)
        assert merged.total_sequences >= solo.report.total_sequences


    def test_each_build_is_extracted_once(self, monkeypatch):
        """The feed learns from the builds ingestion staged: one
        ``extract_pairs`` call per staged build, none when feeding."""
        calls = []
        extract = pipeline.extract_pairs

        def counting(*args, **kwargs):
            calls.append(args)
            return extract(*args, **kwargs)

        monkeypatch.setattr(pipeline, "extract_pairs", counting)
        summary = run_ingest(seed=3, programs=4, feed=LocalFeed())
        assert summary.fed == summary.programs == 4
        assert len(calls) == 2 * summary.programs


class TestServiceIngest:
    def _service(self, tmp_path):
        learner = OnlineLearner(
            builds={"mcf": build_learning_pair("mcf")}
        )
        return RuleService(RuleRepository(tmp_path / "repo"),
                           learner=learner)

    def test_ingest_source_stages_and_queues_gaps(self, tmp_path):
        service = self._service(tmp_path)
        service.learner.staged_candidates()  # force initial staging
        program = _program(1)
        response = service.handle({
            "op": "ingest_source",
            "source": program.source,
            "origin": program.origin,
        })
        assert response["ok"], response
        assert response["origin"] == program.origin
        assert response["staged_candidates"] > 0
        assert response["gaps"] > 0
        assert service.corpus_stats["programs"] == 1

    def test_flush_publishes_corpus_rules(self, tmp_path):
        service = self._service(tmp_path)
        program = _program(2)
        ingest = service.handle({"op": "ingest_source",
                                 "source": program.source})
        assert ingest["ok"]
        flush = service.handle({"op": "flush"})
        assert flush["ok"]
        assert flush["rules"] > 0
        stats = service.handle({"op": "stats"})
        assert stats["corpus"]["programs"] == 1
        assert stats["corpus"]["rules"] > 0
        # Published rules keep their corpus provenance in the repo.
        origins = {
            str(rule.origin)
            for rule in service.repo.all_rules(service.direction)
        }
        assert any(origin.startswith("corpus:") for origin in origins)

    def test_ingest_source_validates(self, tmp_path):
        service = self._service(tmp_path)
        assert not service.handle({"op": "ingest_source"})["ok"]
        assert not service.handle({"op": "ingest_source",
                                   "source": "  "})["ok"]
        bare = RuleService(RuleRepository(tmp_path / "bare"))
        response = bare.handle({"op": "ingest_source",
                                "source": "int main(void){return 0;}"})
        assert not response["ok"]
        assert "learner" in response["error"]
