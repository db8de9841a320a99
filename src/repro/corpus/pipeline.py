"""Stage generated programs and decide fresh / duplicate / settled.

One generated MiniC program flows through:

1. **digest** — sha256 of the canonical source text names the program
   (``corpus:<digest12>`` becomes its learning origin);
2. **compile** — one front end, then both codegen styles (``llvm``
   and ``gcc``) for both targets, like the benchsuite's learning pairs;
3. **stage** — :func:`~repro.learning.pipeline.stage_build` extracts
   and paramizes each build once, into the program's per-style staged
   records (canonical candidate windows plus prep/param accounting);
4. **classify** — the seen-digest store + verification cache decide
   whether any window could still yield a new verdict
   (:meth:`repro.corpus.dedup.SeenStore.classify`).

Programs classified ``dup_program`` short-circuit before compilation;
``all_settled`` programs are dropped after staging but before any
verification; only ``fresh`` programs reach the feeder, which learns
from the staged records without staging again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.corpus.dedup import DedupDecision, SeenStore
from repro.learning.cache import VerificationCache
from repro.learning.direction import ARM_TO_X86, Direction
from repro.learning.pipeline import StagedBuild, stage_build
from repro.minic.compile import CompiledProgram, compile_pairs
from repro.obs.trace import get_tracer

#: Both codegen styles, like the paper's compiler matrix.
CORPUS_STYLES = ("llvm", "gcc")


def program_digest(source: str) -> str:
    """Stable identity of one program: sha256 of its source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def corpus_origin(digest: str) -> str:
    """The ``origin`` tag corpus-fed rules carry (stable, name-spaced
    so obs.report never misfiles them under benchmark names)."""
    return f"corpus:{digest[:12]}"


@dataclass
class CorpusProgram:
    """One staged program: source, builds, staged records."""

    region: str
    seed: int
    index: int
    source: str
    digest: str
    #: style -> (guest ARM build, host x86 build)
    builds: dict[str, tuple[CompiledProgram, CompiledProgram]] = \
        field(default_factory=dict)
    #: style -> the build's staged record (what the feed learns from)
    staged: dict[str, StagedBuild] = field(default_factory=dict)
    decision: DedupDecision | None = None

    @property
    def origin(self) -> str:
        return corpus_origin(self.digest)

    def candidate_digests(self) -> list[str]:
        """Unique canonical window digests across both styles."""
        seen: dict[str, None] = {}
        for staged in self.staged.values():
            for candidate in staged.candidates:
                seen.setdefault(candidate.digest, None)
        return list(seen)


class IngestPipeline:
    """compile → stage → classify for a stream of generated programs."""

    def __init__(
        self,
        store: SeenStore,
        cache: VerificationCache | None = None,
        styles: tuple[str, ...] = CORPUS_STYLES,
        opt_level: int = 2,
        direction: Direction = ARM_TO_X86,
    ) -> None:
        self.store = store
        self.cache = cache
        self.styles = styles
        self.opt_level = opt_level
        self.direction = direction

    def stage(self, source: str, region: str = "", seed: int = 0,
              index: int = 0) -> CorpusProgram:
        """Compile both styles and stage each build once."""
        digest = program_digest(source)
        program = CorpusProgram(region=region, seed=seed, index=index,
                                source=source, digest=digest)
        tracer = get_tracer()
        with tracer.span("corpus.stage", origin=program.origin,
                         region=region):
            program.builds = compile_pairs(source, self.opt_level,
                                           self.styles)
            for style, (guest, host) in program.builds.items():
                program.staged[style] = stage_build(
                    guest, host, program.origin, self.direction)
        return program

    def process(self, source: str, region: str = "", seed: int = 0,
                index: int = 0) -> CorpusProgram:
        """Digest, maybe compile, classify.  Duplicate source text is
        skipped before it costs a single compile."""
        digest = program_digest(source)
        if self.store.seen_program(digest):
            program = CorpusProgram(region=region, seed=seed, index=index,
                                    source=source, digest=digest)
        else:
            program = self.stage(source, region=region, seed=seed,
                                 index=index)
        program.decision = self.store.classify(
            digest, program.candidate_digests(), self.cache
        )
        self._trace_decision(program)
        return program

    def commit(self, program: CorpusProgram) -> None:
        """Remember a fed program so the stream never re-pays for it."""
        self.store.add_program(
            program.digest,
            region=program.region,
            seed=program.seed,
            index=program.index,
            candidates=len(program.candidate_digests()),
        )
        self.store.add_windows(program.candidate_digests())

    def _trace_decision(self, program: CorpusProgram) -> None:
        decision = program.decision
        get_tracer().event(
            "corpus.program",
            origin=program.origin,
            region=program.region,
            verdict=decision.verdict,
            candidates=decision.candidates,
            settled=decision.settled,
        )
