"""Differential soundness harness for generated programs.

Every corpus program is its own test vector: the MiniC TAC interpreter
is the oracle, and the compiled program must return the same 32-bit
value when the ARM build executes under the guest machine and the x86
build executes under the host machine, in both codegen styles.  A
divergence means a compiler or DBT bug — the fuzzer doubles as a
compiler/DBT fuzz harness — so the harness minimizes the program with
a brace-aware statement-level delta debugger and dumps the repro to
``corpus_failures/`` for a human.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.dbt.direct import run_arm_program, run_x86_program
from repro.minic.compile import compile_frontend, compile_tac
from repro.minic.interp import run_tac

_MASK = 0xFFFFFFFF
FAILURE_DIR = "corpus_failures"

_RUNNERS = {"arm": run_arm_program, "x86": run_x86_program}


@dataclass
class DiffResult:
    """Outcome of one differential check."""

    ok: bool
    oracle: int | None = None
    #: "style/target" -> returned value (present only when it ran).
    observed: dict[str, int] = field(default_factory=dict)
    #: "oracle" or "style/target" -> error string for crashes.
    errors: dict[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"oracle={self.oracle:#x}" if self.oracle is not None
                 else "oracle=crash"]
        for key, value in self.observed.items():
            parts.append(f"{key}={value:#x}")
        for key, error in self.errors.items():
            parts.append(f"{key}: {error}")
        return " ".join(parts)


def check_source(source: str, opt_level: int = 2,
                 styles: tuple[str, ...] = ("llvm", "gcc")) -> DiffResult:
    """Interpreter oracle vs. guest/host execution, both styles; the
    oracle and every build share one front-end run."""
    try:
        tac = compile_frontend(source, opt_level)
        oracle = run_tac(tac) & _MASK
    except Exception as error:  # noqa: BLE001 - any crash is a repro
        return DiffResult(ok=False,
                          errors={"oracle": f"{type(error).__name__}: "
                                            f"{error}"})
    result = DiffResult(ok=True, oracle=oracle)
    for style in styles:
        for target, runner in _RUNNERS.items():
            key = f"{style}/{target}"
            try:
                program = compile_tac(tac, target, opt_level, style)
                value = runner(program).return_value & _MASK
            except Exception as error:  # noqa: BLE001
                result.ok = False
                result.errors[key] = f"{type(error).__name__}: {error}"
                continue
            result.observed[key] = value
            if value != oracle:
                result.ok = False
    return result


def _block_spans(lines: list[str]) -> list[tuple[int, int]]:
    """Candidate deletions: single statement lines plus brace-balanced
    blocks, largest candidates first so minimization converges fast."""
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    for number, line in enumerate(lines):
        opens = line.count("{")
        closes = line.count("}")
        if opens and not closes:
            stack.append(number)
        elif closes and not opens and stack:
            start = stack.pop()
            if start > 0:  # never delete the function body itself
                spans.append((start, number))
        elif not opens and not closes and line.strip().endswith(";"):
            spans.append((number, number))
    spans.sort(key=lambda span: (span[0] - span[1], span[0]))
    return spans


def _same_failure_kind(original: DiffResult, trial: DiffResult) -> bool:
    """Is ``trial`` still the bug ``original`` exhibited?

    A pure divergence must stay a pure divergence (deleting a
    declaration turns the program into a compile error — that is a
    different, uninteresting failure); a crash must keep crashing in
    the same stage set.
    """
    if trial.ok:
        return False
    if not original.errors:
        return not trial.errors
    return set(trial.errors) <= set(original.errors) and \
        bool(trial.errors)


def minimize(source: str, opt_level: int = 2, max_rounds: int = 8) -> str:
    """Shrink a failing program while it keeps failing the *same way*."""
    original = check_source(source, opt_level)
    if original.ok:
        return source
    lines = source.splitlines()
    for _ in range(max_rounds):
        shrunk = False
        for start, end in _block_spans(lines):
            trial = lines[:start] + lines[end + 1:]
            candidate = "\n".join(trial) + "\n"
            if _same_failure_kind(original,
                                  check_source(candidate, opt_level)):
                lines = trial
                shrunk = True
                break
        if not shrunk:
            break
    return "\n".join(lines) + "\n"


def dump_failure(source: str, result: DiffResult,
                 directory: str | Path = FAILURE_DIR,
                 meta: dict | None = None,
                 opt_level: int = 2) -> Path:
    """Minimize and persist one divergence repro; returns its directory."""
    from repro.corpus.pipeline import program_digest

    digest = program_digest(source)[:12]
    root = Path(directory) / digest
    root.mkdir(parents=True, exist_ok=True)
    minimized = minimize(source, opt_level)
    (root / "original.c").write_text(source)
    (root / "minimized.c").write_text(minimized)
    payload = {
        "digest": digest,
        "detail": result.describe(),
        "errors": result.errors,
        "observed": result.observed,
        "oracle": result.oracle,
        "minimized_check": check_source(minimized, opt_level).describe(),
    }
    if meta:
        payload.update(meta)
    (root / "meta.json").write_text(json.dumps(payload, indent=2) + "\n")
    return root
