"""Shared helpers of the gate scripts: failure reporting, the working
directory, and the lifecycle of ``repro-serve`` / ``repro-fleet``
subprocesses.

The gates run as ``PYTHONPATH=src python scripts/<name>_gate.py``;
Python puts ``scripts/`` on the import path, so each gate imports this
module directly.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.benchsuite import build_learning_pair
from repro.dbt.engine import DBTEngine
from repro.learning.pipeline import learn_rules
from repro.learning.store import RuleStore

#: How long a server or coordinator subprocess may take to bind.
STARTUP_SECONDS = 30


def fail(prefix: str, message: str) -> None:
    """Report a gate failure as ``<prefix>: FAIL: ...`` and exit 1."""
    print(f"{prefix}: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def work_dir(prefix: str) -> Path:
    """``$REPRO_GATE_ARTIFACT_DIR`` when set, so CI can upload what the
    gate leaves there; otherwise a fresh temp dir."""
    artifact_dir = os.environ.get("REPRO_GATE_ARTIFACT_DIR")
    if not artifact_dir:
        return Path(tempfile.mkdtemp(prefix=f"{prefix}-"))
    path = Path(artifact_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def wait_for_socket(prefix: str, path: Path, process: subprocess.Popen,
                    what: str = "server") -> None:
    """Wait until ``process`` has bound its unix socket at ``path``."""
    deadline = time.monotonic() + STARTUP_SECONDS
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(prefix, f"{what} exited early with status "
                         f"{process.returncode}")
        if path.exists():
            return
        time.sleep(0.1)
    fail(prefix, f"{what} socket {path} never appeared")


def stop_process(process: subprocess.Popen | None,
                 timeout: float = 10) -> None:
    """Stop a server or coordinator subprocess so its trace flushes.

    SIGINT unwinds the process's ``tracing`` context manager (asyncio
    surfaces it as KeyboardInterrupt).  SIGTERM follows if it has not
    exited within ``timeout`` seconds, then SIGKILL.
    """
    if process is None or process.poll() is not None:
        return
    for stop in (lambda: process.send_signal(signal.SIGINT),
                 process.terminate):
        stop()
        try:
            process.wait(timeout=timeout)
            return
        except subprocess.TimeoutExpired:
            pass
    process.kill()
    process.wait()


def offline_coverage(name: str) -> float:
    """Dynamic rule coverage of benchmark ``name`` with the rules that
    offline learning of that benchmark alone produces."""
    guest, host = build_learning_pair(name)
    rules = learn_rules(guest, host, benchmark=name).rules
    engine = DBTEngine(guest, "rules", RuleStore.from_rules(rules))
    engine.run()
    return engine.last_run.dynamic_coverage
