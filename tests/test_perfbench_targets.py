"""The benchmark's traced entry points keep resolving.

``perfbench/layers.py`` times each layer by replacing named functions
(``module:attribute`` paths) for one traced pass.  A rename under
``src/`` would break that pass without failing any untraced run, so
every path it wraps is resolved here, the way ``SpanLog.install``
resolves it: as an attribute defined on its owner itself.  A wrapped
function must also still be called where the layer expects it: every
translation miss goes through ``DBTEngine.translate``.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.benchsuite import benchmark_source
from repro.dbt.engine import DBTEngine
from repro.experiments.common import ExperimentContext
from repro.learning.store import RuleStore
from repro.minic import compile_source

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

#: Wrapped by ``SpanLog.install`` outside ``TARGETS``.
EXTRA_PATHS = ("repro.dbt.engine:DBTEngine.translate",
               "repro.service.server:RuleService.handle")


@pytest.mark.parametrize(
    "path", [path for _, path, _ in layers.TARGETS] + list(EXTRA_PATHS))
def test_traced_path_resolves(path):
    owner, attr = layers._resolve(path)
    assert attr in vars(owner), f"{path} is not defined on its owner"
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "generic"])
def test_every_translation_miss_reaches_translate(monkeypatch, fast):
    # Wrapped on the class, as ``SpanLog.install`` wraps it for the
    # ``dbt.translate`` layer; only cache misses count.
    translate = DBTEngine.__dict__["translate"]
    misses = []

    def counting(engine, guest_addr):
        if guest_addr not in engine._cache:
            misses.append(guest_addr)
        return translate(engine, guest_addr)

    monkeypatch.setattr(DBTEngine, "translate", counting)
    program = compile_source(benchmark_source("mcf", "test"), "arm", 2,
                             "llvm")
    engine = DBTEngine(program, "rules", RuleStore(), fast=fast)
    engine.run()
    assert len(misses) == engine.lifetime.translated_blocks > 0
    rules = ExperimentContext().rule_store_excluding("mcf").all_rules()
    _, invalidated = engine.hot_install(rules)
    assert invalidated
    engine.run()
    assert engine.last_run.translated_blocks >= invalidated
    assert len(misses) == engine.lifetime.translated_blocks
