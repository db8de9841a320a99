"""The benchmark's traced entry points keep resolving.

``perfbench/layers.py`` times each layer by replacing named functions
(``module:attribute`` paths) for one traced pass.  A rename under
``src/`` would break that pass without failing any untraced run, so
every path it wraps is resolved here, the way ``SpanLog.install``
resolves it: as an attribute defined on its owner itself.
"""

import importlib.util
from pathlib import Path

import pytest

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
