"""The pipeline names starbench's tracer and store capture wrap must exist.

``starbench/tracer.py`` replaces functions and methods by name, and its
``StoreCapture`` wraps ``TableStore.from_embeddings_df``; a refactor that
drops one of them would only fail in a traced benchmark run. The tracer is
loaded from its file, unchanged.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.search.engine import TableStore

_TRACER = Path(__file__).resolve().parents[1] / "starbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("starbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_T = _tracer()
LAYERS = _T.OFFLINE_LAYERS + _T.SEARCH_LAYERS + _T.HNSW_LAYERS


@pytest.mark.parametrize("module,cls,attr", [layer[:3] for layer in LAYERS],
                         ids=[layer[3] for layer in LAYERS])
def test_traced_name_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert attr in vars(owner)


def test_store_capture_name_resolves():
    assert "from_embeddings_df" in TableStore.__dict__
