"""The layers below the runners import nothing from ``repro.experiments``."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LOWER = ("core", "search", "eval", "baselines", "datalake")


def _imports(source: str, package: str) -> set[str]:
    """Every module a module of ``package`` with this source imports, at any
    depth, relative imports resolved."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[: len(parts) - node.level + 1]) if node.level else ""
            mod = ".".join(p for p in (base, node.module or "") if p)
            out.add(mod)
            out.update(f"{mod}.{a.name}" for a in node.names)
    return out


def _from_experiments(mods: set[str]) -> list[str]:
    return sorted(m for m in mods
                  if m == "repro.experiments" or m.startswith("repro.experiments."))


def test_resolver_finds_function_level_relative_imports():
    src = "def f():\n    from ..experiments.common import prepare\n    from .. import experiments\n"
    assert _from_experiments(_imports(src, "repro.eval")) == [
        "repro.experiments", "repro.experiments.common", "repro.experiments.common.prepare",
    ]
    assert _from_experiments(_imports("from .metrics import purity", "repro.eval")) == []


@pytest.mark.parametrize("layer", LOWER)
def test_lower_layers_do_not_import_experiments(layer):
    files = sorted((SRC / "repro" / layer).rglob("*.py"))
    assert files
    for f in files:
        package = ".".join(f.relative_to(SRC).parent.parts)
        bad = _from_experiments(_imports(f.read_text(), package))
        assert not bad, f"{f.relative_to(SRC)} imports {bad}"
