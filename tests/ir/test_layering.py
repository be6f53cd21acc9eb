"""Layering guard: the IR and the compiler sit below the analyses.

``repro.ir`` (including the shared dependence solver and the rewrites)
and ``repro.isa`` are consumed by ``repro.analysis`` — the static
metrics and the lint passes — so neither may import it back, not even
lazily inside a function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
LOWER_LAYERS = ("repro/ir", "repro/isa")
FORBIDDEN = "repro.analysis"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(path: Path):
    """Absolute names of every module ``path`` imports, at any depth."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" \
        else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[:len(base) - (node.level - 1)]
                prefix = ".".join(base)
                target = f"{prefix}.{node.module}" if node.module else prefix
            else:
                target = node.module
            yield target
            # ``from .. import analysis`` names the module in the alias.
            for alias in node.names:
                yield f"{target}.{alias.name}"


def _sources():
    for layer in LOWER_LAYERS:
        yield from sorted((SRC / layer).rglob("*.py"))


def test_lower_layers_exist():
    assert any(True for _ in _sources())


@pytest.mark.parametrize("path", list(_sources()),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_ir_and_isa_never_import_analysis(path):
    bad = sorted({name for name in _imported_modules(path)
                  if name == FORBIDDEN
                  or name.startswith(FORBIDDEN + ".")})
    assert not bad, f"{_module_name(path)} imports {bad}"
