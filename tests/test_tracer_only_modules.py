"""No library module reads the modules that stay only for the benchmark's tracer.

monarch.indexing and monarch.parallel are kept because perfbench/spans.py
wraps names in them (see test_trace_names.py). No library code may come to
depend on them, so that retiring them later is a pure deletion; only the
package's __init__ re-exports them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "monarch"
TRACER_ONLY = {"indexing", "parallel"}


def _monarch_imports(path: Path) -> set[str]:
    """Names of the monarch submodules that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "monarch":
                continue
            module = ".".join(part for part in ("monarch" if node.level else "", node.module) if part)
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "monarch" and len(parts) > 1:
                found.add(parts[1])
    return found


LIBRARY = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_scanner_sees_the_package_reexport():
    assert "indexing" in _monarch_imports(SRC / "__init__.py")
    assert "numerics" in _monarch_imports(SRC / "core.py")


@pytest.mark.parametrize("path", LIBRARY, ids=[p.stem for p in LIBRARY])
def test_library_module_does_not_import_tracer_only_modules(path):
    assert not _monarch_imports(path) & TRACER_ONLY
