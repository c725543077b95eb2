"""The library's dense linear algebra is its own: numpy.linalg serves only as
an independent oracle in the tests, apart from np.linalg.norm, which the
library uses for plain 2-norms."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "monarch"


def _linalg_violations(source):
    """Lines that reach numpy.linalg for anything but np.linalg.norm."""
    tree = ast.parse(source)
    norm_owners = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "norm"}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg" and id(node) not in norm_owners:
            bad.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node):
            bad.append(node.lineno)
    return bad


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_linalg_norm_in_library(path):
    assert _linalg_violations(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "np.linalg.svd(a)",
        "solve = np.linalg",
        "from numpy.linalg import eig",
        "import numpy.linalg",
        "np.linalg.norm(a)\nnp.linalg.inv(a)",
    ],
)
def test_guard_flags_other_linalg_uses(source):
    assert _linalg_violations(source) == [source.count("\n") + 1]


def test_guard_allows_norm():
    assert _linalg_violations("import numpy as np\nnp.linalg.norm(a, axis=0)") == []
