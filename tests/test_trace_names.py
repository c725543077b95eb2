"""Every library name the benchmark's traced run wraps must exist.

perfbench/spans.py patches timing wrappers around these names; a refactor
that renames or removes one should fail here rather than partway through a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spanned():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPANNED


# names the tracer patches besides SPANNED (see Tracer.install)
EXTRA = [
    ("monarch.parallel", "parallel_map"),
    ("monarch.counting", "add_multiplies"),
    ("monarch.indexing", "BlockPermutation.__init__"),
]


@pytest.mark.parametrize("module,target", [(m, t) for m, t, _ in _spanned()] + EXTRA)
def test_traced_name_resolves(module, target):
    mod = importlib.import_module(module)
    if "." in target:
        cls_name, meth = target.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, target, None))
