"""The traced benchmark run finds every layer it names.

perfbench/tracer.py wraps functions by module and attribute name, and a
name it cannot find is only listed as unwrapped, so a rename would
silently drop a layer from the per-layer metrics.  The tables are read
from the file, not imported.
"""

import ast
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _table(name):
    """The literal value assigned to a top-level name of tracer.py."""
    with open(os.path.join(PERFBENCH, "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py assigns no {name}")


def _benchmark_functions(module):
    """Top-level function names of a benchmark module under perfbench/."""
    with open(os.path.join(PERFBENCH, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


ENTRIES = [entry[:2] for entry in _table("SPANS") + _table("MEMOS")]


@pytest.mark.parametrize("module,attr", ENTRIES, ids=[".".join(e) for e in ENTRIES])
def test_traced_name_resolves(module, attr):
    if not module.startswith("hexacarpet"):
        # the benchmark's own output writer, defined beside the tracer
        assert "." not in attr
        assert attr in _benchmark_functions(module)
        return
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
