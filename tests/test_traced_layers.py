"""The benchmark's traced run wraps gbcal at fixed module and class
attributes (perfbench/spans.py LAYERS).  A rename or deletion of one of them
must fail here rather than crash `perfbench/run.py --trace 1`."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    """LAYERS read from the file without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS list in {SPANS}")


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    missing = []
    for owner, attr, _ in layers:
        mod, _, cls = owner.partition(":")
        obj = importlib.import_module(mod)
        if cls:
            obj = getattr(obj, cls, None)
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{owner} {attr}")
    assert not missing, f"traced layers that no longer resolve: {missing}"
