"""Names that tools outside the package rely on.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and
fails a traced benchmark run when one is gone; this test makes a rename
fail here first.  The tracer is read, not installed.
"""

import ast
import importlib
from pathlib import Path

import qhecke

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_public_and_traced_names_resolve():
    missing = [name for name in qhecke.__all__ if not hasattr(qhecke, name)]
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(f"qhecke.{module}")
        for name in names:
            try:
                _resolve(mod, name)
            except AttributeError:
                missing.append(f"{module}: {name}")
    assert not missing
