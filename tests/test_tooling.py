"""Names that tools outside the package rely on.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and
the caches listed in its ``CACHES``, and fails a traced benchmark run
when one is gone; ``perfbench/child.py`` prints ``qhecke.kernels.BACKEND``
and replaces a case's witnesses with ``dataclasses.replace``.  These
tests make a rename fail here first.  Both files are read, not run.
A last test reads the package's own modules and the test files and
fails on an import that no longer has a use, as a deletion can leave one
behind.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import qhecke
from qhecke.registry import IdentityCase

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _assigned(tree, name):
    """The value node of the module-level assignment to ``name``."""
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_public_and_traced_names_resolve():
    missing = [name for name in qhecke.__all__ if not hasattr(qhecke, name)]
    targets = ast.literal_eval(_assigned(_parse("tracer.py"), "TARGETS"))
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(f"qhecke.{module}")
        for name in names:
            try:
                _resolve(mod, name)
            except AttributeError:
                missing.append(f"{module}: {name}")
    assert not missing


def test_traced_caches_resolve():
    # each entry is (cache name, module, accessor, cache attribute, key);
    # the key is a lambda, so only the first four are read
    entries = _assigned(_parse("tracer.py"), "CACHES").elts
    assert entries
    missing = []
    for entry in entries:
        _, module, accessor, attr = (ast.literal_eval(e) for e in entry.elts[:4])
        mod = importlib.import_module(f"qhecke.{module}")
        for name in (accessor, attr):
            if not hasattr(mod, name):
                missing.append(f"{module}: {name}")
    assert not missing


def test_benchmark_child_names_resolve():
    tree = _parse("child.py")
    # attribute chains rooted at the package, such as qhecke.kernels.BACKEND
    chains = []
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "qhecke":
            chains.append(".".join(reversed(parts)))
    assert "kernels.BACKEND" in chains
    for dotted in chains:
        _resolve(qhecke, dotted)
    # the fields child.py passes to replace() on a registry case
    fields = {kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "replace" for kw in node.keywords}
    assert "witnesses" in fields
    assert fields <= {f.name for f in dataclasses.fields(IdentityCase)}


def test_every_import_in_the_package_is_used():
    # __init__.py imports to re-export, so it is left out
    unused = []
    paths = sorted((ROOT / "src" / "qhecke").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused
