"""Every import in ``src/msn`` is used, and the modules import in layers.

Two lints run as tier-1 tests, from the standard library's ``ast``
alone.  A name counts as used when it is read anywhere in its module, in
an annotation written as a string too, or when the module's ``__all__``
re-exports it.  Each module imports only modules listed before it in
``LAYERS``, also inside a function body.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "msn"
LAYERS = ["_kernel", "seeding", "errors", "linalg", "polytope", "lp", "seminorms", "spaces",
          "maps", "amalgam", "ramsey", "tower", "io", "cli"]


def _imported(tree):
    """``{bound name: line}`` of every import but ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg | ast.FunctionDef | ast.AsyncFunctionDef | ast.AnnAssign):
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    names |= _used(ast.parse(ann.value, mode="eval"))
        elif (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                   for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    assert {n: line for n, line in _imported(tree).items() if n not in used} == {}


def _msn_imports(tree):
    """``(module, line)`` for every ``msn`` module the tree imports, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "msn":
            names = [f"msn.{a.name}" for a in node.names]  # from msn import _kernel
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        out += [(n.split(".")[1], node.lineno) for n in names if n.startswith("msn.")]
    return out


def test_modules_import_only_earlier_layers():
    assert sorted(LAYERS) == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    later = {}
    for i, name in enumerate(LAYERS):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        bad = [(mod, line) for mod, line in _msn_imports(tree) if mod not in LAYERS[:i]]
        if bad:
            later[name] = bad
    assert later == {}
