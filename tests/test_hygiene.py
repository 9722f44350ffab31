"""Source hygiene: no dead private helpers in the package.

A private function or class (one leading underscore, not a dunder) has
no callers outside the package by convention, so when nothing inside
`src/parvault` names it, it is dead code. The scan counts any name or
attribute use, and any string equal to the name (for `getattr` lookups),
anywhere in the package.
"""

import ast
from pathlib import Path

import parvault

PACKAGE = Path(parvault.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _scan(files):
    defined, used = {}, set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and _private(node.name):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                used.add(node.value)
    return {name: where for name, where in defined.items()
            if name not in used}


def test_every_private_helper_is_referenced():
    dead = _scan(sorted(PACKAGE.rglob("*.py")))
    assert not dead, f"unreferenced private helpers: {dead}"


def test_scan_flags_an_unreferenced_helper(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def _used():\n    return 1\n\n"
                   "def _dead():\n    return _used()\n\n"
                   "class _Orphan:\n    def __init__(self):\n        pass\n")
    assert set(_scan([mod])) == {"_dead", "_Orphan"}
