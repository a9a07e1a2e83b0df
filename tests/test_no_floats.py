"""Exactness guard: the package source contains no floating point.

Every module is parsed, and a float or complex literal, or a call to
``float`` or ``complex``, anywhere in it fails the test with its location.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "f4diagrams"


def _inexact(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, repr(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            yield node.lineno, node.func.id + "(...)"


def test_package_source_has_no_floats():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _inexact(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found
