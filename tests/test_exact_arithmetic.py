"""No module of the package computes with floats.

Every verdict rests on integer or rational arithmetic, so the package
source may hold no float literal, never names `float` and never takes a
square root other than the integer one (`math.isqrt`).  The `math.inf`
sentinel of `odd_girth` and `verify_embedding` is allowed: it is compared,
never computed with.
"""

import ast
from pathlib import Path

import kdiameter

PACKAGE = Path(kdiameter.__file__).resolve().parent


def _float_uses(tree):
    """(line, what) for each float literal, `float` name and `sqrt` name,
    attribute or import in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "sqrt"):
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt":
            yield node.lineno, "attribute .sqrt"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "sqrt":
                    yield node.lineno, f"import of sqrt from {node.module}"


def test_package_source_has_no_float_arithmetic():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [f"{path.name}:{line}: {what}"
             for path in modules
             for line, what in sorted(_float_uses(ast.parse(
                 path.read_text(), filename=str(path))))]
    assert not found, "\n".join(found)


def test_guard_sees_each_float_form():
    source = ("from math import sqrt\n"
              "import math\n"
              "a = 0.5\n"
              "b = float(3)\n"
              "c = math.sqrt(2)\n"
              "d = math.isqrt(9) + math.inf\n")
    lines = sorted(line for line, _ in _float_uses(ast.parse(source)))
    assert lines == [1, 3, 4, 5]
