"""Roots of unity are computed one way: ``symmetry.unit_root`` reads them
from its table of n, so they are exactly n-periodic wherever they are used.
No other code under ``src/`` calls ``np.exp`` on an imaginary argument.
"""

import ast
import pathlib

import berezin_lab

SOURCE = pathlib.Path(berezin_lab.__file__).parent
ROOT_FUNCTION = "unit_root"


def is_imaginary(node):
    """Whether an expression holds an imaginary literal such as 2j."""
    return any(isinstance(sub, ast.Constant) and isinstance(sub.value, complex)
               for sub in ast.walk(node))


def is_numpy_exp(func):
    return (isinstance(func, ast.Attribute) and func.attr == "exp"
            and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))


def imaginary_exponentials(path):
    """The line numbers of np.exp calls on an imaginary argument in a
    source file, outside the function that owns the table of roots."""
    found = []

    def visit(node, inside_root):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_root = inside_root or node.name == ROOT_FUNCTION
        if (isinstance(node, ast.Call) and is_numpy_exp(node.func) and not inside_root
                and any(is_imaginary(arg) for arg in node.args)):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside_root)

    visit(ast.parse(path.read_text()), False)
    return found


def test_only_unit_root_takes_imaginary_exponentials():
    found = {path.name: lines for path in sorted(SOURCE.glob("*.py"))
             if (lines := imaginary_exponentials(path))}
    assert found == {}


def test_the_scan_sees_every_spelling(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import numpy as np\nimport numpy\n"
                    "def unit_root(n, k):\n    return np.exp(2j * np.pi * k / n)\n"
                    "a = np.exp(1j * 0.5)\n"
                    "b = numpy.exp(2.0 * np.pi * 1j)\n"
                    "def f(x):\n    return np.exp(-1j * x) + np.exp(x)\n"
                    "c = np.exp(np.log(2.0))\n")
    assert imaginary_exponentials(path) == [5, 6, 8]
