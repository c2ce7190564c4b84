"""Every public top-level function or class of the package is reached from
the package itself, or is listed below with the reason it stays; every
private one (``_``-prefixed) is reached, with no list.

A name counts as reached when some module other than ``__init__`` holds a
``Name`` or ``Attribute`` node spelling it; an export alone does not count,
nor does a use in the tests.
"""

import ast
import pathlib

import berezin_lab

SOURCE = pathlib.Path(berezin_lab.__file__).parent

# public names nothing in the package calls, and why each stays
UNREACHED = {
    # the benchmark's per-layer tracer times these
    "tangent_direction": "traced by the benchmark; the Jacobian's test reference",
    "skew_hermitian_basis": "traced by the benchmark; the Jacobian's column basis",
    "operator_to_d_symbol": "traced by the benchmark; inverse of the d map",
    "save_matrix": "writes the matrix file format load_matrix reads",
}


def _surface(private=False):
    """(public, or private, top-level names with their module, names
    referenced)."""
    defined, referenced = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_public_name_is_reached_or_listed():
    defined, referenced = _surface()
    unreached = {name: module for name, module in defined.items() if name not in referenced}
    unlisted = {name: module for name, module in unreached.items() if name not in UNREACHED}
    assert not unlisted, f"public names nothing in the package reaches: {unlisted}"


def test_every_listed_name_is_defined_and_unreached():
    # a listed name that is gone, or that the package now reaches, leaves the list
    defined, referenced = _surface()
    stale = sorted(name for name in UNREACHED if name not in defined or name in referenced)
    assert not stale, f"stale entries: {stale}"


def test_every_private_name_is_reached():
    defined, referenced = _surface(private=True)
    assert len(defined) > 20  # the scan sees the private helpers at all
    unreached = {name: module for name, module in defined.items() if name not in referenced}
    assert not unreached, f"private names nothing in the package reaches: {unreached}"
