"""The two constructions of the Berezin transform stay independent: the
explicit kernel in ``spectral`` and the composition c^-1 o d in ``symbols``
import nothing from each other, so the ``berezin-consistency`` row of
``verify-all``, where they meet, compares two computations and not one.
"""

import ast
import pathlib

import pytest

import berezin_lab

SOURCE = pathlib.Path(berezin_lab.__file__).parent
PACKAGE = berezin_lab.__name__


def imported_modules(path):
    """The package modules a source file imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name.split(".")[0] == PACKAGE]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.split(".")[0] != PACKAGE:
                continue
            base = base.removeprefix(PACKAGE).lstrip(".")
            # "from . import symbols" names the module in its aliases
            names = [base] if base else [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            name = name.removeprefix(PACKAGE).lstrip(".")
            if name:
                found.add(name.split(".")[0])
    return found


@pytest.mark.parametrize("module, other", [("spectral", "symbols"), ("symbols", "spectral")])
def test_constructions_do_not_import_each_other(module, other):
    assert other not in imported_modules(SOURCE / f"{module}.py")


def test_imported_modules_sees_every_spelling(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .symbols import a\nfrom . import spectral\n"
                    f"import {PACKAGE}.matrices\nfrom {PACKAGE}.cli import main\n"
                    f"from {PACKAGE} import symmetry\nimport numpy\n")
    assert imported_modules(path) == {"symbols", "spectral", "matrices", "cli", "symmetry"}
