"""The two constructions of the Berezin transform stay independent: the
explicit kernel in ``spectral`` and the composition c^-1 o d in ``symbols``
import nothing from each other, so the ``berezin-consistency`` row of
``verify-all``, where they meet, compares two computations and not one.
``spectral`` imports nothing from ``submersion`` either, so the Berezin
side's certificate never reads the Jacobian it is compared with.  No module
imports another's private names.
"""

import ast
import pathlib

import numpy as np
import pytest

import berezin_lab
from berezin_lab import haar_random_unitary, spectral
from references import e_subspace_basis

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


@pytest.mark.parametrize("module, other", [
    ("spectral", "symbols"), ("symbols", "spectral"), ("spectral", "submersion")])
def test_constructions_do_not_import_each_other(module, other):
    assert other not in imported_modules(SOURCE / f"{module}.py")


def test_imported_modules_sees_every_spelling(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .symbols import a\nfrom . import spectral\n"
                    f"import {PACKAGE}.matrices\nfrom {PACKAGE}.cli import main\n"
                    f"from {PACKAGE} import symmetry\nimport numpy\n")
    assert imported_modules(path) == {"symbols", "spectral", "matrices", "cli", "symmetry"}


def private_imports(path):
    """The underscore-prefixed names a source file imports from package
    modules."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == PACKAGE):
            found.update(alias.name for alias in node.names if alias.name.startswith("_"))
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_a_private_name(path):
    # what one module shares with another is public, so the certificate
    # both pipelines run is a named routine and not a borrowed helper
    assert not private_imports(path)


def test_private_imports_sees_every_spelling(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\nfrom .spectral import _a, b\n"
                    f"from {PACKAGE}.matrices import _c\nfrom . import _d\n"
                    "from numpy import _e\nimport _f\n")
    assert private_imports(path) == {"_a", "_c", "_d"}


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_sum_symbols_span_the_e_subspace(n):
    # spectral builds its own rank 2n - 1 term V V^T on the sum symbols;
    # its range is |u| times the symbols a_k + b_l of
    # symbols.e_subspace_basis
    u = haar_random_unitary(n, seed=[33, n]).matrix
    term = np.zeros((1, n * n, n * n))
    spectral._add_sum_symbol_term(term, np.abs(u)[np.newaxis])
    e = (np.abs(u) * e_subspace_basis(n).real).reshape(2 * n - 1, n * n).T
    assert np.linalg.matrix_rank(term[0]) == np.linalg.matrix_rank(e) == 2 * n - 1
    q = np.linalg.qr(e)[0]
    np.testing.assert_allclose(q @ (q.T @ term[0]), term[0], rtol=0, atol=1e-14)
