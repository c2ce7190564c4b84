"""The exit-code contract of ``cli.py``: each exit code is raised as one
exception type, every ``raise`` in the package names one of those types,
and each type reaches the shell as its documented code, with one line on
stderr and no traceback.
"""

import ast
import pathlib
import re

import numpy as np
import pytest

import berezin_lab
from berezin_lab import cli
from berezin_lab.cli import main

SOURCE = pathlib.Path(berezin_lab.__file__).parent

# each exception type the package raises, with its exit code
EXIT_CODES = {
    ValueError: 1,
    berezin_lab.InvariantViolation: 2,
    berezin_lab.MatrixFileError: 3,
    berezin_lab.NotUnitaryError: 4,
    berezin_lab.ZeroEntryError: 5,
}
CONTRACT = {exc_type.__name__ for exc_type in EXIT_CODES}
# the types main catches: those, and OSError for a file that cannot be read
# (np.linalg.LinAlgError, exit 2, is probed by test_solver_failure_exits_2)
CAUGHT = [*EXIT_CODES.items(), (OSError, 3)]
# argparse's own mechanics, which only cli.py uses
CLI_ONLY = {"SystemExit", "argparse.ArgumentTypeError"}


def _raised_name(node):
    """The dotted name a raise statement raises, or None for a bare raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return None if exc is None else ast.unparse(exc)


def _raises():
    """(module file name, line, raised name) of every raise in the package."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                yield path.name, node.lineno, _raised_name(node)


def _documented_codes():
    """Each exit code of cli's docstring with the text that describes it."""
    codes, code = {}, None
    for line in cli.__doc__.splitlines():
        match = re.match(r"  (\d)  (.*)", line)
        if match:
            code = int(match.group(1))
            codes[code] = match.group(2)
        elif code is not None and line.startswith("     "):
            codes[code] += " " + line.strip()
        else:
            code = None
    return codes


def test_every_raise_names_one_contract_type():
    stray = [(module, line, name) for module, line, name in _raises()
             if name not in CONTRACT and not (module == "cli.py" and name in CLI_ONLY)]
    assert not stray, f"raises outside the exit-code contract: {stray}"


def test_raised_name_reads_every_spelling():
    tree = ast.parse("raise ValueError('x')\nraise argparse.ArgumentTypeError\n"
                     "try:\n    pass\nexcept OSError:\n    raise\n")
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert [_raised_name(node) for node in raises] == [
        "ValueError", "argparse.ArgumentTypeError", None]


def _name(value):
    return value.__name__ if isinstance(value, type) else str(value)


@pytest.mark.parametrize("exc_type, code", [*CAUGHT, (np.linalg.LinAlgError, 2)], ids=_name)
def test_docstring_documents_each_type(exc_type, code):
    codes = _documented_codes()
    assert sorted(codes) == [0, 1, 2, 3, 4, 5]
    named = [c for c, text in codes.items() if re.search(rf"\b{exc_type.__name__}\b", text)]
    assert named == [code]


@pytest.mark.parametrize("exc_type, code", CAUGHT, ids=_name)
def test_each_type_exits_with_its_code(exc_type, code, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise exc_type("probe message")

    monkeypatch.setattr(cli, "spectrum", broken)
    assert main(["spectrum", "--family", "fourier", "--n", "3"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("probe message\n") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
