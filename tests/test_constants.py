"""Every module-level UPPER_CASE constant under ``src/`` is read somewhere
in ``src/``, so a deleted mechanism cannot leave its constant behind.

A constant counts as read when some module holds a ``Name`` node spelling it
in a load, or an ``Attribute`` node spelling it; its own assignment and an
import of it do not count.
"""

import ast
import pathlib
import re

import berezin_lab

SOURCE = pathlib.Path(berezin_lab.__file__).parent
UPPER = re.compile(r"[A-Z][A-Z0-9_]*")


def _constants_and_reads():
    """({constant: module} of module-level UPPER_CASE assignments, names read)."""
    defined, read = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and UPPER.fullmatch(name.id):
                        defined[name.id] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def test_every_constant_is_read():
    defined, read = _constants_and_reads()
    unread = {name: module for name, module in defined.items() if name not in read}
    assert not unread, f"constants nothing in the package reads: {unread}"


def test_the_scan_finds_the_constants():
    # guards the scan itself: it sees the package's tolerances
    defined, _ = _constants_and_reads()
    assert {"CLUSTER_TOL", "RESIDUAL_TOL", "PENCIL_ANGLE"} <= defined.keys()
    assert "RUN_GAP" not in defined
