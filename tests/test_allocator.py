"""The CLI's allocator policy: on glibc, ``cli.main`` pins malloc's mmap and
trim thresholds once per process, so the arrays of one command reuse the
pages the previous command freed.  Importing the CLI sets nothing."""

import ctypes
import json
import os
import subprocess
import sys

import pytest

import berezin_lab
from berezin_lab import cli
from berezin_lab.cli import M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, MMAP_THRESHOLD_BYTES, main

SRC = os.path.dirname(os.path.dirname(berezin_lab.__file__))


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _run(code, *args):
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class FakeMallopt:
    """Records (param, value) per call and answers `result`."""

    def __init__(self, result=1):
        self.result = result
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


@pytest.fixture
def fake_libc(monkeypatch):
    """A glibc whose mallopt is a FakeMallopt, and a policy not yet applied
    in this process; the real policy is applied again by the next main()."""
    mallopt = FakeMallopt()
    libs = []

    def cdll(name, *args, **kwargs):
        libs.append(name)
        return type("Lib", (), {"mallopt": mallopt})()

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli.keep_freed_pages.cache_clear()
    yield mallopt, libs
    cli.keep_freed_pages.cache_clear()


def test_import_sets_nothing():
    # the benchmark's set-up time and library users import the CLI without
    # running a command
    code = """\
import ctypes, json, os
calls = []
confstr, cdll = os.confstr, ctypes.CDLL
os.confstr = lambda name: calls.append(("confstr", name)) or confstr(name)
ctypes.CDLL = lambda *a, **k: calls.append(("CDLL", repr(a))) or cdll(*a, **k)
import berezin_lab.cli
print(json.dumps(calls))
"""
    assert _run(code) == []


def test_two_commands_set_the_thresholds_once(fake_libc, capsys):
    mallopt, libs = fake_libc
    assert main(["spectrum", "--family", "fourier", "--n", "3"]) == 0
    assert main(["verify-all", "--n", "2"]) == 0
    assert libs == [None]
    assert mallopt.calls == [(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
                             (M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_BYTES)]
    assert (mallopt.argtypes, mallopt.restype) == ((ctypes.c_int, ctypes.c_int), ctypes.c_int)


def _not_glibc(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [_not_glibc, lambda name: None],
                         ids=["unknown-name", "no-value"])
def test_no_glibc_sets_nothing(fake_libc, monkeypatch, confstr, capsys):
    mallopt, libs = fake_libc
    monkeypatch.setattr(os, "confstr", confstr)
    assert main(["spectrum", "--family", "fourier", "--n", "3"]) == 0
    assert libs == [] and mallopt.calls == []


def test_refused_mmap_threshold_sets_no_trim_threshold(fake_libc, capsys):
    # the trim threshold alone would pin the mmap threshold at 128 KiB
    mallopt, _ = fake_libc
    mallopt.result = 0
    assert main(["spectrum", "--family", "fourier", "--n", "3"]) == 0
    assert mallopt.calls == [(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)]
    assert cli.keep_freed_pages() is False


# each command's third call in one process; without the policy these took
# 264, 608, 885 and 6912 minor faults
REPEATED = [
    ["verify-all", "--n", "12"],
    ["theorem-check", "--family", "haar", "--n", "16", "--seed", "1"],
    ["spectrum", "--family", "fourier", "--n", "16"],
    ["sweep", "--n", "16", "--samples", "12"],
]
FAULT_CODE = """\
import contextlib, io, json, resource, sys
from berezin_lab.cli import main
faults = []
for argv in json.loads(sys.argv[1]):
    for _ in range(3):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rc = main(argv)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    faults.append([rc, after - before])
print(json.dumps(faults))
"""


@pytest.mark.skipif(not _glibc(), reason="the policy is set on glibc only")
def test_repeated_commands_fault_in_no_fresh_pages():
    results = _run(FAULT_CODE, json.dumps(REPEATED))
    assert [rc for rc, _ in results] == [0] * len(REPEATED)
    faults = {" ".join(argv): count for argv, (_, count) in zip(REPEATED, results)}
    assert all(count <= 32 for count in faults.values()), faults
