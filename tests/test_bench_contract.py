"""The benchmark traces layer functions by name; a name that disappears
from the package reads as zero in every traced run, so it fails here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import berezin_lab.cli  # noqa: E402,F401  loads every module the tracer rebinds
import tracing  # noqa: E402


def test_every_traced_function_exists():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []
