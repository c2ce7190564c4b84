"""The benchmark traces layer functions by name; a name that disappears
from the package reads as zero in every traced run, so it fails here.
Every op shape the benchmark runs must also pass its oracle."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import berezin_lab.cli  # noqa: E402  loads every module the tracer rebinds
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_function_exists():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []


def test_every_bench_op_passes_its_oracle(tmp_path, capsys):
    """One op of each shape the benchmark runs, checked by its own oracle,
    so a wrong verdict fails here and not only as failed benchmark ops."""
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, 1, str(tmp_path))
        for i in range(workload.variants):
            op = workload.op(i)
            capsys.readouterr()
            rc = berezin_lab.cli.main(op.argv)
            assert op.check(rc, capsys.readouterr().out) >= 1, op.argv
