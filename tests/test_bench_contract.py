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


def test_check_n16_seeds_that_once_failed_pass_their_oracle(capsys):
    # small entries once pushed a Jacobian singular value under the rank
    # threshold: kernel 32 against a Berezin count of 31; the next three
    # have an eigenvalue within 1.4e-5 of the first pencil's spurious
    # point, and their count of 2n - 1 = 31 still comes from one solve; the
    # last two have a (2n)-th singular value of 6.4e-8 and 5.1e-8, which
    # the old threshold 1e-8 n counted on both sides as a kernel of 32
    for seed in ("1704520880", "672160505", "244737784", "2138", "2502", "3717",
                 "19382", "1015938624"):
        capsys.readouterr()
        rc = berezin_lab.cli.main(["theorem-check", "--family", "haar", "--n", "16",
                                   "--seed", seed])
        assert workloads.check_theorem(rc, capsys.readouterr().out, n=16) == 1


def test_tracer_binds_commands_after_the_parser_is_built(tmp_path, capsys):
    """The parser is built on the first call and reused; the tracer, which
    rebinds cli.cmd_* afterwards, must still see which command called
    spectrum(), or the spectrum usefulness ratio reads 0."""
    workload = workloads.make_workload("spectrum-n16", 1, str(tmp_path))
    op = workload.op(0)
    berezin_lab.cli.main(op.argv)
    capsys.readouterr()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = berezin_lab.cli.main(op.argv)
    finally:
        tracer.uninstall()
    assert op.check(rc, capsys.readouterr().out) == 1
    parents = [tracer.spans[p][0] for name, p, _, _ in tracer.spans if name == "spectral.spectrum"]
    assert parents == ["cli.cmd_spectrum"]


def _traced_spans(name, tmp_path, capsys):
    """The spans of one traced op of the named workload, checked by its oracle."""
    op = workloads.make_workload(name, 1, str(tmp_path)).op(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = berezin_lab.cli.main(op.argv)
    finally:
        tracer.uninstall()
    assert op.check(rc, capsys.readouterr().out) >= 1, op.argv
    return tracer.spans


def test_theorem_check_builds_the_kernel_through_standardized_matrix(tmp_path, capsys):
    # the Berezin count of a check-n16 op forms S in the one traced builder
    spans = _traced_spans("check-n16", tmp_path, capsys)
    assert [name for name, *_ in spans].count("spectral.standardized_matrix") == 1


def test_apply_is_the_composition_of_the_symbol_maps(tmp_path, capsys):
    # BerezinTransform.apply is c^-1 o d: its time lands in the traced maps
    spans = _traced_spans("verify-n12", tmp_path, capsys)
    inside = [spans[parent][0] for name, parent, _, _ in spans
              if name == "symbols.operator_to_c_symbol" and parent >= 0]
    assert inside and set(inside) == {"symbols.BerezinTransform.apply"}
