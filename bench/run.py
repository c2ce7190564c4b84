"""Benchmark of the berezin-lab CLI.

    python3 bench/run.py --workload check-n16 --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/`` of this
checkout, never from an installed copy.  One run is one workload in this
interpreter: a closed loop with one client, each op one call to
``berezin_lab.cli.main(argv)`` with its output captured and checked against
closed forms (``workloads.py``).  OpenBLAS runs on one thread unless
OPENBLAS_NUM_THREADS is already set.

``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
interpreters importing ``berezin_lab.cli``), unitaries given a verdict per
second, median and tail op latency, and peak resident memory.  Times are the
CPU time of the process, which with one OpenBLAS thread and no thread pool
is the wall time an op takes when nothing else wants its core, rescaled to a
reference host speed with reference work timed around each op and after each
set-up (``reference.py``, which says why).  So neither the spells in which
the hypervisor runs another tenant on this core (ops of 40 ms took up to
140 ms of wall time with 50-60 ms of CPU time) nor the swings in the core's
speed read as changes of the program.  Wall times go to ``.bench_out/``.

``--trace 1`` runs the loop untraced and then traced, and prints the
per-layer metrics (``tracing.py``) with the tracing overhead; it also
records, for information only, a size scan of per-layer self time and, on
check-n16, a pass with OpenBLAS on nproc threads.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details (machine stamp, tail percentile and
op count, size scan, absent functions) go to ``.bench_out/`` and spans of
the traced loop to a JSON-lines file beside them.  The exit code is 0 only
when every op passed its oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import monotonic, perf_counter, process_time

# One OpenBLAS thread, set before NumPy loads.  On a 2-vCPU VM shared with
# other tenants, two threads made check-n16 slower and far noisier: 10-second
# medians of 182-273 ms against 149-166 ms for one thread, with ops of the two
# kinds alternating in one process.  The traced run of check-n16 records a
# pass at nproc threads for comparison.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import reference
import workloads
from tracing import Tracer, per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
# A fixed percentile, so that a commit with faster ops, hence more ops per
# run, is not judged at a more extreme one.  At run_seconds every workload
# runs well over 100 ops, leaving more than ten above it.
TAIL_PERCENTILE = 90
TAIL_BEYOND_MIN = 10


class BenchError(Exception):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# set-up


def _child_env(**extra) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""), **extra)


# The set-up child notes its CPU time and the monotonic clock, which all
# processes share, when the import has finished, then times the reference
# work for its scale.
SETUP_CODE = """\
import time, sys
import berezin_lab.cli
cpu, done = time.process_time(), time.monotonic()
sys.path.insert(0, sys.argv[1])
import statistics, reference
ref = statistics.median(reference.measure(sys.argv[2]) for _ in range(SETUP_REFERENCE_PASSES))
print(cpu, done, ref, berezin_lab.cli.__file__)
"""
SETUP_REFERENCE_PASSES = 9
# Scaled by the interpreter-bound reference, the set-up times of one
# workload's runs spread 0.16-0.27 of their median, against 0.03-0.10 with
# this one.
SETUP_REFERENCE = "lapack"


def setup_seconds() -> tuple:
    """(wall, rescaled CPU) time from starting a fresh interpreter until it
    has imported berezin_lab.cli from src/."""
    code = SETUP_CODE.replace("SETUP_REFERENCE_PASSES", str(SETUP_REFERENCE_PASSES))
    start = monotonic()
    proc = subprocess.run([sys.executable, "-c", code, HERE, SETUP_REFERENCE], env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 4 or not fields[3].startswith(SRC + os.sep):
        raise BenchError(f"cannot import berezin_lab.cli from {SRC}: {proc.stderr.strip()[-300:]}")
    cpu, done, ref = map(float, fields[:3])
    return done - start, reference.scaled([cpu], [ref, ref], SETUP_REFERENCE)[0]


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "berezin_lab", "cli.py")):
        raise BenchError(f"no package at {SRC}/berezin_lab")
    sys.path.insert(0, SRC)
    import berezin_lab.cli as cli

    if not cli.__file__.startswith(SRC + os.sep):
        raise BenchError(f"berezin_lab.cli imported from {cli.__file__}, not {SRC}")
    return cli


def _openblas():
    """(config string, thread count) of the OpenBLAS NumPy loaded, if found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads and get_config:
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                return get_config().decode().strip(), get_threads()
    return None, None


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def stamp(args) -> dict:
    import numpy
    import scipy

    config, threads = _openblas()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": config, "blas_threads": threads,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# the closed loop


class Phase:
    """Outcome of one loop: latencies of its timed ops and every failure."""

    def __init__(self, reference_kind: str = "lapack"):
        self.reference_kind = reference_kind
        self.latencies: list = []  # CPU time of each timed op
        self.walls: list = []  # wall time of each timed op
        self.reference: list = []  # reference times before and after each timed op
        self.matrices = 0
        self.attempted = 0
        self.failures: list = []
        self.output_bytes = 0
        self.wall = 0.0

    def scaled(self) -> list:
        """Op latencies rescaled to the reference host."""
        return reference.scaled(self.latencies, self.reference, self.reference_kind)

    def run_op(self, cli, op) -> tuple:
        """(CPU, wall) time of one op, which is run and checked."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, cpu = perf_counter(), process_time()
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that raises is a failed op; keep going
                rc = f"raised {exc!r}"
            cpu, latency = process_time() - cpu, perf_counter() - start
        self.attempted += 1
        text = out.getvalue()
        self.output_bytes += len(text.encode()) + sum(
            os.path.getsize(p) for p in op.files if os.path.exists(p))
        try:
            self.matrices += op.check(rc, text)
        except Exception as exc:  # any malformed output fails the oracle
            self.failures.append(f"{' '.join(op.argv)}: {exc!r}; stderr: {err.getvalue()[-200:]}")
        return cpu, latency


def run_loop(cli, workload, seconds: float, tracer=None) -> Phase:
    """Warm up on one op of each variant, then run ops back to back for
    `seconds`, with the reference work before the first op and after each.
    Only ops after the warm-up are timed and traced; warm-up ops still count
    as attempted and are checked."""
    warm = Phase()
    for i in range(workload.variants):
        warm.run_op(cli, workload.op(i))
        reference.measure(workload.reference)
    phase = Phase(workload.reference)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        i = workload.variants
        phase.reference.append(reference.measure(workload.reference))
        start = perf_counter()
        while perf_counter() - start < seconds:
            cpu, wall = phase.run_op(cli, workload.op(i))
            phase.latencies.append(cpu)
            phase.walls.append(wall)
            phase.reference.append(reference.measure(workload.reference))
            i += 1
        phase.wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.attempted += warm.attempted
    phase.failures = warm.failures + phase.failures
    return phase


def tail(latencies: list) -> tuple:
    """The TAIL_PERCENTILE latency and how many ops lie above it."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(lat > value for lat in latencies)


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM where the kernel has it,
    because getrusage's ru_maxrss keeps the peak of the process that started
    this one across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phase: Phase, setup: list) -> tuple:
    """The end-to-end metrics on rescaled times; matrices_per_s is verdicts
    over the summed rescaled op time.  `setup` holds (wall, rescaled CPU)
    pairs."""
    latencies = phase.scaled()
    tail_s, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup) if setup else None, "s"),
        "matrices_per_s": (phase.matrices / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if not setup:
        del metrics["setup_s"]
    if beyond < TAIL_BEYOND_MIN:
        print(f"warning: only {beyond} ops above op_tail_ms", file=sys.stderr)
    notes = {"ops": len(phase.latencies), "op_tail_percentile": TAIL_PERCENTILE,
             "ops_above_tail": beyond,
             "reference": {"kind": phase.reference_kind,
                           "nominal_ms": reference.REFERENCES[phase.reference_kind][1],
                           "median_ms": 1e3 * statistics.median(phase.reference)},
             "wall": {"op_p50_ms": 1e3 * statistics.median(phase.walls),
                      "op_tail_ms": 1e3 * tail(phase.walls)[0],
                      "matrices_per_s": phase.matrices / phase.wall,
                      "setup_s": [wall for wall, _ in setup]},
             "setup_samples_s": [s for _, s in setup],
             "cpu_s": phase.latencies, "wall_s": phase.walls, "reference_s": phase.reference}
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run


def size_scan(cli, name: str, seed: int, workdir: str) -> tuple:
    """Per-layer self time, per op, of one traced op of each variant at each
    scan size (informational)."""
    rows, checked = [], Phase()
    for n in workloads.SCAN_NS:
        wl = workloads.make_workload(name, seed, workdir, n=n)
        for i in range(wl.variants):  # warm-up at this n
            checked.run_op(cli, wl.op(i))
        tracer = Tracer()
        tracer.install()
        try:
            op_s = sum(checked.run_op(cli, wl.op(wl.variants + i))[1] for i in range(wl.variants))
        finally:
            tracer.uninstall()
        calls, own = tracer.self_times()
        rows.append({"n": n, "op_s": op_s / wl.variants,
                     "self_s": {k: v / wl.variants for k, v in sorted(own.items())},
                     "calls": {k: v / wl.variants for k, v in sorted(calls.items())}})
    return rows, checked


def threaded_blas_pass(args) -> dict:
    """The same workload untraced with OpenBLAS on nproc threads, its default,
    in a fresh interpreter (informational).  Its result line adds up the CPU
    time of all threads, so its wall times are read from its notes."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(max(1, args.seconds // 4)),
            "--trace", "0", "--setup-probes", "0"]
    proc = subprocess.run(argv, env=_child_env(OPENBLAS_NUM_THREADS=str(os.cpu_count())),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"threaded BLAS pass printed nothing: {proc.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    notes = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace0-blas{os.cpu_count()}.json")
    if os.path.exists(notes):
        with open(notes) as fh:
            result["wall"] = json.load(fh)["notes"]["wall"]
    return result


def per_layer(cli, args, workdir: str) -> tuple:
    """Untraced loop, then traced loop, on the same ops and half the run
    each: the per-layer metrics with the tracing overhead, the spans, and
    informational extras."""
    half = args.seconds / 2
    untraced = run_loop(cli, workloads.make_workload(args.workload, args.seed, workdir), half)
    tracer = Tracer()
    traced = run_loop(cli, workloads.make_workload(args.workload, args.seed, workdir), half, tracer)
    p50_untraced = 1e3 * statistics.median(untraced.scaled())
    p50_traced = 1e3 * statistics.median(traced.scaled())
    metrics = tracer.layer_metrics(len(traced.latencies))
    metrics.update({
        "cli.output_bytes": traced.output_bytes / len(traced.latencies),
        "trace.untraced_op_p50_ms": p50_untraced,
        "trace.traced_op_p50_ms": p50_traced,
        "trace.overhead_frac": p50_traced / p50_untraced - 1.0,
        "trace.accounted_frac": tracer.total_self() / sum(traced.walls),
    })
    scan, scanned = size_scan(cli, args.workload, args.seed, workdir)
    notes = {"ops": len(traced.latencies), "untraced_ops": len(untraced.latencies),
             "absent": tracer.absent, "size_scan": scan}
    phases = [untraced, traced, scanned]
    if args.workload == "check-n16":
        baseline = threaded_blas_pass(args)
        notes["threaded_blas"] = baseline
        phase = Phase()
        phase.attempted = baseline["attempted"]
        phase.failures = ["op of the threaded BLAS pass"] * baseline["failed"]
        phases.append(phase)
    return metrics, notes, phases, tracer


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of the berezin-lab CLI.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probes", type=int, default=SETUP_PROBES,
                   help="fresh interpreters timed for setup_s (0 leaves setup_s out)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_cli()
        setup = [] if args.trace else [setup_seconds() for _ in range(args.setup_probes)]
        info = stamp(args)
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            if args.trace:
                values, notes, phases, tracer = per_layer(cli, args, workdir)
                units = {m["name"]: m["unit"] for m in per_layer_metrics()}
                metrics = {name: (values[name], units[name]) for name in units}
            else:
                phase = run_loop(cli, workloads.make_workload(args.workload, args.seed, workdir),
                                 args.seconds)
                metrics, notes = end_to_end(phase, setup)
                phases, tracer = [phase], None
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    failures = [f for phase in phases for f in phase.failures]
    attempted = sum(phase.attempted for phase in phases)
    base = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                 f"-blas{info['blas_threads']}")
    with open(base + ".json", "w") as fh:
        json.dump({"stamp": info, "metrics": metrics, "notes": notes,
                   "attempted": attempted, "failures": failures}, fh, indent=1)
    if tracer is not None:
        with open(base + "-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(" ".join(f"{k}={v}" for k, v in info.items()), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"ops = {notes['ops']}" + (f", op_tail_ms at p{TAIL_PERCENTILE} with "
                                    f"{notes['ops_above_tail']} ops above"
                                    if "ops_above_tail" in notes else ""), file=sys.stderr)
    for failure in failures[:5]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
