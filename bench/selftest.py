"""Self-test of the benchmark.

    python3 bench/selftest.py [--seconds 1]

Runs every workload for a few ops, untraced and traced, each in a fresh
interpreter, and prints its end-to-end metrics by name and unit.  Checks
that every op passes its oracle, that every metric in BENCHMARK.json is
printed with its unit, that every per-layer metric names the end-to-end
metric and the workloads it should move, that every oracle rejects a
non-zero exit code and a truncated output, and that a traced function that
no longer exists is reported as absent.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402

problems: list = []


def require(cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def check_spec(spec: dict) -> None:
    """BENCHMARK.json lists exactly the per-layer metrics of tracing.py, and
    each of those names an end-to-end metric and workloads of the spec."""
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    require(names == set(workloads.WORKLOADS), f"workloads {sorted(names)}")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    table = per_layer_metrics()
    require(listed == [(m["name"], m["unit"], m["better"]) for m in table],
            "BENCHMARK.json per_layer differs from tracing.per_layer_metrics()")
    for m in table:
        require(m["moves"] in end_to_end, f"{m['name']} moves unknown metric {m['moves']}")
        require(bool(m["workloads"]) and set(m["workloads"]) <= names,
                f"{m['name']} names unknown workloads {m['workloads']}")


def check_run(spec: dict, workload: str, trace: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", str(seconds), "--trace", str(trace), "--setup-probes", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    require(bool(lines), f"{workload} trace={trace}: no output; {proc.stderr[-500:]}")
    if not lines:
        return {}
    result = json.loads(lines[-1])
    require(proc.returncode == 0 and result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1,
            f"{workload} trace={trace}: exit {proc.returncode}, {result['failed']} of "
            f"{result['attempted']} ops failed; {proc.stderr[-500:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    require(printed == expected, f"{workload} trace={trace}: metrics {printed} != {expected}")
    if trace:
        accounted = result["metrics"]["trace.accounted_frac"]["value"]
        require(accounted > 0.95, f"{workload}: spans cover only {accounted:.3f} of op time")
    return result["metrics"]


def check_oracles_reject() -> None:
    """Every op variant passes its oracle once, and fails it when the exit
    code is non-zero or the output is cut short."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import berezin_lab.cli as cli

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as workdir:
        for name in workloads.WORKLOADS:
            wl = workloads.make_workload(name, 1, workdir)
            for i in range(wl.variants):
                op = wl.op(i)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(op.argv)
                text = out.getvalue()
                require(op.check(rc, text) >= 1, f"{name} op {i}: no verdict counted")
                for bad_rc, bad_text in ((2, text), (0, text[: len(text) // 2])):
                    try:
                        op.check(bad_rc, bad_text)
                    except Exception:
                        continue
                    require(False, f"{name} op {i}: oracle accepted exit {bad_rc}, "
                                   f"{len(bad_text)} of {len(text)} chars")


def check_absent_tolerated() -> None:
    """A traced function that no longer exists is reported, not fatal."""
    import berezin_lab.symmetry as symmetry

    fn = symmetry.check_weyl_relations
    del symmetry.check_weyl_relations
    tracer = Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        symmetry.check_weyl_relations = fn
    require(tracer.absent == ["symmetry.check_weyl_relations"], f"absent {tracer.absent}")
    metrics = tracer.layer_metrics(1)
    require(metrics["symmetry.check_weyl_relations.calls"] == 0, "absent function counted")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    check_oracles_reject()
    check_absent_tolerated()
    for w in spec["workloads"]:
        metrics = check_run(spec, w["name"], 0, args.seconds)
        print(w["name"] + ": " + ", ".join(
            f"{k} = {v['value']:.4g} {v['unit']}" for k, v in metrics.items()))
        check_run(spec, w["name"], 1, args.seconds)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
