"""Host speed, measured with fixed pieces of reference work.

The benchmark runs on a few cores of a shared host whose speed swings by up
to a half within minutes: a fixed LAPACK call and a fixed pure-Python loop
both took 0.62-0.68 of their slow-phase time in fast phases of one 90-second
run on a 2-vCPU cloud VM, and their CPU time swung with their wall time, so
timing CPU time alone does not remove the swing.  A time measured in one
phase and compared with one measured in another reads that swing, not the
program.

So the benchmark times the CPU time of a reference before and after every
op, and scales each op's CPU time by the reference's nominal time over the
mean of the two reference times that bracket it (``scaled``): timings are
reported in milliseconds on a host where the reference takes its nominal
time.  Bracketing each op left less spread in the median and p90 than
unscaled times, a per-run scale, or medians over wider windows of reference
samples.  The references use only NumPy, SciPy and the interpreter, and no
code of the package, so a change to the package cannot move them.

Not all code slows alike in a slow phase, so there are two references and
each workload is scaled by the one whose slowdown tracks its own (its
``reference`` attribute).  Over six 20-second segments per workload spread
over two fast and one slow phase, the coefficient of variation of the
segments' scaled median was, for the LAPACK-bound reference and for the
interpreter-bound one: check-n16 0.011 and 0.092, verify-n12 0.008 and
0.036, sweep-n4 0.049 and 0.021 (unscaled 0.096, 0.086 and 0.085).
"""

from __future__ import annotations

import json
from time import process_time

import numpy as np
import scipy.linalg

_rng = np.random.default_rng(20080614)
_DENSE = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_MEDIUM = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_DOC = {"values": [1.5, 2.5, 3.5] * 10, "meta": {"name": "x" * 20, "flags": [True, None] * 5}}


def lapack_seconds() -> float:
    """CPU time of one pass of LAPACK-bound reference work: one dense
    eigenvalue problem, then small products and a Python loop."""
    start = process_time()
    scipy.linalg.eigvals(_DENSE)
    x = _SMALL
    for _ in range(60):
        x = x @ _SMALL
        x = x / np.abs(x).max()
    total = 0
    for i in range(15000):
        total += i * i
    return process_time() - start


def interpreter_seconds() -> float:
    """CPU time of one pass of interpreter-bound reference work: many calls
    of NumPy's and SciPy's Python wrappers on small arrays, JSON and string
    handling."""
    start = process_time()
    for _ in range(6):
        np.linalg.svd(_MEDIUM, compute_uv=False)
        np.linalg.qr(_SMALL)
        np.einsum("ij,kj->ik", _SMALL, _SMALL.conj())
        np.abs(scipy.linalg.eigvals(_SMALL))
        np.round(np.angle(_MEDIUM), 3)
        json.loads(json.dumps(_DOC))
        sorted(str(i) for i in range(120))
    return process_time() - start


# each reference and the milliseconds it takes on the host the timings are
# rescaled to, about what it takes in a fast phase of a 2-vCPU cloud VM
REFERENCES = {
    "lapack": (lapack_seconds, 3.0),
    "interpreter": (interpreter_seconds, 2.0),
}


def measure(kind: str) -> float:
    """CPU time of one pass of the reference `kind`."""
    return REFERENCES[kind][0]()


def scaled(seconds: list, reference: list, kind: str) -> list:
    """Each time of `seconds` rescaled to the reference host.  seconds[i]
    was measured between reference[i] and reference[i + 1], passes of the
    reference `kind`."""
    if len(reference) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} times need {len(seconds) + 1} reference times")
    nominal = REFERENCES[kind][1] * 1e-3
    return [value * 2 * nominal / (reference[i] + reference[i + 1])
            for i, value in enumerate(seconds)]
