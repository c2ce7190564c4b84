"""Benchmark workloads and their oracles.

Each workload is a closed loop with one client: an op is one call to
``berezin_lab.cli.main(argv)``, and the next op starts when the previous one
has returned.  Every input is derived from the benchmark seed.  Every op's
output is checked against closed forms computed here with NumPy alone, never
with the package under test.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SWEEP_SAMPLES = 25
# checks verify-all runs at every n >= 3
VERIFY_CHECKS = {
    "isometry", "conjugation", "berezin-consistency", "weyl",
    "fourier-eigenfunctions", "fourier-shifts", "permutation-equivariance",
    "spectrum-table",
}
UNIT_TOL = 1e-8       # the CLI's own unit-circle invariant
ROOT_TOL = 1e-6       # distance at which an eigenvalue counts as a given root of unity
CLUSTER_TOL = 1e-9    # text output prints cluster values to 12 decimals


class OracleError(Exception):
    """An op's output disagrees with the closed form."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


@dataclass
class Op:
    """One CLI call and its oracle.

    check(exit_code, stdout) raises OracleError on a wrong output and
    otherwise returns how many unitaries the op gave a verdict on.
    """

    argv: list
    check: Callable[[int, str], int]
    files: list = field(default_factory=list)  # files the op writes


# ---------------------------------------------------------------------------
# closed forms


def fourier_exponent_counts(n: int) -> list:
    """Eigenvalues of the Fourier Berezin transform are exp(2 pi i rs/n) over
    all (r, s); entry m counts the pairs with rs = m mod n."""
    counts = [0] * n
    for r in range(n):
        for s in range(n):
            counts[r * s % n] += 1
    return counts


def fourier_multiplicity_of_one(n: int) -> int:
    return sum(math.gcd(r, n) for r in range(n))


def example2_clusters(n: int, theta: complex) -> list:
    """(value, multiplicity) of the Berezin spectrum of Id + (theta - 1)/n,
    empty clusters dropped."""
    tb = theta.conjugate()
    d = theta + n - 1
    clusters = [
        (1.0 + 0j, 2 * n - 1),
        (-theta * (tb + n - 1) / d, 1),
        (-(tb + n - 1) / d, n - 1),
        (tb, (n * n - 3 * n + 2) // 2),
        (-tb, (n * n - 3 * n) // 2),
    ]
    return [(v, m) for v, m in clusters if m > 0]


def example2_angle(rng: np.random.Generator, n: int) -> float:
    """An angle whose five predicted eigenvalues are well separated, so that
    each cluster is resolved and no op is expected to fail."""
    while True:
        angle = float(rng.uniform(0.2, math.pi - 0.2)) * (1 if rng.random() < 0.5 else -1)
        values = [v for v, _ in example2_clusters(n, complex(math.cos(angle), math.sin(angle)))]
        gaps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]]
        if min(gaps) > 1e-3:
            return angle


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """QR of a complex Ginibre matrix, columns rephased so that R has a
    real positive diagonal."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def write_matrix_file(path: str, m: np.ndarray) -> None:
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    with open(path, "w") as fh:
        json.dump({"n": m.shape[0], "entries": entries}, fh)


# ---------------------------------------------------------------------------
# oracles


def _exit_ok(rc) -> None:
    expect(rc == 0, f"exit code {rc}")


def check_sweep(rc, out, *, n, samples, csv_path) -> int:
    _exit_ok(rc)
    rep = json.loads(out)
    used = samples - rep["skipped"]
    generic = 2 * n - 1
    expect(rep["samples"] == samples, f"samples {rep['samples']} != {samples}")
    expect(rep["theorem_violations"] == 0, f"{rep['theorem_violations']} theorem violations")
    expected_hist = {str(generic): used} if used else {}
    expect(rep["kernel_dim_histogram"] == expected_hist,
           f"histogram {rep['kernel_dim_histogram']} != {expected_hist}")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expect(sorted(int(r["sample"]) for r in rows) == list(range(samples)),
           "per-sample CSV does not hold one row per sample")
    verdicts = [r for r in rows if r["skipped"] == "0"]
    expect(len(verdicts) == used, f"{len(verdicts)} CSV verdicts != {used}")
    for r in verdicts:
        got = (int(r["rank"]), int(r["kernel_dim"]), int(r["berezin_multiplicity_of_one"]),
               r["theorem_holds"], r["is_submersion"])
        expect(got == ((n - 1) ** 2, generic, generic, "1", "1"),
               f"sample {r['sample']}: {got}")
    return used


def check_theorem(rc, out, *, n) -> int:
    _exit_ok(rc)
    rep = json.loads(out)
    generic = 2 * n - 1
    got = (rep["rank"], rep["kernel_dim"], rep["berezin_multiplicity_of_one"], rep["theorem_holds"])
    expect(got == ((n - 1) ** 2, generic, generic, True),
           f"(rank, kernel_dim, multiplicity, holds) = {got}")
    return 1


def _unit_moduli(values: np.ndarray, n: int) -> None:
    expect(values.size == n * n, f"{values.size} eigenvalues, expected {n * n}")
    dev = float(np.max(np.abs(np.abs(values) - 1.0)))
    expect(dev <= UNIT_TOL, f"eigenvalue modulus off 1 by {dev:.3e}")


def check_fourier_json(rc, out, *, n) -> int:
    _exit_ok(rc)
    rep = json.loads(out)
    values = np.array([complex(re, im) for re, im in rep["eigenvalues"]])
    _unit_moduli(values, n)
    turns = np.angle(values) * n / (2 * math.pi)
    nearest = np.rint(turns)
    expect(float(np.max(np.abs(turns - nearest))) <= ROOT_TOL,
           "eigenvalue is not an n-th root of unity")
    hist = np.bincount(nearest.astype(int) % n, minlength=n).tolist()
    expect(hist == fourier_exponent_counts(n), f"root-of-unity histogram {hist}")
    mult = fourier_multiplicity_of_one(n)
    got = (rep["multiplicity_of_one"], rep["kernel_method_dim"])
    expect(got == (mult, mult), f"multiplicity of 1 {got}, expected {mult}")
    return 1


_CLUSTER_LINE = re.compile(r"^\s+([+-][0-9.]+)([+-][0-9.]+)i\s+x(\d+)$")


def check_example2_text(rc, out, *, n, theta) -> int:
    _exit_ok(rc)
    lines = out.strip().splitlines()
    clusters = []
    for line in lines[2:]:
        m = _CLUSTER_LINE.match(line)
        expect(m is not None, f"unparsed line {line!r}")
        clusters.append((complex(float(m[1]), float(m[2])), int(m[3])))
    predicted = example2_clusters(n, theta)
    expect(lines[:2] == [f"n = {n}", f"multiplicity of 1 = {2 * n - 1}"], f"header {lines[:2]}")
    expect(len(clusters) == len(predicted), f"{len(clusters)} clusters, expected {len(predicted)}")
    for value, mult in predicted:
        hits = [m for v, m in clusters if abs(v - value) <= CLUSTER_TOL]
        expect(hits == [mult], f"cluster at {value:.6f}: {hits}, expected [{mult}]")
    return 1


def check_haar_csv(rc, out, *, n) -> int:
    _exit_ok(rc)
    lines = out.strip().splitlines()
    expect(lines[0] == "re,im,modulus,cluster_id", f"header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    values = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    _unit_moduli(values, n)
    moduli = np.array([float(r[2]) for r in rows])
    expect(bool(np.allclose(moduli, np.abs(values), rtol=0, atol=1e-12)), "modulus column")
    ones = np.abs(values - 1.0) <= ROOT_TOL
    expect(int(ones.sum()) == 2 * n - 1, f"multiplicity of 1 is {int(ones.sum())}")
    expect(len({rows[i][3] for i in np.flatnonzero(ones)}) == 1,
           "eigenvalues at 1 split across clusters")
    return 1


def check_verify(rc, out, *, n) -> int:
    _exit_ok(rc)
    rows = json.loads(out)
    names = {r["check"] for r in rows}
    expect(VERIFY_CHECKS <= names, f"missing checks {sorted(VERIFY_CHECKS - names)}")
    bad = [r["check"] for r in rows if r["status"] != "pass" or r["n"] != n]
    expect(not bad, f"checks not passing at n={n}: {bad}")
    return 3  # its Haar, Fourier and symmetric-family matrices


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """The op sequence of one workload.

    Inputs come from one generator seeded by the benchmark seed, drawn in op
    order, so the same seed gives the same ops.  ``variants`` is the number
    of distinct op shapes a warm-up must cover.
    """

    variants = 1
    n = 0  # matrix size unless the constructor is given another
    # the reference work whose slowdown on a slow host tracks this
    # workload's ops (reference.py)
    reference = "lapack"

    def __init__(self, seed: int, workdir: str, n: int | None = None):
        self.rng = np.random.default_rng(seed)
        if n is not None:
            self.n = n

    def _seed(self) -> str:
        return str(int(self.rng.integers(2**31)))

    def op(self, i: int) -> Op:
        raise NotImplementedError


class Sweep(Workload):
    n = 4
    reference = "interpreter"

    def __init__(self, seed, workdir, n=None, samples=SWEEP_SAMPLES):
        super().__init__(seed, workdir, n)
        self.samples = samples
        self.csv_path = os.path.join(workdir, "per_sample.csv")

    def op(self, i):
        n, samples, path = self.n, self.samples, self.csv_path
        argv = ["sweep", "--n", str(n), "--samples", str(samples), "--seed", self._seed(),
                "--per-sample", path]
        return Op(argv, lambda rc, out: check_sweep(rc, out, n=n, samples=samples, csv_path=path),
                  files=[path])


class TheoremCheck(Workload):
    n = 16

    def op(self, i):
        n = self.n
        argv = ["theorem-check", "--family", "haar", "--n", str(n), "--seed", self._seed()]
        return Op(argv, lambda rc, out: check_theorem(rc, out, n=n))


class Spectrum(Workload):
    """Cycles Fourier (JSON), the symmetric family at a seeded angle (text)
    and Haar matrix files written here (CSV)."""

    variants = 3
    n = 16
    matrix_files = 8

    def __init__(self, seed, workdir, n=None):
        super().__init__(seed, workdir, n)
        self.paths = []
        for k in range(self.matrix_files):
            path = os.path.join(workdir, f"haar_n{self.n}_{k}.json")
            write_matrix_file(path, haar_unitary(self.rng, self.n))
            self.paths.append(path)

    def op(self, i):
        n = self.n
        kind = i % 3
        if kind == 0:
            argv = ["spectrum", "--family", "fourier", "--n", str(n), "--format", "json"]
            return Op(argv, lambda rc, out: check_fourier_json(rc, out, n=n))
        if kind == 1:
            angle = example2_angle(self.rng, n)
            theta = complex(math.cos(angle), math.sin(angle))
            argv = ["spectrum", "--family", "example2", "--n", str(n),
                    "--theta", f"angle:{angle!r}", "--format", "text"]
            return Op(argv, lambda rc, out: check_example2_text(rc, out, n=n, theta=theta))
        path = self.paths[(i // 3) % len(self.paths)]
        argv = ["spectrum", "--matrix-file", path, "--format", "csv"]
        return Op(argv, lambda rc, out: check_haar_csv(rc, out, n=n))


class VerifyAll(Workload):
    n = 12

    def op(self, i):
        n = self.n
        argv = ["verify-all", "--n", str(n), "--format", "json", "--seed", self._seed()]
        return Op(argv, lambda rc, out: check_verify(rc, out, n=n))


WORKLOADS = {
    "sweep-n4": Sweep,
    "check-n16": TheoremCheck,
    "spectrum-n16": Spectrum,
    "verify-n12": VerifyAll,
}

# size scan of the traced run: each workload's op at these n, sweeps shortened
SCAN_NS = (3, 5, 8, 12, 16, 20)
SCAN_SWEEP_SAMPLES = 3


def make_workload(name: str, seed: int, workdir: str, n: int | None = None) -> Workload:
    """The named workload at its own size, or at size n for the size scan."""
    if n is not None and WORKLOADS[name] is Sweep:
        return Sweep(seed, workdir, n, samples=SCAN_SWEEP_SAMPLES)
    return WORKLOADS[name](seed, workdir, n)
