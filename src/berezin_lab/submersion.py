"""The differential of the squared-modulus map as a real Jacobian, its
rank/kernel analysis, and the sweep verifying that the kernel dimension
always equals the Berezin multiplicity of the eigenvalue 1."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSkewHermitianError, NotTangentError
from .matrices import Unitary, haar_random_unitary, require_nonzero
from .spectral import eigenvalue_multiplicity, kernel_dim
from .symbols import build_berezin


def skew_hermitian_basis(n: int) -> list[np.ndarray]:
    """A real-linear basis of the skew-Hermitian n x n matrices (the
    tangent space of the unitary group at the identity): n imaginary
    diagonal units, then antisymmetric-real and symmetric-imaginary units
    for each off-diagonal pair.  n^2 elements in total."""
    basis = []
    for k in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k, k] = 1j
        basis.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = 1.0, -1.0
            basis.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1j
            basis.append(m)
    return basis


def tangent_direction(u: Unitary, x: np.ndarray) -> np.ndarray:
    """Push the tangent vector X (skew-Hermitian, acting as u' = X u)
    through the squared-modulus map: p'[k, l] = 2 Re((X u)[k, l] conj(u[k, l])).

    The result has vanishing row and column sums (it is tangent to the
    affine space of doubly stochastic matrices).  x is one matrix or a
    stack of them along leading axes."""
    return 2.0 * np.real((_skew_hermitian(x) @ u.matrix) * np.conj(u.matrix))


def _skew_hermitian(x: np.ndarray) -> np.ndarray:
    """x as a complex array, checked to satisfy X + X* = 0."""
    x = np.asarray(x, dtype=complex)
    if np.max(np.abs(x + np.conj(np.swapaxes(x, -1, -2)))) > 1e-12:
        raise NotSkewHermitianError("X + X* must vanish")
    return x


def symbol_pair_of_direction(u: Unitary, u_dot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (c-symbol, d-symbol) pair of the skew-Hermitian operator behind
    a tangent direction u_dot: f[k, l] = u_dot[k, l] / u[k, l] and
    g[k, l] = -conj(u_dot[k, l]) / conj(u[k, l]), so f = -conj(g)."""
    require_nonzero(u)
    u_dot = np.asarray(u_dot, dtype=complex)
    x = u_dot @ u.matrix.conj().T
    if np.max(np.abs(x + x.conj().T)) > 1e-10:
        raise NotTangentError("u_dot u* is not skew-Hermitian")
    f = u_dot / u.matrix
    return f, -np.conj(f)


@dataclass
class JacobianReport:
    n: int
    singular_values: np.ndarray
    rank: int
    kernel_dim: int
    berezin_multiplicity_of_one: int
    theorem_holds: bool
    is_submersion: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            "berezin_multiplicity_of_one": self.berezin_multiplicity_of_one,
            "theorem_holds": self.theorem_holds,
            "is_submersion": self.is_submersion,
            "singular_values": [float(s) for s in self.singular_values],
        }


def jacobian_report(u: Unitary) -> JacobianReport:
    """Assemble the real n^2 x n^2 Jacobian of the squared-modulus map at u
    (columns indexed by the skew-Hermitian basis), rank it by SVD, and
    compare its kernel dimension with the Berezin multiplicity of 1
    computed by the entirely independent spectral pipeline."""
    require_nonzero(u)
    n = u.n
    directions = tangent_direction(u, np.stack(skew_hermitian_basis(n)))
    jac = directions.reshape(n * n, n * n).T
    sv = np.linalg.svd(jac, compute_uv=False)
    kernel = kernel_dim(sv, n)
    rank = n * n - kernel
    mult = eigenvalue_multiplicity(build_berezin(u))
    return JacobianReport(
        n=n,
        singular_values=sv,
        rank=rank,
        kernel_dim=kernel,
        berezin_multiplicity_of_one=mult,
        theorem_holds=(kernel == mult),
        is_submersion=(rank == (n - 1) ** 2),
    )


def finite_difference_direction(u: Unitary, x: np.ndarray, h: float) -> np.ndarray:
    """One-sided difference quotient of the squared-modulus map along the
    curve t -> exp(tX) u; first-order accurate, used to validate the
    analytic differential.  exp(hX) = V diag(exp(i h lambda)) V* from the
    eigendecomposition of the Hermitian -iX, exact only for skew-Hermitian X."""
    lam, v = np.linalg.eigh(-1j * _skew_hermitian(x))
    curve = (v * np.exp(1j * h * lam)) @ v.conj().T @ u.matrix
    return (np.abs(curve) ** 2 - np.abs(u.matrix) ** 2) / h


@dataclass
class SweepReport:
    n: int
    samples: int
    skipped: int
    submersive_fraction: float
    theorem_violations: int
    kernel_dim_histogram: dict
    min_kernel_dim: int
    max_kernel_dim: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "skipped": self.skipped,
            "submersive_fraction": self.submersive_fraction,
            "theorem_violations": self.theorem_violations,
            "kernel_dim_histogram": {str(k): v for k, v in sorted(self.kernel_dim_histogram.items())},
            "min_kernel_dim": self.min_kernel_dim,
            "max_kernel_dim": self.max_kernel_dim,
        }


def submersion_sweep(n: int, samples: int, seed: int, on_sample=None) -> SweepReport:
    """Haar-sample unitaries and collect Jacobian reports.

    Each sample gets its own derived seed (seed, index), so a sample's
    result does not depend on the others.  Samples with an entry at or
    below the entry floor are skipped and counted, not perturbed.
    on_sample, if given, is called with (index, JacobianReport or None) as
    each sample finishes (streaming hook for the CLI)."""
    if n < 2:
        raise ValueError("sweep needs n >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")

    skipped = 0
    submersive = 0
    violations = 0
    histogram: dict[int, int] = {}
    for i in range(samples):
        u = haar_random_unitary(n, [seed, i])
        report = jacobian_report(u) if u.nonzero_entries else None
        if on_sample is not None:
            on_sample(i, report)
        if report is None:
            skipped += 1
            continue
        histogram[report.kernel_dim] = histogram.get(report.kernel_dim, 0) + 1
        submersive += report.is_submersion
        violations += not report.theorem_holds
    used = samples - skipped
    return SweepReport(
        n=n,
        samples=samples,
        skipped=skipped,
        submersive_fraction=(submersive / used) if used else 0.0,
        theorem_violations=violations,
        kernel_dim_histogram=histogram,
        min_kernel_dim=min(histogram, default=0),
        max_kernel_dim=max(histogram, default=0),
    )
