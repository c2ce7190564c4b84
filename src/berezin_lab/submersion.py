"""The differential of the squared-modulus map as a real Jacobian, its
rank/kernel analysis, and the sweep verifying that the kernel dimension
always equals the Berezin multiplicity of the eigenvalue 1."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import Unitary, haar_unitary_stack, require_nonzero
from .spectral import CLUSTER_TOL, eigenvalue_multiplicities, kernel_dim

# The bytes of numpy arrays one ranked sample holds at its peak, per n^4, as
# tracemalloc measures it at n = 12 to 20.  A sample whose pencil does not
# count 2n - 1 takes its count from the eigenvalues of its S, as spectrum
# does, and peaks with spectrum (43.7, 41.3 and 40.6 at n = 12, 16 and 20):
# S (16 n^4) beside the pencil and its eigenvectors, then beside Y, Y Q and
# the eigenvectors.  Any other sample peaks at 29.6, 24.2 and 24.1: S and
# the real buffer of the pencil (8 n^4), freed before any count from the
# eigenvalues.  The Jacobian side peaks at 16.3 to 16.5 n^4, two of the
# certificate's Jacobian, A, Gram matrix and factor at a time, or at 8 n^4
# for the Jacobian of the SVD, and frees them before the Berezin side runs.
# A sweep chunk and the CLI's size cap of theorem-check and sweep both
# charge this.
SAMPLE_BYTES_PER_N4 = 44
# Memory a sweep chunk may take
_CHUNK_BYTES = 8 * 2**20
_UNIT_ROUNDOFF = 2.0**-53  # of float64


def _chunk_size(n: int) -> int:
    """Samples per sweep chunk: as many as fit _CHUNK_BYTES, at least one."""
    return max(1, _CHUNK_BYTES // (SAMPLE_BYTES_PER_N4 * n**4))


def skew_hermitian_basis(n: int) -> np.ndarray:
    """A basis of the skew-Hermitian n x n matrices (the tangent space of
    the unitary group at the identity), orthonormal in the real
    Hilbert-Schmidt product Re tr(X Y*), as an (n^2, n, n) array: n
    imaginary diagonal units, then an antisymmetric-real and a
    symmetric-imaginary element with entries of modulus 1/sqrt(2) for each
    off-diagonal pair (i, j), i < j, in row-major order."""
    h = math.sqrt(0.5)
    basis = np.zeros((n * n, n, n), dtype=complex)
    k = np.arange(n)
    basis[k, k, k] = 1j
    i, j = np.triu_indices(n, 1)
    real = n + 2 * np.arange(len(i))
    basis[real, i, j], basis[real, j, i] = h, -h
    basis[real + 1, i, j] = basis[real + 1, j, i] = 1j * h
    return basis


def tangent_direction(u: Unitary, x: np.ndarray) -> np.ndarray:
    """Push the tangent vector X (skew-Hermitian, acting as u' = X u)
    through the squared-modulus map: p'[k, l] = 2 Re((X u)[k, l] conj(u[k, l])).

    The result has vanishing row and column sums (it is tangent to the
    affine space of doubly stochastic matrices).  x is one matrix or a
    stack of them along leading axes.  The Jacobian is built in closed
    form; this is its reference."""
    m = u.matrix
    return 2.0 * np.real((_skew_hermitian(x) @ m) * np.conj(m))


def _skew_hermitian(x: np.ndarray) -> np.ndarray:
    """x as a complex array, checked to satisfy X + X* = 0."""
    x = np.asarray(x, dtype=complex)
    if np.max(np.abs(x + np.conj(np.swapaxes(x, -1, -2)))) > 1e-12:
        raise ValueError("X + X* must vanish")
    return x


@dataclass
class JacobianReport:
    """One theorem verdict; its fields, in order, are its JSON keys.
    certified tells whether the Cholesky certificate gave the count; the
    singular values are listed only where the SVD gave it."""

    n: int
    rank: int
    kernel_dim: int
    berezin_multiplicity_of_one: int
    theorem_holds: bool
    is_submersion: bool
    certified: bool
    singular_values: np.ndarray | None

    def to_dict(self) -> dict:
        values = self.singular_values
        return {**vars(self), "singular_values": None if values is None else values.tolist()}


def jacobian_report(u: Unitary) -> JacobianReport:
    """Assemble the real n^2 x n^2 Jacobian of the squared-modulus map at u
    (columns indexed by the orthonormal skew-Hermitian basis, row (k, l)
    divided by |u_kl|), rank it, by the Cholesky certificate or else by
    SVD, and compare its kernel dimension with the Berezin multiplicity of
    1 computed by the entirely independent spectral pipeline.  A sweep runs
    the same code on a stack of samples."""
    require_nonzero(u)
    return _jacobian_reports(u.matrix[np.newaxis])[0]


def _jacobians(m: np.ndarray) -> np.ndarray:
    """The Jacobian of each unitary of a (samples, n, n) stack whose entries
    are all nonzero, as a (samples, n^2, n^2) real stack: column b is
    tangent_direction(u, skew_hermitian_basis(n)[b]) / |u|, flattened
    row-major, built in closed form.

    A diagonal element i E_kk pushes to 2 Re(i |u|^2) = 0, so the first n
    columns are zero.  The pair (i, j) moves only rows i and j of u: with
    g_l = sqrt(2) u_jl conj(u_il), its antisymmetric-real element gives
    Re g_l / |u_il| at (i, l) and -Re g_l / |u_jl| at (j, l), and its
    symmetric-imaginary element -Im g_l / |u_il| and Im g_l / |u_jl|."""
    count, n = len(m), m.shape[-1]
    i, j = np.triu_indices(n, 1)
    col = n + 2 * np.arange(len(i))[:, np.newaxis]
    row_i = i[:, np.newaxis] * n + np.arange(n)
    row_j = j[:, np.newaxis] * n + np.arange(n)
    w = np.abs(m)
    g = math.sqrt(2.0) * m[:, j] * np.conj(m[:, i])
    gi, gj = g / w[:, i], g / w[:, j]
    jac = np.zeros((count, n * n, n * n))
    jac[:, row_i, col] = gi.real
    jac[:, row_j, col] = -gj.real
    jac[:, row_i, col + 1] = -gi.imag
    jac[:, row_j, col + 1] = gj.imag
    return jac


def _right_phases(m: np.ndarray) -> np.ndarray:
    """The right phases u -> u exp(i t E_bb), b < n - 1, as tangent vectors
    X_b = u (i E_bb) u* in the coordinates of the off-diagonal pairs, a
    (samples, n^2 - n, n - 1) stack: the pair (i, j) holds
    sqrt(2) (Re, Im)(i u_ib conj(u_jb)).  The Jacobian vanishes on them,
    and on the diagonal directions; the n-th phase is the sum of these
    and a diagonal direction."""
    n = m.shape[-1]
    i, j = np.triu_indices(n, 1)
    x = 1j * math.sqrt(2.0) * m[:, i, :-1] * np.conj(m[:, j, :-1])
    return np.stack([x.real, x.imag], axis=2).reshape(len(m), n * (n - 1), n - 1)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _certify(m: np.ndarray) -> np.ndarray:
    """For each unitary of a (samples, n, n) stack whose entries are all
    nonzero: whether its Jacobian J provably has 2n - 1 singular values
    below CLUSTER_TOL and the rest at or above it, without an SVD.

    A is J without its n zero columns, J', with the rows Q^T appended, Q
    an orthonormal basis of the right phases.  Cholesky of A^T A - c I
    succeeding proves sigma_min(A) >= CLUSTER_TOL (shift below); every
    n-dimensional subspace meets ker Q^T, where |J' x| = |A x|, so J' has
    at most n - 1 singular values below CLUSTER_TOL.  ||J' Q||_F below
    CLUSTER_TOL gives it n - 1 of them, and J has n zero columns more:
    exactly 2n - 1, the count the SVD makes to within its rounding.

    The shift, for the order p = n^2 - n of G = fl(A^T A) and the length
    k = n^2 + n - 1 of its inner products, is
        c = 2 (gamma_{p+1} / (1 - gamma_{p+1}) + gamma_k / (1 - gamma_k) + u) tr G
            + CLUSTER_TOL^2.
    Cholesky of fl(G - c I) runs to completion only if that matrix has no
    eigenvalue below -gamma_{p+1} / (1 - gamma_{p+1}) tr G (Rump, BIT 46,
    2006, from the backward error gamma_{p+1} |R^T| |R| of a Cholesky
    factor R); the subtraction rounds the diagonal by at most u tr G;
    forming G errs by at most gamma_k || |A| ||_2^2 <= gamma_k tr(A^T A),
    under gamma_k / (1 - gamma_k) tr G.  The factor 2 covers Rump's
    underflow term, under 1e-300 here, and the rounding in tr G and in c
    itself, relative and under 1e-13."""
    count, n = len(m), m.shape[-1]
    p, k = n * (n - 1), n * n + n - 1
    q = np.linalg.qr(_right_phases(m))[0]
    a = np.concatenate([_jacobians(m)[..., n:], np.swapaxes(q, -1, -2)], axis=-2)
    residual = np.linalg.norm(a[:, :n * n] @ q, axis=(-2, -1))
    gram = np.swapaxes(a, -1, -2) @ a
    del a  # before the factor is allocated
    rump, forming = _gamma(p + 1), _gamma(k)
    coefficient = 2.0 * (rump / (1.0 - rump) + forming / (1.0 - forming) + _UNIT_ROUNDOFF)
    diag = np.arange(p)
    gram[:, diag, diag] -= (coefficient * np.trace(gram, axis1=-2, axis2=-1)
                            + CLUSTER_TOL**2)[:, np.newaxis]
    factored = np.ones(count, dtype=bool)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        # a stack fails as a whole: factor each sample on its own
        for s in range(count):
            try:
                np.linalg.cholesky(gram[s])
            except np.linalg.LinAlgError:
                factored[s] = False
    return factored & (residual < CLUSTER_TOL)


def _jacobian_reports(m: np.ndarray) -> list[JacobianReport]:
    """jacobian_report for each unitary of a (samples, n, n) stack whose
    entries are all nonzero.  The Jacobian side runs one batched Cholesky
    certificate and, on the samples it does not certify, one batched SVD;
    the Berezin side, one call of eigenvalue_multiplicities on the whole
    stack.

    Row (k, l) of the Jacobian is divided by |u_kl|, which makes it the
    differential of 2|u| in place of |u|^2: the kernel is the same since
    |u| > 0, and in the orthonormal basis the singular values are exactly
    |1 - lambda_j| over the Berezin eigenvalues lambda_j, those of S - I.
    Unscaled, they shrink by up to min|u_kl| and fall below the rank
    threshold while the Berezin side's stay above it."""
    n = m.shape[-1]
    # the certificate's and the Jacobians' stacks are freed before the
    # Berezin side's are built
    values = [None] * len(m)
    fallback = np.flatnonzero(~_certify(m))
    if len(fallback):
        for i, sv in zip(fallback, np.linalg.svd(_jacobians(m[fallback]), compute_uv=False)):
            values[i] = sv
    reports = []
    for sv, mult in zip(values, eigenvalue_multiplicities(m)):
        kernel = 2 * n - 1 if sv is None else kernel_dim(sv)
        rank = n * n - kernel
        reports.append(JacobianReport(
            n=n,
            rank=rank,
            kernel_dim=kernel,
            berezin_multiplicity_of_one=mult,
            theorem_holds=(kernel == mult),
            is_submersion=(rank == (n - 1) ** 2),
            certified=sv is None,
            singular_values=sv,
        ))
    return reports


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
        histogram = {str(k): v for k, v in sorted(self.kernel_dim_histogram.items())}
        return {**vars(self), "kernel_dim_histogram": histogram}


def check_sweep_args(n: int, samples: int, seed: int) -> None:
    """Raise ValueError unless a sweep of samples unitaries of size n from
    seed can run; the CLI calls it before opening its per-sample file."""
    if n < 2:
        raise ValueError("sweep needs n >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def submersion_sweep(n: int, samples: int, seed: int, on_chunk=None) -> SweepReport:
    """Haar-sample unitaries and collect Jacobian reports.

    Each sample gets its own derived seed (seed, index), so a sample's
    result does not depend on the others.  Samples with an entry at or
    below the entry floor are skipped and counted, not perturbed.  Samples
    are drawn and ranked in chunks of as many as fit a fixed memory
    budget.  on_chunk, if given, is called as each chunk finishes with its
    (index, JacobianReport or None) pairs in index order (streaming hook
    for the CLI)."""
    check_sweep_args(n, samples, seed)
    size = _chunk_size(n)
    skipped = 0
    submersive = 0
    violations = 0
    histogram: dict[int, int] = {}
    for start in range(0, samples, size):
        indices = range(start, min(start + size, samples))
        m, nonzero = haar_unitary_stack(n, [[seed, i] for i in indices])
        ranked = iter(_jacobian_reports(m[nonzero]))
        chunk = [(i, next(ranked) if ok else None) for i, ok in zip(indices, nonzero)]
        if on_chunk is not None:
            on_chunk(chunk)
        for _, report in chunk:
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
