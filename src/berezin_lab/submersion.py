"""The differential of the squared-modulus map as a real Jacobian, its
rank/kernel analysis, and the sweep verifying that the kernel dimension
always equals the Berezin multiplicity of the eigenvalue 1."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrices import Unitary, haar_unitary_stack, require_nonzero
from .spectral import certified_kernel, eigenvalue_multiplicities, higham_gamma, kernel_dim

# The bytes of numpy arrays one ranked sample holds at its peak, per n^4, as
# tracemalloc measures it at n = 12 to 20.  A sample the Berezin side's
# certificate fails takes its count from the eigenvalues of its S, as
# spectrum does, and peaks with spectrum (32.7, 32.3 and 32.2 at n = 12, 16
# and 20): S (16 n^4) beside the pencil and a copy of Y, which are all that
# is kept of S through the solve.  Any other sample peaks at 29.6, 24.1 and
# 24.1: S beside G (8 n^4), which is factored once S is freed, or at n = 12
# the product that forms S, with its operands and numpy's fixed buffer.  The
# Jacobian side peaks at 14.1 to 14.8 n^4, its Gram matrix beside the
# scattered blocks or the factor, or at 8 n^4 for the Jacobian of the SVD,
# and frees them before the Berezin side runs.  A sweep chunk and the CLI's
# size cap of theorem-check and sweep both charge this.
SAMPLE_BYTES_PER_N4 = 33
# Memory a sweep chunk may take
_CHUNK_BYTES = 8 * 2**20


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
    certified tells whether the Cholesky certificate gave the kernel
    dimension, and berezin_certified whether the Berezin side's gave the
    multiplicity of 1; the singular values are listed only where the SVD
    gave the kernel dimension."""

    n: int
    rank: int
    kernel_dim: int
    berezin_multiplicity_of_one: int
    theorem_holds: bool
    is_submersion: bool
    certified: bool
    berezin_certified: bool
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


class _Layout(NamedTuple):
    """The index arrays that take the Jacobian's row blocks from a stack of
    unitaries of size n and scatter them into the Jacobian or its Gram
    matrix.  Row block k is rows (k, l), l < n; it is nonzero only in the
    2 (n - 1) columns of the n - 1 off-diagonal pairs that contain k, taken
    in the order of the pair's other index."""

    i: np.ndarray  # the off-diagonal pairs (i, j), i < j, in row-major order
    j: np.ndarray
    # where u_jl and u_il lie in a flattened u, for the pair (i, j) of each
    # slot of each block and each l, shaped (n, n, n - 1)
    at_j: np.ndarray
    at_i: np.ndarray
    sign: np.ndarray  # 1 where block k is the pair's row i, -1 where its row j
    # the columns of J' (J without its n zero columns) of each block, an
    # (n, 2 (n - 1)) array with the pair's two elements adjacent
    cols: np.ndarray
    # where each entry of each block's own Gram matrix lands in the
    # flattened p x p Gram matrix, p = n^2 - n
    gram_index: np.ndarray


@functools.cache
def _layout(n: int) -> _Layout:
    """The _Layout of size n, built once per n."""
    i, j = np.triu_indices(n, 1)
    pair_of = np.zeros((n, n), dtype=np.intp)
    pair_of[i, j] = pair_of[j, i] = np.arange(len(i))
    others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    pair = np.take_along_axis(pair_of, others, axis=1)
    cols = (2 * pair[..., np.newaxis] + np.arange(2)).reshape(n, 2 * (n - 1))
    ls, p = np.arange(n)[:, np.newaxis], n * (n - 1)
    return _Layout(i, j, j[pair][:, np.newaxis] * n + ls, i[pair][:, np.newaxis] * n + ls,
                   np.where(others > ls, 1.0, -1.0)[:, np.newaxis], cols,
                   (cols[:, :, np.newaxis] * p + cols[:, np.newaxis, :]).ravel())


def _row_blocks(m: np.ndarray) -> np.ndarray:
    """The nonzero row blocks of the Jacobian of each unitary of a
    (samples, n, n) stack whose entries are all nonzero, as a
    (samples, n, n, 2 (n - 1)) stack: block k holds rows (k, l) in the
    columns _Layout.cols lists for it, the Jacobian's closed form.

    A diagonal element i E_kk pushes to 2 Re(i |u|^2) = 0, so the first n
    columns are zero.  The pair (i, j) moves only rows i and j of u: with
    g_l = sqrt(2) u_jl conj(u_il), its antisymmetric-real element gives
    Re g_l / |u_il| at (i, l) and -Re g_l / |u_jl| at (j, l), and its
    symmetric-imaginary element -Im g_l / |u_il| and Im g_l / |u_jl|:
    the real and imaginary parts of conj(g_l / |u_il|) and of
    conj(g_l / -|u_jl|)."""
    count, n = len(m), m.shape[-1]
    layout = _layout(n)
    flat = m.reshape(count, n * n)
    g = (math.sqrt(2.0) * np.take(flat, layout.at_j, axis=1)
         * np.conj(np.take(flat, layout.at_i, axis=1)))
    g /= np.abs(m)[..., np.newaxis] * layout.sign
    return np.conj(g, out=g).view(np.float64)


def _jacobians(m: np.ndarray) -> np.ndarray:
    """The Jacobian of each unitary of a (samples, n, n) stack whose entries
    are all nonzero, as a (samples, n^2, n^2) real stack: column b is
    tangent_direction(u, skew_hermitian_basis(n)[b]) / |u|, flattened
    row-major, its row blocks (_row_blocks) scattered into zeros."""
    count, n = len(m), m.shape[-1]
    jac = np.zeros((count, n * n, n * n))
    jac[:, np.arange(n * n).reshape(n, n, 1), n + _layout(n).cols[:, np.newaxis]] = _row_blocks(m)
    return jac


def _right_phases(m: np.ndarray) -> np.ndarray:
    """The right phases u -> u exp(i t E_bb), b < n - 1, as tangent vectors
    X_b = u (i E_bb) u* in the coordinates of the off-diagonal pairs, a
    (samples, n^2 - n, n - 1) stack: the pair (i, j) holds
    sqrt(2) (Re, Im)(i u_ib conj(u_jb)).  The Jacobian vanishes on them,
    and on the diagonal directions; the n-th phase is the sum of these
    and a diagonal direction."""
    n = m.shape[-1]
    layout = _layout(n)
    x = 1j * math.sqrt(2.0) * m[:, layout.i, :-1] * np.conj(m[:, layout.j, :-1])
    return np.stack([x.real, x.imag], axis=2).reshape(len(m), n * (n - 1), n - 1)


def _block_gram(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = A^T A and ||J' Q||_F for each unitary of a (samples, n, n)
    stack whose entries are all nonzero, a (samples, p, p) and a
    (samples,) array, p = n^2 - n, with J', Q and A as in _certify.
    Neither J nor A is built: G is Q Q^T plus the Gram matrices B_k^T B_k
    of J's row blocks (_row_blocks), taken in one batched product and
    scattered into place by one bincount, and J' Q is the stack of the
    products B_k Q[cols_k]."""
    count, n = len(m), m.shape[-1]
    p = n * (n - 1)
    layout = _layout(n)
    q = np.linalg.qr(_right_phases(m))[0]
    blocks = _row_blocks(m)
    residual = np.linalg.norm((blocks @ q[:, layout.cols]).reshape(count, n * n, n - 1),
                              axis=(-2, -1))
    # the blocks' Gram matrices in place, before G itself is allocated
    scattered = np.bincount((p * p * np.arange(count)[:, np.newaxis] + layout.gram_index).ravel(),
                            weights=(np.swapaxes(blocks, -1, -2) @ blocks).ravel(),
                            minlength=count * p * p)
    del blocks
    gram = q @ np.swapaxes(q, -1, -2)
    gram += scattered.reshape(gram.shape)
    return gram, residual


def _certify(m: np.ndarray) -> np.ndarray:
    """For each unitary of a (samples, n, n) stack whose entries are all
    nonzero: whether its Jacobian J provably has 2n - 1 singular values
    below CLUSTER_TOL and the rest at or above it, without an SVD.

    A is J without its n zero columns, J', with the rows Q^T appended, Q
    an orthonormal basis of the right phases.  certified_kernel takes
    T = J', r = n - 1, K = Q with floor 1, and g = G = A^T A =
    J'^T J' + Q Q^T, formed from J's row blocks with ||J' Q||_F
    (_block_gram).  Each entry of G is a sum of at most 3n - 1 <= k
    products, k = n^2 + n - 1 the length of A's columns, n from each of
    the two blocks that meet it and n - 1 from Q Q^T; so in whatever order
    they are added forming G errs by at most
    gamma_k || |A| ||_2^2 <= gamma_k tr(A^T A), under the slack
    gamma_k / (1 - gamma_k) tr G.  J' then has exactly n - 1 singular
    values below CLUSTER_TOL, and J, with n zero columns more, 2n - 1: the
    count the SVD makes to within its rounding.  ||J' Q||_F takes no
    rounding term: floor 1 sets its bound at CLUSTER_TOL, 5e5 to 3e6 times
    its value on a unitary at n = 16 (3e-15 to 2e-14), and its rounding,
    under gamma_{2n+8} ||J'||_F ||Q||_F <= gamma_{2n+8} 2n sqrt(n - 1)
    (5.5e-13 at n = 16), could sway no residual so far below the bound."""
    n = m.shape[-1]
    gram, residual = _block_gram(m)
    forming = higham_gamma(n * n + n - 1)
    slack = forming / (1.0 - forming) * np.trace(gram, axis1=-2, axis2=-1)
    return certified_kernel(gram, slack, residual, 1.0)


def _jacobian_reports(m: np.ndarray) -> list[JacobianReport]:
    """jacobian_report for each unitary of a (samples, n, n) stack whose
    entries are all nonzero.  Each side runs one batched Cholesky
    certificate: the Jacobian side, then one batched SVD of the samples it
    does not certify; the Berezin side, one call of
    eigenvalue_multiplicities on the whole stack.

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
    for sv, mult, proved in zip(values, *eigenvalue_multiplicities(m)):
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
            berezin_certified=proved,
            singular_values=sv,
        ))
    return reports


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
    # the stream the samples were drawn from
    seed: int
    numpy_version: str

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

    The samples are haar_unitary_stack's draws from one stream,
    default_rng(seed), so sample i depends only on (seed, i), and sample 0
    is haar_random_unitary(n, seed).  Samples with an entry at or below the
    entry floor are skipped and counted, not perturbed.  Samples are drawn
    and ranked in chunks of as many as fit a fixed memory budget.  on_chunk,
    if given, is called as each chunk finishes with its (index,
    JacobianReport or None) pairs in index order (streaming hook for the CLI)."""
    check_sweep_args(n, samples, seed)
    size = _chunk_size(n)
    skipped = 0
    submersive = 0
    violations = 0
    histogram: dict[int, int] = {}
    rng = np.random.default_rng(seed)
    for start in range(0, samples, size):
        indices = range(start, min(start + size, samples))
        m, nonzero = haar_unitary_stack(n, len(indices), rng)
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
        seed=seed, numpy_version=np.__version__,
    )
