"""Spectral decomposition of the Berezin transform and multiplicity
counting for its eigenvalues.

The transform is unitary only in the weighted product.  Conjugating by
W = diag(|u_kl|) gives the standardized matrix

    S[(k,l),(k',l')] = p[k,l] p[k',l'] u[k,l'] u[k',l],   p = |u| / u,

which is unitary in the standard product and symmetric, S = S^T.  Writing
S = X + iY, both parts are real symmetric, and S S* = I gives XY = YX and
X^2 + Y^2 = I: X and Y share a real orthonormal eigenbasis Q, with
S q_j = (a_j + i b_j) q_j.  Everything here works from that structure:
eigenvalues from one real symmetric eigendecomposition, kernels from real
SVDs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverFailure
from .symbols import BerezinTransform

KERNEL_RANK_TOL = 1e-8  # scaled by n before use
CLUSTER_TOL = 1e-8  # eigenvalues closer than this to a cluster's mean join it
# X + MIX Y has the eigenvalue a + MIX b = sec(1) cos(theta - 1) on the
# eigenvector of e^{i theta}, so two eigenvalues share it only when their
# angles sum to 2 mod 2 pi, which no two roots of unity do
MIX = math.tan(1.0)
RUN_GAP = 1e-6  # eigenvalues of X + MIX Y closer than this form one run
RESIDUAL_TOL = 1e-10  # ||S q - lambda q|| above this re-solves the run


def kernel_dim(singular_values: np.ndarray, n: int) -> int:
    """The rank rule both pipelines share: singular values below
    KERNEL_RANK_TOL * n count toward the kernel."""
    return int(np.sum(singular_values < KERNEL_RANK_TOL * n))


def standardized_matrix(op: BerezinTransform) -> np.ndarray:
    """S = W B W^-1, unitary in the standard Hermitian product, built from
    its symmetric formula: the package's one explicit Berezin kernel."""
    m = op.u.matrix
    n = op.n
    p = np.abs(m) / m
    s = m[:, np.newaxis, np.newaxis, :] * m.T[np.newaxis, :, :, np.newaxis]
    s *= p[:, :, np.newaxis, np.newaxis]
    s *= p
    return s.reshape(n * n, n * n)


@dataclass
class SpectralSummary:
    n: int
    eigenvalues: np.ndarray
    clusters: list  # (representative complex value, multiplicity)
    cluster_ids: np.ndarray  # index into clusters of each eigenvalue
    multiplicity_of_one: int
    kernel_method_dim: int

    def check(self) -> None:
        """Raise ValueError if any structural invariant fails."""
        if sum(m for _, m in self.clusters) != self.n**2:
            raise ValueError("cluster multiplicities do not sum to n^2")
        if np.max(np.abs(np.abs(self.eigenvalues) - 1.0)) > 1e-8:
            raise ValueError("eigenvalue off the unit circle beyond 1e-8")
        if self.multiplicity_of_one != self.kernel_method_dim:
            raise ValueError(
                f"clustering gives multiplicity {self.multiplicity_of_one} but "
                f"the kernel estimator gives {self.kernel_method_dim}"
            )
        if self.multiplicity_of_one < 2 * self.n - 1:
            raise ValueError(
                f"multiplicity of 1 is {self.multiplicity_of_one} < {2 * self.n - 1}"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "multiplicity_of_one": self.multiplicity_of_one,
            "kernel_method_dim": self.kernel_method_dim,
            "clusters": [
                {"re": rep.real, "im": rep.imag, "multiplicity": mult}
                for rep, mult in self.clusters
            ],
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
        }


def cluster_eigenvalues(values: np.ndarray, tol: float) -> tuple[list, np.ndarray]:
    """Greedy angular clustering: sort by argument, open a new cluster when
    the next point is farther than tol from the running mean, and finally
    merge the wrap-around pair if needed.

    Returns the (mean, size) of each cluster and each value's cluster index."""
    order = np.argsort(np.angle(values))
    sums: list[complex] = []
    counts: list[int] = []
    sorted_ids = np.empty(len(values), dtype=int)
    for i, z in enumerate(values[order].tolist()):
        if not sums or abs(z - sums[-1] / counts[-1]) > tol:
            sums.append(0j)
            counts.append(0)
        sums[-1] += z
        counts[-1] += 1
        sorted_ids[i] = len(sums) - 1
    if len(sums) > 1 and abs(sums[0] / counts[0] - sums[-1] / counts[-1]) <= tol:
        sums[0] += sums.pop()
        counts[0] += counts.pop()
        sorted_ids[sorted_ids == len(sums)] = 0
    ids = np.empty_like(sorted_ids)
    ids[order] = sorted_ids
    return [(s / c, c) for s, c in zip(sums, counts)], ids


def _eigenvalues(s: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric unitary S, in the order of the
    eigenvalues mu of X + MIX Y.

    A column q of eigh(X + MIX Y) is a joint eigenvector of X and Y unless
    its mu is shared; it gives b = q^T Y q and a = mu - MIX b.  Within a
    run of mu closer than RUN_GAP whose columns are not eigenvectors of S,
    the run's columns span an invariant subspace, and the small matrix
    Q_run^T S Q_run carries those eigenvalues.  A true degenerate
    eigenspace has eigenvector columns and never takes that branch."""
    mixed = MIX * s.imag
    mixed += s.real
    try:
        mu, q = np.linalg.eigh(mixed)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    del mixed  # one n^4 buffer fewer at peak
    yq = np.ascontiguousarray(s.imag) @ q
    b = np.einsum("ij,ij->j", q, yq)
    values = (mu - MIX * b) + 1j * b
    # with M = X + MIX Y, (X - a) q = (M - mu) q - MIX (Y - b) q, and eigh
    # leaves (M - mu) q at rounding level, so
    # ||(S - lambda) q|| = hypot(1, MIX) ||(Y - b) q||
    yq -= q * b
    residual = math.hypot(1.0, MIX) * np.linalg.norm(yq, axis=0)
    run = np.concatenate([[0], np.cumsum(np.diff(mu) > RUN_GAP)])
    for r in np.unique(run[residual > RESIDUAL_TOL]):
        cols = np.flatnonzero(run == r)
        if cols.size > 1:
            qr = q[:, cols]
            try:
                values[cols] = np.linalg.eigvals(qr.T @ (s @ qr))
            except np.linalg.LinAlgError as exc:
                raise EigensolverFailure(str(exc)) from exc
    return values


def _kernel_svd(s: np.ndarray, value: complex, compute_uv: bool = False):
    """SVD of the real 2N x N stack [X - Re(value); Y - Im(value)].

    Its singular values are |lambda_j - value|, those of S - value, so it
    has the kernel of S - value, with real right singular vectors."""
    value = complex(value)
    size = s.shape[0]
    stacked = np.stack([s.real, s.imag])
    diag = np.arange(size)
    stacked[0, diag, diag] -= value.real
    stacked[1, diag, diag] -= value.imag
    try:
        return np.linalg.svd(
            stacked.reshape(2 * size, size), full_matrices=False, compute_uv=compute_uv
        )
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc


def spectrum(op: BerezinTransform) -> SpectralSummary:
    """All n^2 eigenvalues of the transform, clustered, with two
    independent estimates of the multiplicity of 1.

    The authoritative count is the SVD-kernel dimension of (B~ - Id);
    angular clustering is kept as a consistency check (it can merge
    unrelated eigenvalues that drift near 1).
    """
    std = standardized_matrix(op)
    eigenvalues = _eigenvalues(std)

    clusters, cluster_ids = cluster_eigenvalues(eigenvalues, CLUSTER_TOL)
    dist_to_one = [abs(rep - 1.0) for rep, _ in clusters]
    best = int(np.argmin(dist_to_one))
    mult_one = clusters[best][1] if dist_to_one[best] <= CLUSTER_TOL else 0

    return SpectralSummary(
        n=op.n,
        eigenvalues=eigenvalues,
        clusters=clusters,
        cluster_ids=cluster_ids,
        multiplicity_of_one=mult_one,
        kernel_method_dim=kernel_dim(_kernel_svd(std, 1.0), op.n),
    )


def eigenvalue_multiplicity(op: BerezinTransform, value: complex = 1.0) -> int:
    """SVD-kernel dimension of (B~ - value Id): the multiplicity of value,
    counted without computing any eigenvalue."""
    return kernel_dim(_kernel_svd(standardized_matrix(op), value), op.n)


@dataclass
class FixedSpace:
    """Real-valued basis, orthonormal in the weighted product, of the
    eigenvalue-1 eigenspace.  The eigenspace is closed under complex
    conjugation, so the same functions times i form a basis of purely
    imaginary eigenfunctions."""

    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def real_basis(self) -> list:
        return self.basis

    @property
    def imaginary_basis(self) -> list:
        return [1j * f for f in self.basis]


def eigenspace_of_one(op: BerezinTransform) -> FixedSpace:
    """Basis of ker(B - Id), orthonormal in the weighted product, from the
    real right singular vectors of the stacked kernel matrix."""
    n = op.n
    _, sv, vh = _kernel_svd(standardized_matrix(op), 1.0, compute_uv=True)
    dim = kernel_dim(sv, n)
    w = np.abs(op.u.matrix)
    return FixedSpace(basis=[(v.reshape(n, n) / w).astype(complex) for v in vh[n * n - dim:]])
