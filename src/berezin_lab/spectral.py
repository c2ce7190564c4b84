"""Spectral decomposition of the Berezin transform and multiplicity
counting for the eigenvalue 1.

The transform is unitary only in the weighted product, so everything here
first conjugates by W = diag(sqrt weights) to reach a matrix that is
unitary in the standard sense, then uses ordinary dense eigensolvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigensolverFailure
from .symbols import BerezinTransform, WeightedSpace

KERNEL_RANK_TOL = 1e-8  # scaled by n before use
CLUSTER_TOL_FLOOR = 1e-8


def kernel_dim(singular_values: np.ndarray, n: int) -> int:
    """The rank rule both pipelines share: singular values below
    KERNEL_RANK_TOL * n count toward the kernel."""
    return int(np.sum(singular_values < KERNEL_RANK_TOL * n))


def standardized_matrix(op: BerezinTransform, space: WeightedSpace) -> np.ndarray:
    """W B W^-1, unitary in the standard Hermitian product."""
    w = space.sqrt_weights.ravel()
    return (op.matrix * w[:, np.newaxis]) / w[np.newaxis, :]


@dataclass
class SpectralSummary:
    n: int
    eigenvalues: np.ndarray
    clusters: list  # (representative complex value, multiplicity)
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


def cluster_eigenvalues(values: np.ndarray, tol: float) -> list:
    """Greedy angular clustering: sort by argument, open a new cluster when
    the next point is farther than tol from the running representative, and
    finally merge the wrap-around pair if needed."""
    order = np.argsort(np.angle(values))
    vals = values[order]
    clusters: list[list[complex]] = []
    for z in vals:
        if clusters and abs(z - np.mean(clusters[-1])) <= tol:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    if len(clusters) > 1 and abs(np.mean(clusters[0]) - np.mean(clusters[-1])) <= tol:
        clusters[0].extend(clusters.pop())
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def spectrum(
    op: BerezinTransform, space: WeightedSpace, tol: float = CLUSTER_TOL_FLOOR
) -> SpectralSummary:
    """All n^2 eigenvalues of the transform, clustered, with two
    independent estimates of the multiplicity of 1.

    The authoritative count is the SVD-kernel dimension of (B~ - Id);
    angular clustering is kept as a consistency check (it can merge
    unrelated eigenvalues that drift near 1).
    """
    std = standardized_matrix(op, space)
    try:
        eigenvalues = np.linalg.eigvals(std)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc

    cluster_tol = max(tol, CLUSTER_TOL_FLOOR)
    clusters = cluster_eigenvalues(eigenvalues, cluster_tol)
    dist_to_one = [abs(rep - 1.0) for rep, _ in clusters]
    best = int(np.argmin(dist_to_one))
    mult_one = clusters[best][1] if dist_to_one[best] <= cluster_tol else 0

    return SpectralSummary(
        n=op.n,
        eigenvalues=eigenvalues,
        clusters=clusters,
        multiplicity_of_one=mult_one,
        kernel_method_dim=_svd_multiplicity(std, op.n, 1.0),
    )


def eigenvalue_multiplicity(
    op: BerezinTransform, space: WeightedSpace, value: complex = 1.0
) -> int:
    """SVD-kernel dimension of (B~ - value Id): the multiplicity of value,
    counted without computing any eigenvalue."""
    return _svd_multiplicity(standardized_matrix(op, space), op.n, value)


def _svd_multiplicity(std: np.ndarray, n: int, value: complex) -> int:
    try:
        sv = np.linalg.svd(std - value * np.eye(n * n), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    return kernel_dim(sv, n)


@dataclass
class FixedSpace:
    """Orthonormal basis (in the weighted product) of the eigenvalue-1
    eigenspace, with its split into real and purely imaginary parts."""

    basis: list
    real_basis: list
    imaginary_basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)


def _real_span_reduce(columns: np.ndarray, dim: int) -> list[np.ndarray]:
    """Orthonormal real basis of the span of the given real columns,
    truncated at the expected dimension."""
    if columns.size == 0:
        return []
    q, s, _ = np.linalg.svd(columns, full_matrices=False)
    keep = min(dim, int(np.sum(s > 1e-10 * max(s[0], 1.0))))
    return [q[:, i] for i in range(keep)]


def eigenspace_of_one(op: BerezinTransform, space: WeightedSpace) -> FixedSpace:
    """Basis of ker(B - Id), orthonormal in the weighted product.

    The eigenspace is closed under complex conjugation, so over the reals
    it splits into real-valued and purely imaginary eigenfunctions, each of
    the full complex dimension; both real bases are returned.
    """
    n = op.n
    std = standardized_matrix(op, space)
    try:
        _, sv, vh = np.linalg.svd(std - np.eye(n * n))
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    dim = kernel_dim(sv, n)
    w = space.sqrt_weights.ravel()
    basis = []
    for i in range(dim):
        v = np.conj(vh[n * n - 1 - i])  # right-singular vectors of smallest sv
        basis.append((v / w).reshape(n, n))

    # the eigenspace is conjugation-closed, so (f + conj f)/2 and
    # (f - conj f)/2 stay inside it; their real spans give the real-valued
    # and (after the i factor) purely imaginary eigenfunctions
    if dim:
        real_cols = np.stack(
            [np.real(f).ravel() * w for f in basis]
            + [np.imag(f).ravel() * w for f in basis],
            axis=1,
        )
    else:
        real_cols = np.zeros((n * n, 0))
    real_vecs = _real_span_reduce(real_cols, dim)
    real_basis = [(c / w).reshape(n, n).astype(complex) for c in real_vecs]
    imaginary_basis = [1j * (c / w).reshape(n, n) for c in real_vecs]
    return FixedSpace(basis=basis, real_basis=real_basis, imaginary_basis=imaginary_basis)
