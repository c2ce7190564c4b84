"""Spectral decomposition of the Berezin transform and multiplicity
counting for its eigenvalues.

The transform is unitary only in the weighted product.  Conjugating by
W = diag(|u_kl|) gives the standardized matrix

    S[(k,l),(k',l')] = p[k,l] p[k',l'] u[k,l'] u[k',l],   p = |u| / u,

which is unitary in the standard product and symmetric, S = S^T.  Writing
S = X + iY, both parts are real symmetric, and S S* = I gives XY = YX and
X^2 + Y^2 = I: X and Y share a real orthonormal eigenbasis Q, with
S q_j = (a_j + i b_j) q_j.  Everything here works from that structure:
eigenvalues from one real symmetric eigendecomposition, multiplicities
from the small eigenvalues of two real symmetric pencils of X and Y.
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
# the angles phi of the pencils Y + tan(phi) (I - X) that count the
# multiplicity of 1; each also vanishes at its spurious point -e^{2 i phi},
# and the two points, e^{i (pi + 1)} and e^{i (pi - 1.4)}, are distinct and
# no root of unity
PENCIL_ANGLES = (0.5, -0.7)


def kernel_dim(singular_values: np.ndarray, n: int):
    """The rank rule both pipelines share: singular values (or moduli of
    pencil eigenvalues) below KERNEL_RANK_TOL * n count toward the kernel.
    An int, or a list of ints for a stack of rows."""
    return np.sum(singular_values < KERNEL_RANK_TOL * n, axis=-1).tolist()


def standardized_matrix(op: BerezinTransform) -> np.ndarray:
    """S = W B W^-1, unitary in the standard Hermitian product, built from
    its symmetric formula: the package's one explicit Berezin kernel."""
    return _standardized(op.u.matrix)


def _standardized(m: np.ndarray) -> np.ndarray:
    """The standardized matrix S of each unitary matrix in m, an n x n
    matrix or a stack of them along leading axes."""
    n = m.shape[-1]
    p = np.abs(m) / m
    mt = np.swapaxes(m, -1, -2)
    s = m[..., :, np.newaxis, np.newaxis, :] * mt[..., np.newaxis, :, :, np.newaxis]
    s *= p[..., :, :, np.newaxis, np.newaxis]
    s *= p[..., np.newaxis, np.newaxis, :, :]
    return s.reshape(*m.shape[:-2], n * n, n * n)


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


def _pencil_spectra(s: np.ndarray, value: complex, vectors: bool = False):
    """Yield eigvalsh (eigh if vectors) of the pencil M_phi of S conj(v),
    v = value / |value|, for each phi of PENCIL_ANGLES; S is one matrix or
    a stack along leading axes.

    With conj(v) S = X' + i Y', M_phi = Y' + tan(phi) (I - X') is real
    symmetric and has the eigenvalue 2 sin(t/2) cos(t/2 - phi) / cos(phi)
    on the eigenvector of each eigenvalue e^{it} of conj(v) S.  Near t = 0
    that is |e^{it} - 1| (1 + O(t)), the scale of the singular values of
    S - v.  Each pencil is built in one reused real buffer, as a X + b Y
    from the interleaved real and imaginary parts of S, with no complex
    temporary."""
    c = complex(value).conjugate() / abs(value)
    parts = s.view(np.float64).reshape(*s.shape, 2)
    pencil = np.empty(s.shape)
    diag = np.arange(s.shape[-1])
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    for phi in PENCIL_ANGLES:
        t = math.tan(phi)
        # Re(c S) = Re c X - Im c Y and Im(c S) = Im c X + Re c Y
        np.matmul(parts, [c.imag - t * c.real, c.real + t * c.imag], out=pencil)
        pencil[..., diag, diag] += t
        try:
            yield solve(pencil)
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailure(str(exc)) from exc


def _multiplicity(s: np.ndarray, value: complex):
    """The number of eigenvalues of S within KERNEL_RANK_TOL * n of value,
    for S or each S of a stack (a list): the smaller of the counts of
    small eigenvalues of the two pencils.

    Each pencil also vanishes on the eigenvector of the spurious point
    -v e^{2 i phi}, so the count overstates only if S has eigenvalues
    within about the threshold of both spurious points.  An overcount makes
    the Berezin side disagree with the Jacobian or with the clustering, so
    it exits as a failed check, never as a silent pass.  Every eigenvalue
    lies on the unit circle, so a value whose modulus is farther than the
    threshold from 1 has multiplicity 0."""
    n = math.isqrt(s.shape[-1])
    if abs(abs(value) - 1.0) >= KERNEL_RANK_TOL * n:
        return np.zeros(s.shape[:-2], dtype=int).tolist()
    counts = [kernel_dim(np.abs(mu), n) for mu in _pencil_spectra(s, value)]
    return np.minimum(*counts).tolist()


def spectrum(op: BerezinTransform) -> SpectralSummary:
    """All n^2 eigenvalues of the transform, clustered, with two
    independent estimates of the multiplicity of 1.

    The authoritative count is the pencils' count of eigenvalues of B~
    near 1; angular clustering is kept as a consistency check (it can merge
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
        kernel_method_dim=_multiplicity(std, 1.0),
    )


def eigenvalue_multiplicity(op: BerezinTransform, value: complex = 1.0) -> int:
    """The multiplicity of value as an eigenvalue of B~, counted from two
    real symmetric pencils without computing the spectrum."""
    return eigenvalue_multiplicities(op.u.matrix, value)


def eigenvalue_multiplicities(m: np.ndarray, value: complex = 1.0):
    """eigenvalue_multiplicity for the transform of the unitary matrix m, or
    for each matrix of a stack along leading axes (a list), with one
    batched eigvalsh per pencil.  The entries of m must be nonzero."""
    return _multiplicity(_standardized(m), value)


def eigenspace_of_one(op: BerezinTransform) -> list[np.ndarray]:
    """Real-valued basis of ker(B - Id), orthonormal in the weighted
    product: the eigenvectors of eigenvalue below KERNEL_RANK_TOL * n of
    the pencil with fewer of them, the count _multiplicity takes.  The
    eigenspace is closed under complex conjugation, so the same functions
    times i form a basis of purely imaginary eigenfunctions."""
    n = op.n
    kernels = [q[:, np.abs(mu) < KERNEL_RANK_TOL * n]
               for mu, q in _pencil_spectra(standardized_matrix(op), 1.0, vectors=True)]
    basis = min(kernels, key=lambda q: q.shape[1])
    w = np.abs(op.u.matrix)
    return [(v.reshape(n, n) / w).astype(complex) for v in basis.T]
