"""Spectral decomposition of the Berezin transform and the count of the
multiplicity of its eigenvalue 1.

The transform is unitary only in the weighted product.  Conjugating by
W = diag(|u_kl|) gives the standardized matrix

    S[(k,l),(k',l')] = p[k,l] p[k',l'] u[k,l'] u[k',l],   p = |u| / u,

which is unitary in the standard product and symmetric, S = S^T.  Writing
S = X + iY, both parts are real symmetric, and S S* = I gives XY = YX and
X^2 + Y^2 = I: X and Y share a real orthonormal eigenbasis Q, with
S q_j = (a_j + i b_j) q_j.  Everything here works from one real symmetric
pencil of X and Y.  The multiplicity of 1 is its count of small eigenvalues
where that count is 2n - 1, the dimension of the sum symbols every Berezin
transform fixes; any other count is taken from the eigenvalues of S, from
the eigenvectors of one solve of the pencil and one small solve of those
that fail their residual check.  The spectrum's cluster at 1 holds exactly
the eigenvalues that count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import Unitary, require_nonzero

# eigenvalues closer than this to a cluster's mean join it, and singular
# values below it count toward a kernel
CLUSTER_TOL = 1e-8
# ||S q - lambda q|| above this re-solves the column with the others above it
RESIDUAL_TOL = 1e-10
# the angle phi of the pencil Y + tan(phi) (I - X) that counts the
# multiplicity of 1; it also vanishes at the spurious point -e^{2 i phi} =
# e^{i (pi + 1)}, no root of unity.  Two eigenvalues of S share an
# eigenvalue of the pencil only when their angles sum to pi + 1 mod 2 pi,
# which no two roots of unity do.
PENCIL_ANGLE = 0.5


class InvariantViolation(Exception):
    """A construction broke one of its own invariants (exit 2)."""


def kernel_dim(singular_values: np.ndarray):
    """The rank rule both pipelines share: singular values (or moduli of
    pencil eigenvalues, or distances |lambda - 1| of eigenvalues of S) below
    CLUSTER_TOL count toward the kernel, whatever n.  An int, or a list of
    ints for a stack of rows."""
    return np.sum(singular_values < CLUSTER_TOL, axis=-1).tolist()


def standardized_matrix(m: np.ndarray) -> np.ndarray:
    """S = W B W^-1 of each unitary matrix in m, an n x n matrix or a stack
    of them along leading axes, whose entries must be nonzero: unitary in
    the standard Hermitian product, built from its symmetric formula in one
    multiply, the package's one explicit Berezin kernel.
    S[(k,l),(k',l')] = a[k,l,l'] a[k',l',l] with a[k,l,l'] = p[k,l] u[k,l']."""
    n = m.shape[-1]
    a = (np.abs(m) / m)[..., :, :, np.newaxis] * m[..., :, np.newaxis, :]
    b = np.ascontiguousarray(np.moveaxis(a, -1, -3))  # b[l,k',l'] = a[k',l',l]
    s = a[..., :, :, np.newaxis, :] * b[..., np.newaxis, :, :, :]
    return s.reshape(*m.shape[:-2], n * n, n * n)


@dataclass
class SpectralSummary:
    n: int
    eigenvalues: np.ndarray
    clusters: list  # (mean, size); the cluster at 1 holds the values that count
    cluster_ids: np.ndarray  # index into clusters of each eigenvalue
    multiplicity_of_one: int

    def check(self) -> None:
        """Raise InvariantViolation if any structural invariant fails."""
        if np.max(np.abs(np.abs(self.eigenvalues) - 1.0)) > 1e-8:
            raise InvariantViolation("eigenvalue off the unit circle beyond 1e-8")
        if self.multiplicity_of_one < 2 * self.n - 1:
            raise InvariantViolation(
                f"multiplicity of 1 is {self.multiplicity_of_one} < {2 * self.n - 1}"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            # one count, under both of the keys the JSON has always had
            "multiplicity_of_one": self.multiplicity_of_one,
            "kernel_method_dim": self.multiplicity_of_one,
            "clusters": [
                {"re": rep.real, "im": rep.imag, "multiplicity": mult}
                for rep, mult in self.clusters
            ],
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
        }


def cluster_eigenvalues(values: np.ndarray) -> tuple[list, np.ndarray]:
    """Angular clustering: sort by argument; the values the rank rule counts
    at 1, |lambda - 1| below CLUSTER_TOL, form one cluster, so its size is
    the multiplicity of 1.  Each other value opens a new cluster when it is
    farther than CLUSTER_TOL from the running mean of the last one it could
    join, and finally the wrap-around pair merges if needed.  Arguments
    within CLUSTER_TOL of -pi sort as near +pi, so a value at -1 sorts last
    whatever the sign of its rounding-level imaginary part.

    Returns the (mean, size) of each cluster and each value's cluster index."""
    angles = np.angle(values)
    order = np.argsort(np.where(angles < CLUSTER_TOL - np.pi, angles + 2 * np.pi, angles))
    ordered = values[order]
    sums: list[complex] = []
    counts: list[int] = []
    one = last = None  # the cluster at 1, and the last other cluster
    sorted_ids = np.empty(len(values), dtype=int)
    at_one = (np.abs(ordered - 1.0) < CLUSTER_TOL).tolist()  # kernel_dim's test
    for i, (z, near) in enumerate(zip(ordered.tolist(), at_one)):
        if near:
            k = one = len(sums) if one is None else one
        elif last is None or abs(z - sums[last] / counts[last]) > CLUSTER_TOL:
            k = last = len(sums)
        else:
            k = last
        if k == len(sums):
            sums.append(0j)
            counts.append(0)
        sums[k] += z
        counts[k] += 1
        sorted_ids[i] = k
    if (len(sums) > 1 and one not in (0, len(sums) - 1)
            and abs(sums[0] / counts[0] - sums[-1] / counts[-1]) <= CLUSTER_TOL):
        sums[0] += sums.pop()
        counts[0] += counts.pop()
        sorted_ids[sorted_ids == len(sums)] = 0
    ids = np.empty_like(sorted_ids)
    ids[order] = sorted_ids
    return [(s / c, c) for s, c in zip(sums, counts)], ids


def _pencil(s: np.ndarray) -> np.ndarray:
    """The pencil M = Y + tan(phi) (I - X) of S = X + i Y, phi = PENCIL_ANGLE,
    or of each S of a stack, as a new real array.  It is real symmetric, with
    the eigenvalue 2 sin(t/2) cos(t/2 - phi) / cos(phi) on the eigenvector of
    each eigenvalue e^{it} of S: |e^{it} - 1| (1 + O(t)) near t = 0, the
    scale of S - I's singular values, and 0 at the spurious t = pi + 2 phi."""
    t = math.tan(PENCIL_ANGLE)
    # -t X + Y from the interleaved real and imaginary parts of S, with no
    # complex temporary, in one pass
    parts = s.view(np.float64).reshape(*s.shape, 2)
    out = parts @ [-t, 1.0]
    diag = np.arange(out.shape[-1])
    out[..., diag, diag] += t
    return out


def _multiplicity(s: np.ndarray):
    """The number of eigenvalues of S within CLUSTER_TOL of 1, for S or each
    S of a stack (a list): the pencil's count where it is 2n - 1, else the
    count of the eigenvalues of that S alone.

    Every Berezin transform fixes the 2n - 1 sum symbols a_k + b_l; rounding
    moves their pencil eigenvalues by about n^2 eps at most (Weyl's
    inequality), under 2e-12 for n <= 70, far below the threshold.  So the
    pencil's count is never below 2n - 1, and 2n - 1 leaves no eigenvalue at
    its spurious zero: it is exact.  Each eigenvalue of S comes from its own
    eigenvector and has no spurious point, so its count is the rank rule's."""
    n = math.isqrt(s.shape[-1])
    mu = np.linalg.eigvalsh(_pencil(s))
    counts = np.asarray(kernel_dim(np.abs(mu)))
    for i in map(tuple, np.argwhere(counts != 2 * n - 1)):
        counts[i] = kernel_dim(np.abs(_eigenvalues(s[i]) - 1.0))
    return counts.tolist()


def _eigenvalues(s: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric unitary S, in the order of the
    eigenvalues mu of M = Y + t (I - X), t = tan(PENCIL_ANGLE), from
    one eigh of M.

    A column q of eigh(M) is a joint eigenvector of X and Y unless its mu
    is shared; it gives b = q^T Y q and a = 1 - (mu - b) / t.  The columns
    whose residual ||(S - lambda) q|| exceeds RESIDUAL_TOL span an invariant
    subspace of the normal S, which commutes with M, and one eigvals of
    Q_bad^T S Q_bad gives their eigenvalues; a degenerate eigenspace passes."""
    # the pencil's buffer is freed before Y Q is formed
    mu, q = np.linalg.eigh(_pencil(s))
    yq = np.ascontiguousarray(s.imag) @ q
    b = np.einsum("ij,ij->j", q, yq)
    t = math.tan(PENCIL_ANGLE)
    values = (1.0 - (mu - b) / t) + 1j * b
    # (X - a) q = ((Y - b) q - (M - mu) q) / t, and eigh leaves (M - mu) q
    # at rounding level, so ||(S - lambda) q|| = hypot(1, 1 / t) ||(Y - b) q||,
    # which is ||(Y - b) q|| / sin(phi)
    yq -= q * b
    bad = np.linalg.norm(yq, axis=0) / math.sin(PENCIL_ANGLE) > RESIDUAL_TOL
    if bad.any():
        # X = I + (Y - M) / t turns Q_bad^T S Q_bad into
        # diag(values) + (1 / t + i) Q_bad^T (Y - b) Q_bad, formed from
        # the columns already at hand with no product of S
        small = (q[:, bad].T @ yq[:, bad]).astype(complex)
        small *= 1.0 / t + 1j  # in place: no complex copy of the product
        small[np.diag_indices(len(small))] += values[bad]
        values[bad] = np.linalg.eigvals(small)
    return values


def spectrum(u: Unitary) -> SpectralSummary:
    """All n^2 eigenvalues of the Berezin transform of u, clustered, and the
    multiplicity of 1 counted from them by the rank rule, |lambda - 1| below
    CLUSTER_TOL: the size of the cluster at 1."""
    require_nonzero(u)
    eigenvalues = _eigenvalues(standardized_matrix(u.matrix))
    return SpectralSummary(u.n, eigenvalues, *cluster_eigenvalues(eigenvalues),
                           multiplicity_of_one=kernel_dim(np.abs(eigenvalues - 1.0)))


def eigenvalue_multiplicities(m: np.ndarray):
    """The multiplicity of 1 as an eigenvalue of the Berezin transform of
    the unitary matrix m, or of each of a stack along leading axes (a list),
    without the spectrum: one batched eigvalsh of the pencil, and the
    eigenvalues of each S whose pencil does not count 2n - 1.  Entries must
    be nonzero."""
    return _multiplicity(standardized_matrix(m))
