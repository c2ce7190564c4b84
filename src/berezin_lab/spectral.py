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
transform fixes; any other count runs a second pencil.  The spectrum, and
its own count of 1, come from the eigenvectors of one solve of the pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import Unitary, require_nonzero

# eigenvalues closer than this to a cluster's mean join it, and singular
# values below it count toward a kernel
CLUSTER_TOL = 1e-8
RUN_GAP = 1e-6  # eigenvalues of the first pencil closer than this form one run
RESIDUAL_TOL = 1e-10  # ||S q - lambda q|| above this re-solves the run
# the angles phi of the pencils Y + tan(phi) (I - X) that count the
# multiplicity of 1; each also vanishes at its spurious point -e^{2 i phi},
# and the two points, e^{i (pi + 1)} and e^{i (pi - 1.4)}, are distinct and
# no root of unity.  The second pencil runs only where the first one does
# not count 2n - 1.  Two eigenvalues of S share an eigenvalue of the first
# pencil only when their angles sum to pi + 1 mod 2 pi, which no two roots
# of unity do.
PENCIL_ANGLES = (0.5, -0.7)


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
    clusters: list  # (representative complex value, multiplicity)
    cluster_ids: np.ndarray  # index into clusters of each eigenvalue
    multiplicity_of_one: int
    kernel_method_dim: int

    def check(self) -> None:
        """Raise InvariantViolation if any structural invariant fails."""
        if sum(m for _, m in self.clusters) != self.n**2:
            raise InvariantViolation("cluster multiplicities do not sum to n^2")
        if np.max(np.abs(np.abs(self.eigenvalues) - 1.0)) > 1e-8:
            raise InvariantViolation("eigenvalue off the unit circle beyond 1e-8")
        if self.multiplicity_of_one != self.kernel_method_dim:
            raise InvariantViolation(
                f"clustering gives multiplicity {self.multiplicity_of_one} but "
                f"the kernel estimator gives {self.kernel_method_dim}"
            )
        if self.multiplicity_of_one < 2 * self.n - 1:
            raise InvariantViolation(
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


def cluster_eigenvalues(values: np.ndarray) -> tuple[list, np.ndarray]:
    """Greedy angular clustering: sort by argument, open a new cluster when
    the next point is farther than CLUSTER_TOL from the running mean, and
    finally merge the wrap-around pair if needed.  Arguments within
    CLUSTER_TOL of -pi sort as near +pi, so a value at -1 sorts last
    whatever the sign of its rounding-level imaginary part.

    Returns the (mean, size) of each cluster and each value's cluster index."""
    angles = np.angle(values)
    order = np.argsort(np.where(angles < CLUSTER_TOL - np.pi, angles + 2 * np.pi, angles))
    sums: list[complex] = []
    counts: list[int] = []
    sorted_ids = np.empty(len(values), dtype=int)
    for i, z in enumerate(values[order].tolist()):
        if not sums or abs(z - sums[-1] / counts[-1]) > CLUSTER_TOL:
            sums.append(0j)
            counts.append(0)
        sums[-1] += z
        counts[-1] += 1
        sorted_ids[i] = len(sums) - 1
    if len(sums) > 1 and abs(sums[0] / counts[0] - sums[-1] / counts[-1]) <= CLUSTER_TOL:
        sums[0] += sums.pop()
        counts[0] += counts.pop()
        sorted_ids[sorted_ids == len(sums)] = 0
    ids = np.empty_like(sorted_ids)
    ids[order] = sorted_ids
    return [(s / c, c) for s, c in zip(sums, counts)], ids


def _pencil(s: np.ndarray, phi: float, out: np.ndarray) -> np.ndarray:
    """The pencil M_phi = Y + tan(phi) (I - X) of S = X + i Y, or of each S
    of a stack, into the real buffer out.  It is real symmetric, with the
    eigenvalue 2 sin(t/2) cos(t/2 - phi) / cos(phi) on the eigenvector of
    each eigenvalue e^{it} of S: |e^{it} - 1| (1 + O(t)) near t = 0, the
    scale of S - I's singular values, and 0 at the spurious t = pi + 2 phi."""
    t = math.tan(phi)
    # -t X + Y from the interleaved real and imaginary parts of S, with no
    # complex temporary, in one pass
    parts = s.view(np.float64).reshape(*s.shape, 2)
    np.matmul(parts, [-t, 1.0], out=out)
    diag = np.arange(out.shape[-1])
    out[..., diag, diag] += t
    return out


def _multiplicity(s: np.ndarray):
    """The number of eigenvalues of S within CLUSTER_TOL of 1, for S
    or each S of a stack (a list), from eigvalsh alone: the first pencil's
    count where it is 2n - 1, else the smaller of the two pencils' counts.

    Every Berezin transform fixes the 2n - 1 sum symbols a_k + b_l; rounding
    moves their pencil eigenvalues by about n^2 eps at most (Weyl's
    inequality), under 2e-12 for n <= 77, far below the threshold.  So the
    first count is never below 2n - 1, and 2n - 1 leaves no eigenvalue at
    the pencil's spurious zero: it is exact.  The smaller count never
    undercounts; it overstates only with eigenvalues within about the
    threshold of both spurious points: exit 2 as a failed check, never a pass."""
    n = math.isqrt(s.shape[-1])
    buf = np.empty(s.shape)
    mu = np.linalg.eigvalsh(_pencil(s, PENCIL_ANGLES[0], buf))
    counts = np.asarray(kernel_dim(np.abs(mu)))
    # the second pencil runs on each other S alone, in its own slice of the
    # buffer
    for i in map(tuple, np.argwhere(counts != 2 * n - 1)):
        mu = np.linalg.eigvalsh(_pencil(s[i], PENCIL_ANGLES[1], buf[i]))
        counts[i] = min(counts[i], kernel_dim(np.abs(mu)))
    return counts.tolist()


def _eigenvalues(s: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric unitary S, in the order of the
    eigenvalues mu of M = Y + t (I - X), t = tan(PENCIL_ANGLES[0]), from
    one eigh of M.

    A column q of eigh(M) is a joint eigenvector of X and Y unless its mu
    is shared; it gives b = q^T Y q and a = 1 - (mu - b) / t.  The columns
    of a run of mu closer than RUN_GAP that are not eigenvectors of S span
    an invariant subspace, and Q_run^T S Q_run carries its eigenvalues; a
    true degenerate eigenspace never takes that branch."""
    # the pencil's buffer is freed before Y Q is formed
    mu, q = np.linalg.eigh(_pencil(s, PENCIL_ANGLES[0], np.empty(s.shape)))
    yq = np.ascontiguousarray(s.imag) @ q
    b = np.einsum("ij,ij->j", q, yq)
    t = math.tan(PENCIL_ANGLES[0])
    values = (1.0 - (mu - b) / t) + 1j * b
    # (X - a) q = ((Y - b) q - (M - mu) q) / t, and eigh leaves (M - mu) q
    # at rounding level, so ||(S - lambda) q|| = hypot(1, 1 / t) ||(Y - b) q||,
    # which is ||(Y - b) q|| / sin(phi)
    yq -= q * b
    residual = np.linalg.norm(yq, axis=0) / math.sin(PENCIL_ANGLES[0])
    run = np.concatenate([[0], np.cumsum(np.diff(mu) > RUN_GAP)])
    for r in np.unique(run[residual > RESIDUAL_TOL]):
        lo, hi = np.searchsorted(run, [r, r + 1])
        if hi - lo > 1:
            # X = I + (Y - M) / t turns Q_run^T S Q_run into
            # diag(values) + (1 / t + i) Q_run^T (Y - b) Q_run, formed from
            # the columns already at hand with no product of S
            small = (q[:, lo:hi].T @ yq[:, lo:hi]).astype(complex)
            small *= 1.0 / t + 1j  # in place: no complex copy of the product
            small[np.diag_indices(hi - lo)] += values[lo:hi]
            values[lo:hi] = np.linalg.eigvals(small)
    return values


def spectrum(u: Unitary) -> SpectralSummary:
    """All n^2 eigenvalues of the Berezin transform of u, clustered, and the
    multiplicity of 1 counted from them by the rank rule, |lambda - 1| below
    CLUSTER_TOL.  The count is authoritative; the cluster at 1 checks it
    (it can merge values that drift near 1)."""
    require_nonzero(u)
    eigenvalues = _eigenvalues(standardized_matrix(u.matrix))
    kernel_method_dim = kernel_dim(np.abs(eigenvalues - 1.0))

    clusters, cluster_ids = cluster_eigenvalues(eigenvalues)
    dist_to_one = [abs(rep - 1.0) for rep, _ in clusters]
    best = int(np.argmin(dist_to_one))
    mult_one = clusters[best][1] if dist_to_one[best] <= CLUSTER_TOL else 0

    return SpectralSummary(
        n=u.n,
        eigenvalues=eigenvalues,
        clusters=clusters,
        cluster_ids=cluster_ids,
        multiplicity_of_one=mult_one,
        kernel_method_dim=kernel_method_dim,
    )


def eigenvalue_multiplicities(m: np.ndarray):
    """The multiplicity of 1 as an eigenvalue of the Berezin transform of
    the unitary matrix m, or of each of a stack along leading axes (a list),
    without the spectrum: one batched eigvalsh of a pencil, and a second
    only where the first does not count 2n - 1.  Entries must be nonzero."""
    return _multiplicity(standardized_matrix(m))
