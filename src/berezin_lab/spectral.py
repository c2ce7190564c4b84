"""Spectral decomposition of the Berezin transform and the count of the
multiplicity of its eigenvalue 1.

The transform is unitary only in the weighted product.  Conjugating by
W = diag(|u_kl|) gives the standardized matrix

    S[(k,l),(k',l')] = p[k,l] p[k',l'] u[k,l'] u[k',l],   p = |u| / u,

which is unitary in the standard product and symmetric, S = S^T.  Writing
S = X + iY, both parts are real symmetric, and S S* = I gives XY = YX and
X^2 + Y^2 = I: X and Y share a real orthonormal eigenbasis Q, with
S q_j = (a_j + i b_j) q_j.  The eigenvalues of S come from the eigenvectors
of one real symmetric pencil of X and Y and one small solve of those that
fail their residual check.  The multiplicity of 1 is 2n - 1, the dimension
of the sum symbols every Berezin transform fixes, wherever one Cholesky
factorization of 2 (I - X) plus a rank 2n - 1 term on those symbols, formed
entry by entry with no QR, proves it; any other count is taken from the
eigenvalues of S.  The spectrum's cluster at 1 holds exactly the
eigenvalues that count.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .matrices import Unitary, require_nonzero

# eigenvalues closer than this to a cluster's mean join it, and singular
# values below it count toward a kernel
CLUSTER_TOL = 1e-8
# ||S q - lambda q|| above this re-solves the column with the others above it
RESIDUAL_TOL = 1e-10
# the angle phi of the pencil Y + tan(phi) (I - X) whose eigenvectors give
# the eigenvalues of S; it counts nothing.  Two eigenvalues of S share an
# eigenvalue of the pencil only when their angles sum to pi + 1 mod 2 pi,
# which no two roots of unity do.
PENCIL_ANGLE = 0.5
_UNIT_ROUNDOFF = 2.0**-53  # of float64
# a bound on the relative error of an entry of S, as standardized_matrix
# rounds it, in units of the roundoff: each of its two factors p u takes
# |u| (2), the complex division |u| / u (sqrt(2) gamma_4, 6) and a complex
# product (sqrt(2) gamma_2, 3), and their product 3 more (measured: under 8)
_ENTRY_ROUNDINGS = 25
# the least order p of the matrices certified_kernel factors one by one, in
# place, with LAPACK's dpotrf, in place of one batched np.linalg.cholesky of
# the stack.  Measured on one OpenBLAS thread, for stacks of a sweep chunk's
# size at each n (3,138 samples at n = 3, one from n = 19): the batched call
# is faster below p = 42, 3 to 10 times at p = 6 to 16; the two are about
# even from p = 42 to 64; the direct one is faster from p = 72 up, 1.2 to
# 1.6 times to p = 90 and 1.4 to 2.9 times from p = 100
DIRECT_FACTOR_MIN_P = 72


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
    as a new real array.  It is real symmetric, with
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


def higham_gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def certified_kernel(g: np.ndarray, slack, residual, floor) -> np.ndarray:
    """Whether a matrix T with p columns provably has exactly r singular
    values below CLUSTER_TOL, for each sample of a (samples, p, p) stack g,
    as a (samples,) bool array, from one Cholesky factorization and no
    eigensolve; g is overwritten.  The certificate of both pipelines.

    K is a basis of r directions T should annihilate.  g must hold
    T* T + E to within slack in the 2-norm, E positive semidefinite of
    rank at most r (K K^T, or another such term on span K); residual is
    any upper bound on ||T K||_F and floor at most sigma_min(K)^2.  slack,
    residual and floor are (samples,) arrays or numbers.

    The shift, for Higham's gamma and u the unit roundoff, is
        c = 2 ((gamma_{p+1} / (1 - gamma_{p+1}) + u) tr g + slack)
            + CLUSTER_TOL^2.
    Cholesky of fl(g - c I) runs to completion only if that matrix has no
    eigenvalue below -gamma_{p+1} / (1 - gamma_{p+1}) tr g (Rump,
    "Verification of positive definiteness", BIT 46, 2006, from the
    backward error gamma_{p+1} |R^T| |R| of a Cholesky factor R), and the
    subtraction rounds the diagonal by at most u tr g.  So success proves
    that T* T + E has no eigenvalue below CLUSTER_TOL^2; the factor 2
    covers Rump's underflow term, under 1e-300 here, and the rounding in
    tr g, slack and c, relative and under 1e-13.  Then |T x| is at least
    CLUSTER_TOL on ker E, of codimension at most r: by interlacing, T has
    at most r singular values below CLUSTER_TOL.  And residual^2 below
    CLUSTER_TOL^2 floor bounds |T x| below CLUSTER_TOL for every unit x
    that K spans, so T has r of them, exactly r.  A floor at or below 0
    certifies nothing.

    From p = DIRECT_FACTOR_MIN_P up, where NumPy binds its LAPACK's dpotrf
    (_dpotrf), each sample is factored on its own, in place, and its flag
    is its own call's.  Below, or without that binding, the stack is
    factored in one np.linalg.cholesky, and each sample of a larger stack
    on its own only when that call fails.  Both paths run the same dpotrf
    on the same triangle of g, so their flags agree."""
    p = g.shape[-1]
    rump = higham_gamma(p + 1)
    trace = np.trace(g, axis1=-2, axis2=-1)
    shift = 2.0 * ((rump / (1.0 - rump) + _UNIT_ROUNDOFF) * trace + slack) + CLUSTER_TOL**2
    diag = np.arange(p)
    g[:, diag, diag] -= shift[:, np.newaxis]
    dpotrf = _dpotrf() if p >= DIRECT_FACTOR_MIN_P else None
    if dpotrf is not None:
        factored = np.array([_cholesky(g[i:i + 1], dpotrf) for i in range(len(g))], dtype=bool)
    else:
        factored = np.full(len(g), _cholesky(g))
        if not factored.all() and len(g) > 1:  # a stack of one has failed already
            factored = np.array([_cholesky(sample) for sample in g], dtype=bool)
    return factored & (residual**2 < CLUSTER_TOL**2 * floor)


def _cholesky(a: np.ndarray, dpotrf=None) -> bool:
    """Whether the Cholesky factorization of a, a p x p matrix or a stack of
    them, runs to completion for every matrix: the package's one
    factorization.  With dpotrf, as _dpotrf returns it, a is a C-ordered
    stack of one, factored in place; without, np.linalg.cholesky leaves a
    as it was."""
    if dpotrf is not None:
        return dpotrf(a)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


@functools.cache
def _dpotrf():
    """Once per process, on first use: the dpotrf of the LAPACK NumPy's
    linalg links, as a function that factors a C-ordered float64 matrix in
    place and says whether it ran to completion; None where NumPy names it
    otherwise, as a NumPy built on another LAPACK or with 32-bit integers
    does.  It is called with uplo 'L' on the C-ordered buffer, which reads
    the upper triangle of the matrix and runs the same algorithm as
    np.linalg.cholesky, which calls it with 'L' on a Fortran-ordered copy:
    on a bitwise symmetric matrix the factor is the same to the bit."""
    try:
        from numpy.linalg import _umath_linalg
        dpotrf = ctypes.CDLL(_umath_linalg.__file__).scipy_dpotrf_64_
    except (ImportError, OSError, AttributeError):  # no such module, library or symbol
        return None
    ref = ctypes.POINTER(ctypes.c_int64)
    dpotrf.argtypes = (ctypes.c_char_p, ref, ctypes.c_void_p, ref, ref)
    dpotrf.restype = None

    def factor(a: np.ndarray) -> bool:
        p = a.shape[-1]
        if not (a.size == p * p and a.flags.c_contiguous and a.flags.writeable
                and a.dtype == np.float64):
            raise ValueError("dpotrf factors one writable C-ordered float64 matrix in place")
        order, info = ctypes.c_int64(p), ctypes.c_int64()
        dpotrf(b"L", ctypes.byref(order), a.ctypes.data, ctypes.byref(order), ctypes.byref(info))
        return info.value == 0

    return factor


def _add_sum_symbol_term(g: np.ndarray, w: np.ndarray) -> None:
    """Add V V^T[(k,l),(k',l')] = w_kl w_k'l' (delta_kk' + delta_ll') in
    place to each matrix of the (samples, n^2, n^2) stack g, w = |u| of
    its unitary and V as in _multiplicity: the products of each row's
    entries on the diagonal blocks k = k', then those of each column's on
    the entries l = l', through two diagonal views of g."""
    count, n = w.shape[:-1]
    g4 = g.reshape(count, n, n, n, n)
    same_row = np.einsum("sklkm->sklm", g4)
    same_row += w[..., np.newaxis] * w[..., np.newaxis, :]
    wt = np.swapaxes(w, -1, -2)
    same_col = np.einsum("sklml->slkm", g4)
    same_col += wt[..., np.newaxis] * wt[..., np.newaxis, :]


def _sum_symbol_floor(p: np.ndarray) -> np.ndarray:
    """A lower bound on sigma_min(V')^2 for each P = |u|^2 of a
    (samples, n, n) stack, V' as in _multiplicity, in closed form.
    V'^T V' = [[diag(r), P'], [P'^T, diag(c')]], with r the row sums of P,
    P' its columns l = 1..n-1 and c' their sums, so its least eigenvalue is
    at least min(r, c') - sigma_1(P'); sigma_1(P')^2, the largest eigenvalue
    of the nonnegative P'^T P', is at most its largest row sum, the largest
    entry of P'^T P' 1.  For the Fourier matrix the bound is exact, less
    its rounding term, which keeps it at most sigma_min(V')^2 of the float u."""
    rest = p[..., 1:]
    spread = rest.sum(axis=-1)[..., np.newaxis, :] @ rest
    least = np.concatenate([p.sum(axis=-1), rest.sum(axis=-2)], axis=-1).min(axis=-1)
    root = np.sqrt(spread.max(axis=(-2, -1), initial=0.0))
    # relative to the exact |u|^2, p = fl(fl(|u|)^2) errs by gamma_5 (|u|
    # within one ulp), the sums by gamma_{n+4}, P'^T P' 1 by gamma_{2n+8} and
    # its root by gamma_{2n+9}, so least - root errs by gamma_{2n+10}
    # (least + root); three more units cover the two subtractions and the
    # rounding of the term.  It matters near a direct sum, where least - root
    # cancels to order eps^2.
    return least - root - higham_gamma(2 * p.shape[-1] + 13) * (least + root)


def _multiplicity(m: np.ndarray) -> tuple[list, list]:
    """For each unitary of a (samples, n, n) stack whose entries are all
    nonzero, with S its standardized matrix: the number of eigenvalues of
    S within CLUSTER_TOL of 1, and whether certified_kernel gave it, as
    two lists.  The stack of S is freed before the factorization, and S is
    built again for each sample the certificate fails, whose count is the
    rank rule's on the eigenvalues of its S.

    V = W [R | C], W = diag(|u|), R and C the n row and n column
    indicators of the coordinates (k, l): the sum symbols a_k + b_l in the
    coordinates of S, the 2n - 1 directions every S fixes (R and C have
    the same sum).  certified_kernel takes T = S(u) - I, S(u) the exact
    standardized matrix of the float u, r = 2n - 1, K = V', V without the
    column indicator of l = 0, the floor _sum_symbol_floor, and
    g = 2 (I - X) + V V^T, X the real part of the S at hand (X_u of S(u)).
    V V^T, of rank 2n - 1, is |u_kl| |u_k'l'| (delta_kk' + delta_ll') at
    ((k,l),(k',l')), added in place to -2 X on its 2n^3 - n^2 nonzeros.

    The slack.  As S(u) = S(u)^T, T* T = 2 (I - X_u) + S(u)* S(u) - I:
    g errs from T* T + V V^T by the rounding in forming g, 2 ||X - X_u||_2
    and ||S(u)* S(u) - I||_2.  Forming g: -2 X is exact, and each entry
    adds to it at most two rounded products and, on the diagonal, 2, which
    round it by at most gamma_4 times 2 |X| + V V^T + 2 I, of norm at most
    2 ||S||_F + tr(V V^T) + 2 = 4 f + 2, f = ||u||_F^2.  The S at hand
    differs from S(u) by at most gamma_25 f in norm (_ENTRY_ROUNDINGS).
    S(u)* S(u) = conj(D) ((u u*)^T (x) u* u) D with D = diag(|u| / u), so
    ||S(u)* S(u) - I||_2 <= delta (2 + delta), delta = ||u* u - I||_2.
    fl(u* u) errs by gamma_{2n} h / sqrt(2) in norm, h as below, so
    d = ||fl(u* u) - I||_F (1 + gamma_{n^2+4}) + gamma_{2n+1} h / sqrt(2)
    + gamma_25 f >= delta + gamma_25 f, with the norm's rounding and h's,
    and the slack gamma_4 (4 f + 2) + d (2 + d) covers all three, as
    d (2 + d) >= delta (2 + delta) + 2 gamma_25 f.  For a unitary u,
    tr g = 2 n^2, and the square root of the shift is 5.5e-6 at n = 16.

    The residual, with no pass over S.  With p = |u| / u, S(u) W R e_k'
    has the entry p_kl u_k'l (u u*)_kk' at (k, l) and S(u) W C e_l' the
    entry p_kl u_kl' (u* u)_l'l, so for E = u u* - I and F = u* u - I
        ||T V'||_F^2 = sum_k (u u*)_kk ||e_k^T E||^2 + sum_{l>0} (u* u)_ll ||e_l^T F||^2
    exactly: rho, from fl(u u*) and fl(u* u).  For u = A + i B, the two
    parts of an entry of u u* are real sums of 2n products, so they err by
    at most gamma_{2n} times those of |A| |A|^T + |B| |B|^T and
    |B| |A|^T + |A| |B|^T, whose sum and difference are M M^T and N N^T,
    M = |A| + |B| and N = |A| - |B|: in Frobenius norm fl(u u*) errs by at
    most gamma_{2n} h / sqrt(2), h = hypot(||M M^T||_F, ||N N^T||_F), and
    so does fl(u* u), as ||M^T M||_F = ||M M^T||_F.  With weights at most
    ||u||_2^2 <= 1 + d, the residual rho + sqrt(1 + d) gamma_{2n+1} h
    bounds ||T V'||_F; the extra unit covers the rounding of that term and
    of rho, under gamma_{4n} rho where rho < CLUSTER_TOL sqrt(1 + d).

    V is not orthonormal: on its range g has the eigenvalues 1 +- sigma_i(P)
    of V^T V = [[I, P], [P^T, I]], P = |u|^2, so the certificate also needs
    1 - sigma_2(P) above the shift: at least 0.46 over 200 Haar samples at
    n = 16 (0.022 at n = 4), but of order eps^2, as is the floor, near a
    direct sum u = exp(eps A) (U_1 (+) U_2).  Below eps of 7.9e-7 (2 + 2)
    to 8.4e-6 (8 + 8) the certificate fails and the eigenvalues count."""
    n = m.shape[-1]
    w = np.abs(m)
    p = w * w
    s = standardized_matrix(m)
    g = np.multiply(s.real, -2.0)
    del s  # before the factorization
    _add_sum_symbol_term(g, w)
    diag = np.arange(n * n)
    g[:, diag, diag] += 2.0
    f = np.sum(p, axis=(-2, -1))
    mh = np.swapaxes(m.conj(), -1, -2)
    uu, uhu = m @ mh, mh @ m
    re, im = np.abs(m.real), np.abs(m.imag)
    h = np.hypot(*(np.linalg.norm(x @ np.swapaxes(x, -1, -2), axis=(-2, -1))
                   for x in (re + im, re - im)))
    d = (np.linalg.norm(uhu - np.eye(n), axis=(-2, -1)) * (1.0 + higham_gamma(n * n + 4))
         + higham_gamma(2 * n + 1) * h / math.sqrt(2.0) + higham_gamma(_ENTRY_ROUNDINGS) * f)
    rows, cols = (np.einsum("skk,skj->sk", a.real, np.abs(a - np.eye(n)) ** 2) for a in (uu, uhu))
    residual = (np.sqrt(rows.sum(axis=-1) + cols[:, 1:].sum(axis=-1))
                + np.sqrt(1.0 + d) * higham_gamma(2 * n + 1) * h)
    certified = certified_kernel(g, higham_gamma(4) * (4.0 * f + 2.0) + d * (2.0 + d),
                                 residual, _sum_symbol_floor(p))
    del g  # before the eigenvalues of any sample are taken
    counts = [2 * n - 1 if ok else kernel_dim(np.abs(_eigenvalues(m[i]) - 1.0))
              for i, ok in enumerate(certified)]
    return counts, certified.tolist()


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric unitary S = X + i Y of the unitary
    matrix m, whose entries must be nonzero, in the order of the
    eigenvalues mu of M = Y + t (I - X), t = tan(PENCIL_ANGLE), from
    one eigh of M.  S is freed before the solve: M and a copy of Y are all
    of it that is kept.

    A column q of eigh(M) is a joint eigenvector of X and Y unless its mu
    is shared; it gives b = q^T Y q and a = 1 - (mu - b) / t.  The columns
    whose residual ||(S - lambda) q|| exceeds RESIDUAL_TOL span an invariant
    subspace of the normal S, which commutes with M, and one eigvals of
    Q_bad^T S Q_bad gives their eigenvalues; a degenerate eigenspace passes."""
    s = standardized_matrix(m)
    y = np.ascontiguousarray(s.imag)
    pencil = _pencil(s)
    del s
    mu, q = np.linalg.eigh(pencil)
    del pencil  # before Y Q is formed
    yq = y @ q
    del y
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
    eigenvalues = _eigenvalues(u.matrix)
    return SpectralSummary(u.n, eigenvalues, *cluster_eigenvalues(eigenvalues),
                           multiplicity_of_one=kernel_dim(np.abs(eigenvalues - 1.0)))


def eigenvalue_multiplicities(m: np.ndarray) -> tuple:
    """The multiplicity of 1 as an eigenvalue of the Berezin transform of
    the unitary matrix m, and whether the Cholesky certificate gave it (an
    int and a bool), or of each of a stack along leading axes (two lists),
    without the spectrum: one batched certificate, and the eigenvalues of
    each S it does not certify.  Entries must be nonzero."""
    shape = m.shape[:-2]
    counts, certified = _multiplicity(m.reshape(-1, *m.shape[-2:]))
    return np.reshape(counts, shape).tolist(), np.reshape(certified, shape).tolist()
