"""The two concrete matrix families with large symmetry groups, their group
actions on symbols, and the structure checks built on them:

* the discrete Fourier matrix on Z/nZ, acted on by phase/shift operators
  satisfying the Weyl commutation relations;
* the permutation-invariant family u = Id + (theta - 1)/n, acted on by the
  symmetric group, with its four isotypic components.
"""

from __future__ import annotations

import numpy as np

from .matrices import Unitary, validate_unitary
from .spectral import CLUSTER_TOL, InvariantViolation, cluster_eigenvalues, spectrum
from .symbols import (
    BerezinTransform,
    WeightedSpace,
    build_berezin,
    c_symbol_to_operator,
    d_symbol_to_operator,
)


def unit_root(n: int, k) -> complex | np.ndarray:
    """exp(2 pi i k / n); k may be an integer or an array of exponents."""
    return np.exp(2j * np.pi * np.asarray(k) / n)


def fourier_matrix(n: int) -> Unitary:
    """The discrete Fourier matrix u[k, l] = exp(2 pi i k l / n) / sqrt(n)."""
    k = np.arange(n)
    return validate_unitary(unit_root(n, np.outer(k, k)) / np.sqrt(n), tol=1e-12)


def check_theta(theta: complex) -> complex:
    """theta, checked to lie on the unit circle and at least twice the rank
    threshold CLUSTER_TOL from +-1, at every n: nearer, the family's
    eigenvalue conj(theta) or -conj(theta) would count as 1."""
    theta = complex(theta)
    if not abs(abs(theta) - 1.0) <= 1e-8:  # also rejects nan
        raise ValueError(f"|theta| must equal 1, got {abs(theta):.6f}")
    if min(abs(theta - 1.0), abs(theta + 1.0)) < 2 * CLUSTER_TOL:
        raise ValueError("theta must stay away from +-1")
    return theta


def symmetric_family_matrix(n: int, theta: complex) -> Unitary:
    """u = Id + (theta - 1)/n: identity off the constants, phase theta on
    them.  Commutes with every permutation matrix and has no zero entries."""
    theta = check_theta(theta)
    m = np.eye(n, dtype=complex) + (theta - 1.0) / n
    return validate_unitary(m)


def phase_operator(n: int, r: int) -> np.ndarray:
    """Diagonal multiplication by exp(2 pi i r k / n)."""
    return np.diag(unit_root(n, r * np.arange(n)))


def shift_operator(n: int, r: int) -> np.ndarray:
    """(Z_r phi)[k] = phi[k + r] (indices mod n)."""
    return np.eye(n)[(np.arange(n) + r) % n]


def check_weyl_relations(n: int) -> float:
    """Max deviation over all (r, s) of the commutation relation
    Z_s W_r = eps(rs) W_r Z_s, together with the Fourier conjugations
    F* W_r F = Z_{-r} and F* Z_r F = W_r."""
    f = fourier_matrix(n).matrix
    fh = f.conj().T
    k = np.arange(n)
    w = np.stack([phase_operator(n, r) for r in k])  # W_r at [r]
    z = np.stack([shift_operator(n, s) for s in k])  # Z_s at [s]
    eps = unit_root(n, np.outer(k, k))[..., np.newaxis, np.newaxis]  # eps(rs) at [s, r]
    return float(max(
        np.max(np.abs(fh @ w @ f - z[-k % n])),
        np.max(np.abs(fh @ z @ f - w)),
        np.max(np.abs(z[:, np.newaxis] @ w - eps * w @ z[:, np.newaxis])),
    ))


def character_symbol(n: int, r, s) -> np.ndarray:
    """f[k, l] = exp(2 pi i (r k + s l) / n), an eigenfunction of the
    Fourier-matrix Berezin transform with eigenvalue exp(2 pi i r s / n).
    Array-valued r and s broadcast in front of the trailing (k, l) axes."""
    k = np.arange(n)
    return unit_root(n, np.asarray(r) * k[:, np.newaxis] + np.asarray(s) * k)


def invariant_pair_count(n: int) -> int:
    """#{(r, s): 0 <= r, s < n, r s = 0 mod n} by enumeration.  Equals
    2n - 1 exactly when n is prime."""
    return sum(1 for r in range(n) for s in range(n) if (r * s) % n == 0)


def fourier_eigenfunction_check(n: int) -> float:
    """How far each character symbol is from an eigenfunction of the
    Fourier Berezin transform with the predicted unit-root eigenvalue: the
    worst weighted-norm residual.  The caller judges it."""
    u = fourier_matrix(n)
    space = WeightedSpace.from_unitary(u)
    r, s = np.indices((n, n))[..., np.newaxis, np.newaxis]
    chars = character_symbol(n, r, s)  # [r, s, k, l]
    residual = build_berezin(u).apply(chars) - unit_root(n, r * s) * chars
    return float(np.sqrt(np.max(np.sum(np.abs(residual) ** 2 * space.weights, axis=(-2, -1)))))


# ---------------------------------------------------------------------------
# group actions on symbols


def permute_symbol(f: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(R_sigma f)[k, l] = f[sigma^-1(k), sigma^-1(l)].  A stack of
    permutations (sigma[t]) acts on a stack of symbols (f[t]), one each."""
    inv = np.argsort(sigma, axis=-1)
    rows = np.take_along_axis(f, inv[..., :, np.newaxis], axis=-2)
    return np.take_along_axis(rows, inv[..., np.newaxis, :], axis=-1)


def permutation_operator(sigma: np.ndarray) -> np.ndarray:
    """(S_sigma phi)[k] = phi[sigma^-1(k)]; a stack of permutations gives
    the stack of their matrices."""
    sigma = np.asarray(sigma)
    return np.eye(sigma.shape[-1])[np.argsort(sigma, axis=-1)]


def all_shifts(f: np.ndarray) -> np.ndarray:
    """The translation action on Fourier symbols, every (s, t) at once:
    result[s, t, k, l] = f[k+t, l-s] (indices mod n)."""
    n = f.shape[0]
    i = np.arange(n)
    rows = (i[:, np.newaxis] + i) % n  # [t, k] -> k + t
    cols = (i - i[:, np.newaxis]) % n  # [s, l] -> l - s
    return f[rows[np.newaxis, :, :, np.newaxis], cols[:, np.newaxis, np.newaxis, :]]


def check_permutation_equivariance(
    n: int, theta: complex, trials: int, seed
) -> float:
    """For random permutations sigma and random symbols f on the symmetric
    family: both symbol-to-operator maps must intertwine conjugation by the
    permutation operator with the index action on symbols, and the Berezin
    transform must commute with that action.  Returns the max deviation."""
    u = symmetric_family_matrix(n, theta)
    b = build_berezin(u)
    rng = np.random.default_rng(seed)
    draws = [(rng.permutation(n), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
             for _ in range(trials)]
    sigma, f = map(np.array, zip(*draws))
    s_op = permutation_operator(sigma)
    s_op_t = np.swapaxes(s_op, -1, -2)
    rf = permute_symbol(f, sigma)
    return float(max(
        np.max(np.abs(c_symbol_to_operator(u, rf) - s_op @ c_symbol_to_operator(u, f) @ s_op_t)),
        np.max(np.abs(d_symbol_to_operator(u, rf) - s_op @ d_symbol_to_operator(u, f) @ s_op_t)),
        np.max(np.abs(b.apply(rf) - permute_symbol(b.apply(f), sigma))),
    ))


def check_shift_commutation(n: int, trials: int, seed) -> float:
    """The Fourier Berezin transform commutes with all n^2 translations of
    the symbol grid; returns the max deviation over random symbols."""
    u = fourier_matrix(n)
    b = build_berezin(u)
    rng = np.random.default_rng(seed)
    dev = 0.0
    for _ in range(trials):
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dev = max(dev, np.max(np.abs(b.apply(all_shifts(f)) - all_shifts(b.apply(f)))))
    return float(dev)


# ---------------------------------------------------------------------------
# isotypic decomposition for the symmetric family


def isotypic_blocks(n: int) -> list[tuple[np.ndarray, int]]:
    """The four isotypic blocks of symbols under simultaneous permutation
    of both indices: for each, a stack of representatives, one per copy of
    its irreducible representation, and that representation's dimension.

    1. constants and the diagonal indicator, once;
    2. a_k + b_l + c_k delta_kl with a, b, c summing to zero: a (x) 1,
       1 (x) a and diag(a) for a = e_0 - e_1, n - 1 times;
    3. antisymmetric with vanishing row sums: the 3-cycle
       f[k, k+1 mod 3] = 1 = -f[k+1 mod 3, k], (n-1)(n-2)/2 times;
    4. symmetric, zero diagonal, vanishing row sums: the 4-cycle with
       signs +, -, +, - along 0 -> 1 -> 2 -> 3 -> 0, n(n-3)/2 times
       (only for n >= 4).
    """
    if n < 3:
        raise ValueError("isotypic split needs n >= 3")
    a = np.eye(n)[0] - np.eye(n)[1]
    cycle3 = np.zeros((n, n))
    cycle3[[0, 1, 2], [1, 2, 0]] = 1.0
    blocks = [
        (np.stack([np.ones((n, n)), np.eye(n)]), 1),
        (np.stack([np.outer(a, np.ones(n)), np.outer(np.ones(n), a), np.diag(a)]), n - 1),
        ((cycle3 - cycle3.T)[np.newaxis], (n - 1) * (n - 2) // 2),
    ]
    if n >= 4:
        cycle4 = np.zeros((n, n))
        cycle4[[0, 1, 2, 3], [1, 2, 3, 0]] = 1.0, -1.0, 1.0, -1.0
        blocks.append(((cycle4 + cycle4.T)[np.newaxis], n * (n - 3) // 2))
    return blocks


def isotypic_clusters(b: BerezinTransform) -> list[tuple[complex, int]]:
    """The transform's eigenvalues with their multiplicities, from one small
    problem per isotypic block.  A transform that commutes with the
    permutation action, as the symmetric family's does, acts by Schur's
    lemma on each block as one small matrix on its representatives,
    repeated over the representation.  Raises InvariantViolation when an
    image leaves its block's span.
    """
    out = []
    for reps, times in isotypic_blocks(b.n):
        basis = reps.reshape(len(reps), -1).T
        image = b.apply(reps).reshape(len(reps), -1).T
        small = np.linalg.lstsq(basis, image, rcond=None)[0]
        residual = np.max(np.abs(basis @ small - image))
        if not residual <= CLUSTER_TOL:
            raise InvariantViolation(
                f"transform leaves an isotypic block (residual {residual:.3e})"
            )
        out.extend((complex(v), times) for v in np.linalg.eigvals(small))
    return out


# ---------------------------------------------------------------------------
# predicted spectrum of the symmetric family


def predicted_clusters(n: int, theta: complex) -> list[tuple[complex, int]]:
    """The five eigenvalue clusters of the symmetric family's Berezin
    transform with their multiplicities (some may be empty for small n)."""
    theta = check_theta(theta)
    tb = np.conj(theta)
    denom = theta + n - 1
    return [
        (1.0 + 0j, 2 * n - 1),
        (-theta * (tb + n - 1) / denom, 1),
        (-(tb + n - 1) / denom, n - 1),
        (tb, (n * n - 3 * n + 2) // 2),
        (-tb, (n * n - 3 * n) // 2),
    ]


def verify_symmetric_family_spectrum(n: int, theta: complex) -> bool:
    """Whether the Berezin spectrum of the symmetric family matches the five
    predicted clusters and the table of its isotypic blocks, and its kernel
    count the multiplicity 2n - 1 of 1.

    Computed, predicted and block-derived values are grouped together by
    the one rule `cluster_eigenvalues` applies to every spectrum: the table
    holds when each group has as many computed members as predicted ones
    and as block-derived ones.  Values that collide fall into one group, and
    empty predictions add no member.
    """
    if n < 3:
        raise ValueError("spectrum table needs n >= 3")
    u = symmetric_family_matrix(n, theta)
    summary = spectrum(u)
    values = [summary.eigenvalues]
    for table in (predicted_clusters(n, theta), isotypic_clusters(build_berezin(u))):
        table_values, mults = zip(*table)
        values.append(np.repeat(table_values, mults))
    clusters, ids = cluster_eigenvalues(np.concatenate(values))
    computed, *derived = (np.bincount(g, minlength=len(clusters)) for g in ids.reshape(3, n * n))
    return bool(
        all(np.array_equal(computed, counts) for counts in derived)
        and summary.multiplicity_of_one == 2 * n - 1
    )
