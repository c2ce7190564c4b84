"""Reference functions the tests hold the package to, which the package
itself does not call."""

import numpy as np

from berezin_lab.matrices import Unitary
from berezin_lab.submersion import _skew_hermitian


def finite_difference_direction(u: Unitary, x: np.ndarray, h: float) -> np.ndarray:
    """One-sided difference quotient of the squared-modulus map along the
    curve t -> exp(tX) u; first-order accurate, used to validate the
    analytic differential.  exp(hX) = V diag(exp(i h lambda)) V* from the
    eigendecomposition of the Hermitian -iX, exact only for skew-Hermitian X."""
    lam, v = np.linalg.eigh(-1j * _skew_hermitian(x))
    curve = (v * np.exp(1j * h * lam)) @ v.conj().T @ u.matrix
    return (np.abs(curve) ** 2 - np.abs(u.matrix) ** 2) / h


def e_subspace_basis(n: int) -> np.ndarray:
    """A basis of the symbols a_k + b_l, as one (2n-1, n, n) array.

    Row indicators for k = 0..n-1 plus column indicators for l = 1..n-1;
    column 0 is dropped because the all-ones function is already in the
    row span.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = np.zeros((2 * n - 1, n, n), dtype=complex)
    k, l = np.arange(n), np.arange(1, n)
    basis[k, k, :] = 1.0
    basis[n - 1 + l, :, l] = 1.0
    return basis


def invariant_pair_count(n: int) -> int:
    """#{(r, s): 0 <= r, s < n, r s = 0 mod n} by enumeration.  Equals
    2n - 1 exactly when n is prime."""
    return sum(1 for r in range(n) for s in range(n) if (r * s) % n == 0)
