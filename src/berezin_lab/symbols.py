"""Operator symbols on the product grid K x L.

A symbol is an n x n complex array f with f[k, l] the value at (k, l).
Symbols represent operators on F(K) through two maps: the "c" map sends f
to the matrix x[k, k'] = sum_l u[k, l] f[k, l] conj(u[k', l]), and the "d"
map places the symbol at the second index instead.  Both are unitary from
the weighted product (weights |u_kl|^2) to the Hilbert-Schmidt product, and
the transform carrying d-symbols to c-symbols is the Berezin transform.

Flattening convention, fixed project-wide: (k, l) -> k * n + l (row-major,
numpy's default ravel order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ZeroEntryError
from .matrices import Unitary


def _check_same_shape(u: Unitary, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape != (u.n, u.n):
        raise DimensionMismatchError(f"symbol shape {f.shape} vs matrix size {u.n}")
    return f


def _require_nonzero(u: Unitary) -> None:
    if not u.nonzero_entries:
        raise ZeroEntryError("operation requires all matrix entries nonzero")


@dataclass(frozen=True)
class WeightedSpace:
    """The Hermitian structure on symbols with weights |u_kl|^2."""

    weights: np.ndarray
    sqrt_weights: np.ndarray

    @classmethod
    def from_unitary(cls, u: Unitary) -> "WeightedSpace":
        _require_nonzero(u)
        a = np.abs(u.matrix)
        return cls(weights=a**2, sqrt_weights=a)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        if f.shape != self.weights.shape or g.shape != self.weights.shape:
            raise DimensionMismatchError(
                f"shapes {f.shape}, {g.shape} vs weights {self.weights.shape}"
            )
        return complex(np.sum(f * np.conj(g) * self.weights))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(f, f).real, 0.0)))


def c_symbol_to_operator(u: Unitary, f: np.ndarray) -> np.ndarray:
    """x[k, k'] = sum_l u[k, l] f[k, l] conj(u[k', l])."""
    f = _check_same_shape(u, f)
    return (u.matrix * f) @ u.matrix.conj().T


def d_symbol_to_operator(u: Unitary, f: np.ndarray) -> np.ndarray:
    """y[k, k'] = sum_l u[k, l] f[k', l] conj(u[k', l])."""
    f = _check_same_shape(u, f)
    return u.matrix @ (f * np.conj(u.matrix)).T


def operator_to_c_symbol(u: Unitary, x: np.ndarray) -> np.ndarray:
    """Invert the c map in closed form: f[k, l] = (X u)[k, l] / u[k, l].

    Contracting x against the unitary rows gives sum_k' x[k, k'] u[k', l] =
    u[k, l] f[k, l], so no linear solve is needed.
    """
    _require_nonzero(u)
    x = _check_same_shape(u, x)
    return (x @ u.matrix) / u.matrix


def operator_to_d_symbol(u: Unitary, y: np.ndarray) -> np.ndarray:
    """Invert the d map: g[k', l] = (u* y)[l, k'] / conj(u[k', l])."""
    _require_nonzero(u)
    y = _check_same_shape(u, y)
    return (u.matrix.conj().T @ y).T / np.conj(u.matrix)


class BerezinTransform:
    """The Berezin transform of u on symbols: the composition c^-1 o d of
    the d map with the inverse c map.  Unitary with respect to the weighted
    product."""

    def __init__(self, u: Unitary):
        _require_nonzero(u)
        self.u = u
        self.n = u.n

    def apply(self, f: np.ndarray) -> np.ndarray:
        """B f = (u (conj(u) * f)^T u) / u, in O(n^3) per symbol.

        f is one n x n symbol or a stack of them along leading axes."""
        f = np.asarray(f, dtype=complex)
        if f.shape[-2:] != (self.n, self.n):
            raise DimensionMismatchError(f"symbol shape {f.shape} vs size {self.n}")
        m = self.u.matrix
        return (m @ np.swapaxes(f * np.conj(m), -1, -2) @ m) / m


def build_berezin(u: Unitary) -> BerezinTransform:
    """The Berezin transform of u (requires all entries nonzero)."""
    return BerezinTransform(u)


def berezin_from_composition(u: Unitary) -> np.ndarray:
    """The transform's n^2 x n^2 matrix obtained by applying c^-1 o d to
    every unit symbol in one batched call, independent of the explicit
    kernel formula behind spectral.standardized_matrix."""
    n = u.n
    units = np.eye(n * n).reshape(n * n, n, n)
    return BerezinTransform(u).apply(units).reshape(n * n, n * n).T


def e_subspace_basis(n: int) -> list[np.ndarray]:
    """A basis of the (2n-1)-dimensional space of symbols a_k + b_l.

    Row indicators for k = 0..n-1 plus column indicators for l = 1..n-1;
    column 0 is dropped because the all-ones function is already in the
    row span.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = []
    for k in range(n):
        f = np.zeros((n, n), dtype=complex)
        f[k, :] = 1.0
        basis.append(f)
    for l in range(1, n):
        f = np.zeros((n, n), dtype=complex)
        f[:, l] = 1.0
        basis.append(f)
    return basis


def is_skew_c_symbol(u: Unitary, f: np.ndarray, tol: float) -> bool:
    """True iff the operator with c-symbol f is skew-Hermitian, decided in
    symbol space: ||f + B conj(f)||_u <= tol."""
    _require_nonzero(u)
    f = _check_same_shape(u, f)
    space = WeightedSpace.from_unitary(u)
    b = build_berezin(u)
    return space.norm(f + b.apply(np.conj(f))) <= tol
