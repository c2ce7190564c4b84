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

from .matrices import Unitary, require_nonzero, to_doubly_stochastic


def _check_same_shape(u: Unitary, f: np.ndarray) -> np.ndarray:
    """f as a complex array of one n x n symbol or a stack of them."""
    f = np.asarray(f, dtype=complex)
    if f.shape[-2:] != (u.n, u.n):
        raise ValueError(f"symbol shape {f.shape} vs matrix size {u.n}")
    return f


@dataclass(frozen=True)
class WeightedSpace:
    """The Hermitian structure on symbols with weights |u_kl|^2."""

    weights: np.ndarray

    @classmethod
    def from_unitary(cls, u: Unitary) -> "WeightedSpace":
        require_nonzero(u)
        return cls(weights=to_doubly_stochastic(u))

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex | np.ndarray:
        """<f, g>, or of each pair of f and g stacked along leading axes."""
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        if f.shape[-2:] != self.weights.shape or g.shape[-2:] != self.weights.shape:
            raise ValueError(f"shapes {f.shape}, {g.shape} vs weights {self.weights.shape}")
        return np.sum(f * np.conj(g) * self.weights, axis=(-2, -1))

    def norm(self, f: np.ndarray) -> float | np.ndarray:
        """||f||, or of each symbol of a stack, with no complex temporary."""
        return np.sqrt(np.sum(np.abs(f) ** 2 * self.weights, axis=(-2, -1)))


def c_symbol_to_operator(u: Unitary, f: np.ndarray) -> np.ndarray:
    """x[k, k'] = sum_l u[k, l] f[k, l] conj(u[k', l])."""
    f = _check_same_shape(u, f)
    # a stack of s symbols is one GEMM of its (s n, n) rows by u*
    return ((u.matrix * f).reshape(-1, u.n) @ u.matrix.conj().T).reshape(f.shape)


def d_symbol_to_operator(u: Unitary, f: np.ndarray) -> np.ndarray:
    """y[k, k'] = sum_l u[k, l] f[k', l] conj(u[k', l])."""
    f = _check_same_shape(u, f)
    # y^T = (f o conj(u)) u^T: one GEMM of the stacked rows, and y is its
    # transposed view, with no copy
    yt = (f * np.conj(u.matrix)).reshape(-1, u.n) @ u.matrix.T
    return np.swapaxes(yt.reshape(f.shape), -1, -2)


def operator_to_c_symbol(u: Unitary, x: np.ndarray) -> np.ndarray:
    """Invert the c map in closed form: f[k, l] = (X u)[k, l] / u[k, l].

    Contracting x against the unitary rows gives sum_k' x[k, k'] u[k', l] =
    u[k, l] f[k, l], so no linear solve is needed.
    """
    require_nonzero(u)
    f = _check_same_shape(u, x) @ u.matrix
    f /= u.matrix  # in place: no second array the size of x
    return f


def operator_to_d_symbol(u: Unitary, y: np.ndarray) -> np.ndarray:
    """Invert the d map: g[k', l] = (u* y)[l, k'] / conj(u[k', l])."""
    require_nonzero(u)
    y = _check_same_shape(u, y)
    return np.swapaxes(u.matrix.conj().T @ y, -1, -2) / np.conj(u.matrix)


class BerezinTransform:
    """The Berezin transform of u on symbols: the composition c^-1 o d of
    the d map with the inverse c map.  Unitary with respect to the weighted
    product."""

    def __init__(self, u: Unitary):
        require_nonzero(u)
        self.u = u
        self.n = u.n

    def apply(self, f: np.ndarray) -> np.ndarray:
        """B f = c^-1(d(f)), in O(n^3) per symbol; f is one n x n symbol or
        a stack of them along leading axes."""
        return operator_to_c_symbol(self.u, d_symbol_to_operator(self.u, f))


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

