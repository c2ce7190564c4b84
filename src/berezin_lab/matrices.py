"""Dense complex matrices: unitary validation, Haar sampling, the
squared-modulus map, and the first-row/first-column phase normal form."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    MatrixFileError,
    NotSquareError,
    NotUnitaryError,
    ZeroEntryError,
)

UNITARITY_TOL = 1e-10
ENTRY_FLOOR = 1e-12


@dataclass(frozen=True)
class Unitary:
    """A validated unitary matrix.

    nonzero_entries is True when every |u_kl| exceeds ENTRY_FLOOR; most of
    the symbol calculus requires it.
    """

    matrix: np.ndarray
    nonzero_entries: bool

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DoublyStochastic:
    """A doubly stochastic matrix (real, nonnegative, all row and column
    sums equal to 1): the squared moduli of a validated unitary."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def validate_unitary(m: np.ndarray, tol: float = UNITARITY_TOL) -> Unitary:
    """Check ||m m* - Id||_max <= tol and wrap the matrix.

    Raises NotSquareError or NotUnitaryError; NaN/Inf entries are rejected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotUnitaryError(float("inf"))
    n = m.shape[0]
    dev = np.max(np.abs(m @ m.conj().T - np.eye(n)))
    if dev > tol:
        raise NotUnitaryError(float(dev))
    nonzero = bool(np.min(np.abs(m)) > ENTRY_FLOOR)
    return Unitary(matrix=m, nonzero_entries=nonzero)


def require_nonzero(u: Unitary) -> None:
    """Raise ZeroEntryError unless every |u_kl| exceeds ENTRY_FLOOR: the
    symbol calculus divides by the entries and takes their phases."""
    if not u.nonzero_entries:
        raise ZeroEntryError("operation requires all matrix entries nonzero")


def haar_random_unitary(n: int, seed) -> Unitary:
    """Draw a Haar-distributed n x n unitary, deterministically from seed.

    QR of a complex Ginibre matrix, with the columns of Q rephased so that
    the diagonal of R is real positive (without this correction the QR
    output is not Haar-distributed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return validate_unitary(q)


def to_doubly_stochastic(u: Unitary) -> DoublyStochastic:
    """The squared-modulus map u -> (|u_kl|^2).

    Its row and column sums are the diagonals of u u* and u* u, so they
    equal 1 to within the tolerance u was validated at."""
    return DoublyStochastic(matrix=np.abs(u.matrix) ** 2)


def equivalence_normal_form(u: Unitary) -> Unitary:
    """The representative of the class {kappa u lambda} whose first row and
    first column are real positive.

    Idempotent, and constant on equivalence classes, so it detects when two
    unitaries have the same image under the squared-modulus map.
    """
    require_nonzero(u)
    m = u.matrix
    # right diagonal: make row 0 positive; then left diagonal: make column 0
    # positive (its (0,0) entry is already positive, so row 0 is preserved)
    lam = np.conj(m[0, :]) / np.abs(m[0, :])
    m = m * lam[np.newaxis, :]
    kap = np.conj(m[:, 0]) / np.abs(m[:, 0])
    m = kap[:, np.newaxis] * m
    return validate_unitary(m)


def save_matrix(path, m: np.ndarray) -> None:
    """Write {"n": ..., "entries": [[re, im], ...]} row-major, 17 significant
    digits (lossless round trip for doubles)."""
    m = np.asarray(m, dtype=complex)
    entries = [
        [float(f"{z.real:.17g}"), float(f"{z.imag:.17g}")] for z in m.ravel()
    ]
    with open(path, "w") as fh:
        json.dump({"n": m.shape[0], "entries": entries}, fh)


def load_matrix(path) -> np.ndarray:
    """Read a file written by save_matrix.  OSError if it cannot be read,
    MatrixFileError if its content is not such a file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
        n = data["n"]
        entries = np.array(data["entries"], dtype=float)
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise MatrixFileError(f"{path}: {type(exc).__name__}: {exc}") from exc
    if type(n) is not int or n < 1 or entries.shape != (n * n, 2):
        raise MatrixFileError(f"{path}: expected an integer n >= 1 and n^2 [re, im] "
                              f"pairs, got n = {n!r} and entries of shape {entries.shape}")
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(n, n)
