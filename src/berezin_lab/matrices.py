"""Dense complex matrices: unitary validation, Haar sampling, the
squared-modulus map, and JSON matrix files."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-10
ENTRY_FLOOR = 1e-12


class MatrixFileError(Exception):
    """A matrix file's content is not a valid matrix file (exit 3)."""


class NotUnitaryError(Exception):
    """A matrix is not unitary within its tolerance (exit 4)."""


class ZeroEntryError(Exception):
    """An entry too near zero for its phase or weight to be defined (exit 5)."""


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


def validate_unitary(m: np.ndarray, tol: float = UNITARITY_TOL) -> Unitary:
    """Check ||m m* - Id||_max <= tol and wrap the matrix.

    Raises ValueError if m is not square, NotUnitaryError if it is not
    unitary; NaN/Inf entries are rejected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return Unitary(matrix=m, nonzero_entries=bool(_check_unitary(m, tol)))


def _check_unitary(m: np.ndarray, tol: float) -> np.ndarray:
    """The check of validate_unitary on each matrix of a stack along leading
    axes: raise NotUnitaryError unless every matrix is finite with
    ||m m* - Id||_max <= tol, and say of each whether all its |entries|
    exceed ENTRY_FLOOR.  A matrix that is not finite deviates by inf."""
    dev = np.inf
    if np.all(np.isfinite(m)):
        # entries near the largest double overflow the product: its inf or
        # NaN deviation is the verdict, and numpy's own warning adds nothing
        with np.errstate(over="ignore", invalid="ignore"):
            gram = m @ np.conj(np.swapaxes(m, -1, -2))
        dev = np.max(np.abs(gram - np.eye(m.shape[-1])))
    if not dev <= tol:  # a NaN deviation fails too
        raise NotUnitaryError(f"matrix is not unitary (max deviation {dev:.3e})")
    return np.min(np.abs(m), axis=(-2, -1)) > ENTRY_FLOOR


def require_nonzero(u: Unitary) -> None:
    """Raise ZeroEntryError unless every |u_kl| exceeds ENTRY_FLOOR: the
    symbol calculus divides by the entries and takes their phases."""
    if not u.nonzero_entries:
        raise ZeroEntryError("operation requires all matrix entries nonzero")


def haar_random_unitary(n: int, seed) -> Unitary:
    """Draw a Haar-distributed n x n unitary deterministically from seed:
    haar_unitary_stack's one-sample draw from default_rng(seed)."""
    m, nonzero = haar_unitary_stack(n, 1, np.random.default_rng(seed))
    return Unitary(matrix=m[0], nonzero_entries=bool(nonzero[0]))


def haar_unitary_stack(n: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """count Haar-distributed n x n unitaries as one (count, n, n) stack,
    each checked as validate_unitary checks it, and whether each has all
    entries nonzero.  Matrix i is Q of the QR of the Ginibre matrix of
    rng's next normals 2 i n^2 to 2 (i + 1) n^2 - 1 (_ginibre_stack), each
    column times the phase of R's matching diagonal entry (without this
    the output is not Haar-distributed); so a stream drawn in chunks gives
    the matrices one draw gives."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q, r = np.linalg.qr(_ginibre_stack(rng.standard_normal((count, 2, n, n))))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    m = q * (d / np.abs(d))[:, np.newaxis, :]
    return m, _check_unitary(m, UNITARITY_TOL)


def _ginibre_stack(normals: np.ndarray) -> np.ndarray:
    """The complex Ginibre matrices (re + i im) / sqrt(2) of a
    (count, 2, n, n) stack of normals (re, im), each n x n row-major."""
    return (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2)


def to_doubly_stochastic(u: Unitary) -> np.ndarray:
    """The squared-modulus map u -> (|u_kl|^2), a doubly stochastic matrix.

    Its row and column sums are the diagonals of u u* and u* u, so they
    equal 1 to within the tolerance u was validated at."""
    return np.abs(u.matrix) ** 2


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
