import numpy as np
import pytest

from berezin_lab import (
    NotUnitaryError,
    ZeroEntryError,
    haar_random_unitary,
    load_matrix,
    save_matrix,
    to_doubly_stochastic,
    validate_unitary,
)
from berezin_lab.matrices import haar_unitary_stack


def test_identity_is_unitary_with_zero_entries():
    u = validate_unitary(np.eye(3), tol=1e-10)
    assert not u.nonzero_entries


def test_real_hadamard_is_unitary_with_nonzero_entries():
    m = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = validate_unitary(m, tol=1e-10)
    assert u.nonzero_entries


def test_shear_rejected():
    with pytest.raises(NotUnitaryError):
        validate_unitary(np.array([[1, 1], [0, 1]]))


def test_nonsquare_rejected():
    with pytest.raises(ValueError, match="expected a square matrix"):
        validate_unitary(np.ones((2, 3)))


def test_haar_n1_is_unit_modulus():
    u = haar_random_unitary(1, seed=5)
    assert abs(abs(u.matrix[0, 0]) - 1.0) < 1e-14


def test_haar_is_unitary():
    u = haar_random_unitary(3, seed=123)
    validate_unitary(u.matrix, tol=1e-10)


def test_haar_deterministic_given_seed():
    a = haar_random_unitary(4, seed=99).matrix
    b = haar_random_unitary(4, seed=99).matrix
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_haar_stream_drawn_in_chunks_matches_one_draw(n):
    # matrix i takes normals 2 i n^2 to 2 (i + 1) n^2 - 1 of the stream,
    # however the stream is split, and the first is haar_random_unitary's
    whole, nonzero = haar_unitary_stack(n, 5, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    parts = [haar_unitary_stack(n, count, rng) for count in (1, 2, 2)]
    assert np.array_equal(np.concatenate([m for m, _ in parts]), whole)
    assert np.array_equal(np.concatenate([ok for _, ok in parts]), nonzero)
    assert np.array_equal(haar_random_unitary(n, 7).matrix, whole[0])


def test_haar_zero_entries_never_seen():
    # vanishing entries have Haar measure zero; check empirically
    hits = sum(
        np.min(np.abs(haar_random_unitary(3, seed=i).matrix)) < 1e-12
        for i in range(10_000)
    )
    assert hits == 0


def test_squared_moduli_of_permutation_is_itself():
    perm = np.eye(3)[[2, 0, 1]]
    p = to_doubly_stochastic(validate_unitary(perm))
    np.testing.assert_array_equal(p, perm)


def test_squared_moduli_of_hadamard_is_flat():
    u = validate_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    np.testing.assert_allclose(to_doubly_stochastic(u), np.full((2, 2), 0.5))


def test_squared_moduli_symmetric_family_values():
    # u = Id + (i - 1)/3: diagonal |1 + (i-1)/3|^2 = 5/9, off-diagonal 2/9
    m = np.eye(3, dtype=complex) + (1j - 1.0) / 3.0
    p = to_doubly_stochastic(validate_unitary(m))
    np.testing.assert_allclose(np.diag(p), 5.0 / 9.0, atol=1e-14)
    off = p[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 2.0 / 9.0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_row_column_sums(n):
    p = to_doubly_stochastic(haar_random_unitary(n, seed=n))
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_every_validated_unitary_is_mapped():
    # a perturbation inside the unitarity tolerance moves the row sums of
    # |u|^2 by about as much, well past 1e-12
    m = haar_random_unitary(6, 3).matrix + 2e-11 * np.random.default_rng(0).standard_normal((6, 6))
    u = validate_unitary(m)
    p = to_doubly_stochastic(u)
    np.testing.assert_array_equal(p, np.abs(m) ** 2)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12


class TestNormalForm:
    # the phase class of u is {kappa u lambda : kappa, lambda diagonal
    # unitaries}; |u|^2 is constant on it, so it stands in for a normal form

    def test_preserves_squared_moduli(self):
        # dephase u so that its first row and column are real and positive
        u = haar_random_unitary(4, seed=11)
        col = u.matrix[:, 0]
        kap = np.diag(np.conj(col) / np.abs(col))
        row = (kap @ u.matrix)[0, :]
        lam = np.diag(np.conj(row) / np.abs(row))
        v = validate_unitary(kap @ u.matrix @ lam)
        assert np.all(v.matrix[0, :].real > 0) and np.max(np.abs(v.matrix[0, :].imag)) < 1e-14
        assert np.all(v.matrix[:, 0].real > 0) and np.max(np.abs(v.matrix[:, 0].imag)) < 1e-14
        np.testing.assert_allclose(to_doubly_stochastic(v), to_doubly_stochastic(u), atol=1e-15)

    def test_class_invariant_over_random_phases(self):
        for trial in range(100):
            rng = np.random.default_rng(trial)
            u = haar_random_unitary(3, seed=[1000, trial])
            kap = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
            lam = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
            v = validate_unitary(kap @ u.matrix @ lam)
            np.testing.assert_allclose(
                to_doubly_stochastic(v), to_doubly_stochastic(u), atol=1e-15
            )


def test_matrix_json_round_trip(tmp_path):
    u = haar_random_unitary(5, seed=3).matrix
    path = tmp_path / "u.json"
    save_matrix(path, u)
    np.testing.assert_array_equal(load_matrix(path), u)
