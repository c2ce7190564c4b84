import numpy as np
import pytest

from berezin_lab import (
    DimensionMismatchError,
    WeightedSpace,
    ZeroEntryError,
    berezin_from_composition,
    build_berezin,
    c_symbol_to_operator,
    d_symbol_to_operator,
    e_subspace_basis,
    haar_random_unitary,
    is_skew_c_symbol,
    operator_to_c_symbol,
    operator_to_d_symbol,
    validate_unitary,
)
from berezin_lab.spectral import standardized_matrix
from berezin_lab.symmetry import fourier_matrix


def random_symbol(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestWeightedInner:
    def test_all_ones_gives_n(self):
        space = WeightedSpace.from_unitary(haar_random_unitary(4, seed=0))
        ones = np.ones((4, 4))
        assert abs(space.inner(ones, ones) - 4.0) < 1e-12

    def test_disjoint_indicators_orthogonal(self):
        space = WeightedSpace.from_unitary(haar_random_unitary(3, seed=1))
        f = np.zeros((3, 3))
        g = np.zeros((3, 3))
        f[0, 0] = 1.0
        g[0, 1] = 1.0
        assert space.inner(f, g) == 0

    def test_fourier_characters_by_brute_force(self):
        u = fourier_matrix(2)
        space = WeightedSpace.from_unitary(u)
        k = np.arange(2)
        f = np.exp(2j * np.pi * k / 2)[:, None] * np.ones((1, 2))   # eps(k)
        g = np.ones((2, 1)) * np.exp(2j * np.pi * k / 2)[None, :]   # eps(l)
        expected = sum(
            f[a, b] * np.conj(g[a, b]) * abs(u.matrix[a, b]) ** 2
            for a in range(2)
            for b in range(2)
        )
        assert abs(space.inner(f, g) - expected) < 1e-14

    def test_dimension_mismatch(self):
        space = WeightedSpace.from_unitary(haar_random_unitary(3, seed=2))
        with pytest.raises(DimensionMismatchError):
            space.inner(np.ones((2, 2)), np.ones((2, 2)))


class TestSymbolToOperator:
    def test_constant_one_gives_identity(self):
        u = haar_random_unitary(4, seed=3)
        ones = np.ones((4, 4))
        np.testing.assert_allclose(c_symbol_to_operator(u, ones), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(d_symbol_to_operator(u, ones), np.eye(4), atol=1e-12)

    def test_row_function_gives_diagonal(self):
        u = haar_random_unitary(3, seed=4)
        a = np.array([1.5, -0.2, 0.7 + 0.3j])
        f = np.outer(a, np.ones(3))
        np.testing.assert_allclose(c_symbol_to_operator(u, f), np.diag(a), atol=1e-12)
        np.testing.assert_allclose(d_symbol_to_operator(u, f), np.diag(a), atol=1e-12)

    def test_column_function_conjugates_through_the_matrix(self):
        # f depending on l only acts as u diag(b) u*
        u = fourier_matrix(2)
        b = np.array([1.0, -1.0])
        f = np.outer(np.ones(2), b)
        expected = u.matrix @ np.diag(b) @ u.matrix.conj().T
        np.testing.assert_allclose(expected, np.array([[0, 1], [1, 0]]), atol=1e-14)
        np.testing.assert_allclose(c_symbol_to_operator(u, f), expected, atol=1e-12)

    def test_adjoint_swaps_the_maps(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            u = haar_random_unitary(n, seed=[5, n])
            f = random_symbol(rng, n)
            np.testing.assert_allclose(
                c_symbol_to_operator(u, f).conj().T,
                d_symbol_to_operator(u, np.conj(f)),
                atol=1e-12,
            )


class TestOperatorToSymbol:
    def test_identity_gives_constant_one(self):
        u = haar_random_unitary(3, seed=6)
        np.testing.assert_allclose(operator_to_c_symbol(u, np.eye(3)), 1.0, atol=1e-12)

    def test_diagonal_gives_row_function(self):
        u = haar_random_unitary(3, seed=7)
        a = np.array([2.0, -1.0, 0.5])
        f = operator_to_c_symbol(u, np.diag(a))
        np.testing.assert_allclose(f, np.outer(a, np.ones(3)), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            u = haar_random_unitary(3, seed=[8, trial])
            x = random_symbol(rng, 3)
            np.testing.assert_allclose(
                c_symbol_to_operator(u, operator_to_c_symbol(u, x)), x, atol=1e-10
            )
            np.testing.assert_allclose(
                d_symbol_to_operator(u, operator_to_d_symbol(u, x)), x, atol=1e-10
            )

    def test_zero_entries_rejected(self):
        with pytest.raises(ZeroEntryError):
            operator_to_c_symbol(validate_unitary(np.eye(3)), np.eye(3))


class TestBerezin:
    def test_n1_is_identity(self):
        u = haar_random_unitary(1, seed=9)
        np.testing.assert_allclose(standardized_matrix(build_berezin(u)), np.eye(1), atol=1e-14)

    def test_fixes_sum_symbols(self):
        # any f[k, l] = a_k + b_l is a fixed point
        rng = np.random.default_rng(10)
        u = haar_random_unitary(4, seed=10)
        b = build_berezin(u)
        a_vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b_vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = a_vec[:, None] + b_vec[None, :]
        space = WeightedSpace.from_unitary(u)
        assert space.norm(b.apply(f) - f) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_matches_composition(self, n):
        for trial in range(5):
            u = haar_random_unitary(n, seed=[11, n, trial])
            w = np.abs(u.matrix).ravel()
            composed = w[:, None] * berezin_from_composition(u) / w[None, :]
            dev = np.max(np.abs(standardized_matrix(build_berezin(u)) - composed))
            assert dev < 1e-9

    def test_unitary_in_weighted_product(self):
        u = haar_random_unitary(4, seed=12)
        std = standardized_matrix(build_berezin(u))
        np.testing.assert_allclose(std @ std.conj().T, np.eye(16), atol=1e-9)

    def test_preserves_weighted_norm(self):
        rng = np.random.default_rng(13)
        u = haar_random_unitary(3, seed=13)
        space = WeightedSpace.from_unitary(u)
        b = build_berezin(u)
        for _ in range(10):
            f = random_symbol(rng, 3)
            assert abs(space.norm(b.apply(f)) - space.norm(f)) < 1e-9

    def test_symbol_exchange(self):
        # f = B g forces conj(g) = B conj(f)
        rng = np.random.default_rng(14)
        u = haar_random_unitary(3, seed=14)
        space = WeightedSpace.from_unitary(u)
        b = build_berezin(u)
        g = random_symbol(rng, 3)
        f = b.apply(g)
        assert space.norm(b.apply(np.conj(f)) - np.conj(g)) < 1e-9

    def test_eigenpairs_closed_under_conjugation(self):
        u = haar_random_unitary(3, seed=15)
        space = WeightedSpace.from_unitary(u)
        b = build_berezin(u)
        w = space.sqrt_weights.ravel()
        vals, vecs = np.linalg.eig(standardized_matrix(b))
        for i in range(9):
            g = (vecs[:, i] / w).reshape(3, 3)
            theta = vals[i]
            assert space.norm(b.apply(g) - theta * g) < 1e-8
            assert space.norm(b.apply(np.conj(g)) - theta * np.conj(g)) < 1e-7

    def test_zero_entries_rejected(self):
        with pytest.raises(ZeroEntryError):
            build_berezin(validate_unitary(np.eye(2)))

    def test_batched_apply_matches_items_and_dense_matrix(self):
        rng = np.random.default_rng(22)
        u = haar_random_unitary(3, seed=22)
        b = build_berezin(u)
        stack = rng.standard_normal((2, 3, 3, 3)) + 1j * rng.standard_normal((2, 3, 3, 3))
        out = b.apply(stack)
        assert out.shape == stack.shape
        w = np.abs(u.matrix).ravel()
        dense = standardized_matrix(b) * w[None, :] / w[:, None]  # W^-1 S W
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(out[idx], b.apply(stack[idx]), atol=1e-13)
            np.testing.assert_allclose(out[idx].ravel(), dense @ stack[idx].ravel(), atol=1e-12)

    def test_apply_rejects_wrong_symbol_shape(self):
        b = build_berezin(haar_random_unitary(3, seed=23))
        with pytest.raises(DimensionMismatchError):
            b.apply(np.ones((2, 3, 2)))


class TestESubspace:
    def test_n1_single_constant(self):
        basis = e_subspace_basis(1)
        assert len(basis) == 1

    def test_dimension_and_gram_rank(self):
        u = haar_random_unitary(3, seed=16)
        space = WeightedSpace.from_unitary(u)
        basis = e_subspace_basis(3)
        assert len(basis) == 5
        gram = np.array([[space.inner(f, g) for g in basis] for f in basis])
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 5

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_element_is_fixed(self, n):
        u = haar_random_unitary(n, seed=[17, n])
        space = WeightedSpace.from_unitary(u)
        b = build_berezin(u)
        for f in e_subspace_basis(n):
            assert space.norm(b.apply(f) - f) < 1e-10


class TestSkewSymbol:
    def test_constant_imaginary_is_skew(self):
        u = haar_random_unitary(3, seed=18)
        assert is_skew_c_symbol(u, 1j * np.ones((3, 3)), tol=1e-10)

    def test_constant_one_is_not(self):
        u = haar_random_unitary(3, seed=19)
        assert not is_skew_c_symbol(u, np.ones((3, 3)), tol=1e-10)

    def test_symbols_of_skew_operators(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            u = haar_random_unitary(3, seed=[20, trial])
            a = random_symbol(rng, 3)
            x = a - a.conj().T
            f = operator_to_c_symbol(u, x)
            assert is_skew_c_symbol(u, f, tol=1e-9)
            # agrees with testing the operator directly
            back = c_symbol_to_operator(u, f)
            assert np.max(np.abs(back + back.conj().T)) < 1e-9


def test_isometry_property():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        for trial in range(5):
            u = haar_random_unitary(n, seed=[21, n, trial])
            space = WeightedSpace.from_unitary(u)
            f, g = random_symbol(rng, n), random_symbol(rng, n)
            hs_c = np.trace(c_symbol_to_operator(u, f) @ c_symbol_to_operator(u, g).conj().T)
            hs_d = np.trace(d_symbol_to_operator(u, f) @ d_symbol_to_operator(u, g).conj().T)
            assert abs(hs_c - space.inner(f, g)) < 1e-10
            assert abs(hs_d - space.inner(f, g)) < 1e-10
