import numpy as np
import pytest

from berezin_lab import (
    WeightedSpace,
    build_berezin,
    c_symbol_to_operator,
    d_symbol_to_operator,
    e_subspace_basis,
    fourier_matrix,
    isotypic_projectors,
    symmetric_family_matrix,
)
from berezin_lab import symmetry
from berezin_lab.spectral import eigenvalue_multiplicity
from berezin_lab.errors import (
    BerezinLabError,
    InvariantViolation,
    NotApplicableError,
    ThetaDegenerateError,
)
from berezin_lab.symmetry import (
    all_shifts,
    check_permutation_equivariance,
    check_shift_commutation,
    check_weyl_relations,
    fourier_eigenfunction_check,
    invariant_pair_count,
    isotypic_bases,
    permute_symbol,
    phase_operator,
    shift_operator,
    unit_root,
)


class TestFourierMatrix:
    def test_n2_is_real_hadamard(self):
        np.testing.assert_allclose(
            fourier_matrix(2).matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_n4_entry(self):
        assert abs(fourier_matrix(4).matrix[1, 1] - 0.5j) < 1e-14

    def test_n3_column_sums(self):
        sums = fourier_matrix(3).matrix.sum(axis=0)
        assert abs(sums[0] - np.sqrt(3)) < 1e-12
        np.testing.assert_allclose(sums[1:], 0.0, atol=1e-12)

    def test_entries_have_constant_modulus(self):
        np.testing.assert_allclose(np.abs(fourier_matrix(5).matrix), 1 / np.sqrt(5), atol=1e-14)


class TestWeylRelations:
    def test_n1_exact(self):
        assert check_weyl_relations(1) == 0.0

    def test_n2_pair(self):
        w1, z1 = phase_operator(2, 1), shift_operator(2, 1)
        dev = np.max(np.abs(z1 @ w1 - unit_root(2, 1) * w1 @ z1))
        assert dev < 1e-14

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_pairs(self, n):
        assert check_weyl_relations(n) < 1e-12


class TestFourierEigenfunctions:
    @pytest.mark.parametrize("n,count", [(2, 3), (4, 8), (5, 9)])
    def test_pair_counts_match_multiplicity(self, n, count):
        assert invariant_pair_count(n) == count
        assert eigenvalue_multiplicity(build_berezin(fourier_matrix(n))) == count
        assert fourier_eigenfunction_check(n) < 1e-9


class TestPermutationEquivariance:
    def test_identity_is_exact(self):
        u = symmetric_family_matrix(3, 1j)
        rng = np.random.default_rng(0)
        f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sigma = np.arange(3)
        np.testing.assert_allclose(permute_symbol(f, sigma), f)

    def test_transposition(self):
        rng = np.random.default_rng(1)
        u = symmetric_family_matrix(3, 1j)
        sigma = np.array([1, 0, 2])
        s_op = np.eye(3)[np.argsort(sigma)]
        f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = c_symbol_to_operator(u, permute_symbol(f, sigma))
        rhs = s_op @ c_symbol_to_operator(u, f) @ s_op.T
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_random_permutations(self):
        assert check_permutation_equivariance(3, 1j, trials=20, seed=2) < 1e-10
        assert check_permutation_equivariance(4, np.exp(0.7j), trials=10, seed=3) < 1e-10

    def test_action_is_unitary_in_weighted_product(self):
        rng = np.random.default_rng(4)
        u = symmetric_family_matrix(4, 1j)
        space = WeightedSpace.from_unitary(u)
        for _ in range(10):
            sigma = rng.permutation(4)
            f = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert abs(
                space.inner(permute_symbol(f, sigma), permute_symbol(g, sigma))
                - space.inner(f, g)
            ) < 1e-12

    def test_degenerate_theta_rejected(self):
        with pytest.raises(ThetaDegenerateError):
            check_permutation_equivariance(3, 1.0, trials=1, seed=0)


class TestShiftCommutation:
    def test_small_cases(self):
        assert check_shift_commutation(3, trials=5, seed=5) < 1e-10
        assert check_shift_commutation(5, trials=3, seed=6) < 1e-10

    def test_all_shifts_are_the_translates(self):
        n = 4
        f = np.arange(n * n).reshape(n, n)
        shifts = all_shifts(f)
        for s in range(n):
            for t in range(n):
                np.testing.assert_array_equal(shifts[s, t], np.roll(f, shift=(-t, s), axis=(0, 1)))


class TestIsotypicDecomposition:
    @pytest.mark.parametrize(
        "n,ranks", [(3, (2, 6, 1, 0)), (4, (2, 9, 3, 2)), (5, (2, 12, 6, 5))]
    )
    def test_projector_ranks(self, n, ranks):
        projs = isotypic_projectors(n)
        got = tuple(np.linalg.matrix_rank(p, tol=1e-9) for p in projs)
        assert got == ranks
        assert sum(got) == n * n

    def test_pairwise_products_vanish(self):
        projs = isotypic_projectors(4)
        for i, p in enumerate(projs):
            np.testing.assert_allclose(p @ p, p, atol=1e-10)
            for j, q in enumerate(projs):
                if i != j:
                    np.testing.assert_allclose(p @ q, 0.0, atol=1e-10)

    def test_orthogonal_in_weighted_product(self):
        # ranges of distinct projectors are orthogonal in the weighted
        # product of the symmetric family
        u = symmetric_family_matrix(4, np.exp(2.3j))
        space = WeightedSpace.from_unitary(u)
        bases = isotypic_bases(4)
        for i in range(4):
            for j in range(i + 1, 4):
                for f in bases[i]:
                    for g in bases[j]:
                        assert abs(space.inner(f + 0j, g + 0j)) < 1e-12

    def test_projectors_commute_with_permutations(self):
        n = 4
        rng = np.random.default_rng(9)
        projs = isotypic_projectors(n)
        for _ in range(5):
            sigma = rng.permutation(n)
            inv = np.argsort(sigma)
            # the action on flattened symbols as an n^2 x n^2 permutation
            r_op = np.zeros((n * n, n * n))
            for k in range(n):
                for l in range(n):
                    r_op[k * n + l, inv[k] * n + inv[l]] = 1.0
            for p in projs:
                assert np.max(np.abs(p @ r_op - r_op @ p)) < 1e-10

    def test_antisymmetric_component_eigenvalue(self):
        # d map output is conj(theta) times the c map output on component 3
        theta = np.exp(0.7j)
        u = symmetric_family_matrix(4, theta)
        for f in isotypic_bases(4)[2]:
            cf = c_symbol_to_operator(u, f + 0j)
            df = d_symbol_to_operator(u, f + 0j)
            assert np.max(np.abs(df - np.conj(theta) * cf)) < 1e-10

    def test_component_eigenvalues_under_berezin(self):
        theta = np.exp(0.7j)
        u = symmetric_family_matrix(5, theta)
        space = WeightedSpace.from_unitary(u)
        b = build_berezin(u)
        bases = isotypic_bases(5)
        rng = np.random.default_rng(10)
        for basis, eig in ((bases[2], np.conj(theta)), (bases[3], -np.conj(theta))):
            coeffs = rng.standard_normal(len(basis))
            f = sum(c * v for c, v in zip(coeffs, basis)) + 0j
            assert space.norm(b.apply(f) - eig * f) < 1e-9

    def test_e_perp_dimension_accounting(self):
        # after removing the span of row/column functions, the four
        # components contribute 1, n-1, (n-1)(n-2)/2, n(n-3)/2 dimensions
        n = 5
        theta = 1j
        u = symmetric_family_matrix(n, theta)
        space = WeightedSpace.from_unitary(u)
        e_cols = np.stack([f.ravel() for f in e_subspace_basis(n)], axis=1)
        w2 = space.weights.ravel()
        expected = [1, n - 1, (n - 1) * (n - 2) // 2, n * (n - 3) // 2]
        for basis, dim in zip(isotypic_bases(n), expected):
            cols = np.stack([f.ravel() for f in basis], axis=1).astype(complex)
            # project out E in the weighted product
            gram = e_cols.conj().T @ (w2[:, None] * e_cols)
            cross = e_cols.conj().T @ (w2[:, None] * cols)
            residual = cols - e_cols @ np.linalg.solve(gram, cross)
            assert np.linalg.matrix_rank(residual, tol=1e-9) == dim
        assert sum(expected) == n * n - (2 * n - 1)

    def test_small_n_rejected(self):
        with pytest.raises(NotApplicableError):
            isotypic_projectors(2)

    def test_incomplete_bases_raise_package_error(self, monkeypatch):
        full = isotypic_bases(4)
        monkeypatch.setattr(symmetry, "isotypic_bases", lambda n: (*full[:3], full[3][:-1]))
        with pytest.raises(InvariantViolation, match="do not fill") as exc:
            isotypic_projectors(4)
        assert isinstance(exc.value, BerezinLabError)
