import numpy as np
import pytest

from berezin_lab import (
    WeightedSpace,
    build_berezin,
    e_subspace_basis,
    eigenspace_of_one,
    haar_random_unitary,
    spectrum,
    validate_unitary,
)
from berezin_lab.spectral import eigenvalue_multiplicity
from berezin_lab.symmetry import (
    fourier_matrix,
    invariant_pair_count,
    symmetric_family_matrix,
    unit_root,
    verify_symmetric_family_spectrum,
)
from berezin_lab.errors import NotApplicableError, ThetaDegenerateError


def berezin_and_space(u):
    space = WeightedSpace.from_unitary(u)
    return build_berezin(u), space


class TestSpectrum:
    def test_n1_single_eigenvalue_one(self):
        s = spectrum(*berezin_and_space(haar_random_unitary(1, seed=0)))
        assert s.multiplicity_of_one == 1 and s.kernel_method_dim == 1
        np.testing.assert_allclose(s.eigenvalues, [1.0], atol=1e-12)

    def test_fourier_n2(self):
        s = spectrum(*berezin_and_space(fourier_matrix(2)))
        assert s.multiplicity_of_one == 3
        np.testing.assert_allclose(
            sorted(s.eigenvalues.real), [-1, 1, 1, 1], atol=1e-10
        )
        np.testing.assert_allclose(s.eigenvalues.imag, 0.0, atol=1e-10)

    def test_symmetric_family_n3(self):
        s = spectrum(*berezin_and_space(symmetric_family_matrix(3, 1j)))
        assert s.multiplicity_of_one == 5 == 2 * 3 - 1
        s.check()

    def test_moduli_on_unit_circle(self):
        s = spectrum(*berezin_and_space(haar_random_unitary(4, seed=1)))
        np.testing.assert_allclose(np.abs(s.eigenvalues), 1.0, atol=1e-8)

    def test_cluster_multiplicities_sum(self):
        s = spectrum(*berezin_and_space(haar_random_unitary(5, seed=2)))
        assert sum(m for _, m in s.clusters) == 25

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_clusters_match_svd_kernels_fourier(self, n):
        b, space = berezin_and_space(fourier_matrix(n))
        s = spectrum(b, space)
        for rep, mult in s.clusters:
            assert eigenvalue_multiplicity(b, space, rep) == mult

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_clusters_match_svd_kernels_symmetric_family(self, n):
        b, space = berezin_and_space(symmetric_family_matrix(n, np.exp(0.7j)))
        s = spectrum(b, space)
        for rep, mult in s.clusters:
            assert eigenvalue_multiplicity(b, space, rep) == mult

    def test_invariant_under_diagonal_phases(self):
        rng = np.random.default_rng(3)
        u = haar_random_unitary(3, seed=3)
        kap = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
        lam = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
        v = validate_unitary(kap @ u.matrix @ lam)
        su = spectrum(*berezin_and_space(u))
        sv = spectrum(*berezin_and_space(v))
        a = np.sort_complex(np.round(su.eigenvalues, 9))
        b = np.sort_complex(np.round(sv.eigenvalues, 9))
        assert np.max(np.abs(a - b)) < 1e-8


class TestEigenspaceOfOne:
    def test_contains_sum_symbols(self):
        u = haar_random_unitary(4, seed=4)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b, space)
        assert fixed.dim == 7
        for f in e_subspace_basis(4):
            # reconstruct f from the returned orthonormal basis
            proj = sum(space.inner(f, v) * v for v in fixed.basis)
            assert space.norm(f - proj) < 1e-8

    def test_fourier_prime_span_equals_e(self):
        u = fourier_matrix(3)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b, space)
        assert fixed.dim == 5
        e_cols = np.stack([f.ravel() for f in e_subspace_basis(3)], axis=1)
        v_cols = np.stack([v.ravel() for v in fixed.basis], axis=1)
        both = np.concatenate([e_cols, v_cols], axis=1)
        assert np.linalg.matrix_rank(both, tol=1e-8) == 5

    def test_orthonormal_in_weighted_product(self):
        u = haar_random_unitary(3, seed=5)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b, space)
        gram = np.array([[space.inner(f, g) for g in fixed.basis] for f in fixed.basis])
        np.testing.assert_allclose(gram, np.eye(fixed.dim), atol=1e-10)

    def test_conjugates_stay_in_eigenspace(self):
        u = haar_random_unitary(3, seed=6)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b, space)
        for v in fixed.basis:
            assert space.norm(b.apply(np.conj(v)) - np.conj(v)) < 1e-8

    def test_real_imaginary_split(self):
        u = haar_random_unitary(3, seed=7)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b, space)
        assert len(fixed.real_basis) == fixed.dim
        assert len(fixed.imaginary_basis) == fixed.dim
        for f in fixed.real_basis:
            assert np.max(np.abs(f.imag)) < 1e-12
            assert space.norm(b.apply(f) - f) < 1e-8
        for f in fixed.imaginary_basis:
            assert np.max(np.abs(f.real)) < 1e-12
            assert space.norm(b.apply(f) - f) < 1e-8


class TestSymmetricFamilyTable:
    def test_n3_theta_i(self):
        rep = verify_symmetric_family_spectrum(3, 1j)
        assert rep.multiplicity_of_one == 5
        # clusters come in table order: fixed, the two rational values,
        # conj(theta), -conj(theta)
        values = [c.value for c in rep.clusters]
        mults = [c.predicted_multiplicity for c in rep.clusters]
        np.testing.assert_allclose(
            values, [1.0, (-4 - 3j) / 5, (-3 + 4j) / 5, -1j, 1j], atol=1e-12
        )
        assert mults == [5, 1, 2, 1, 0]
        assert rep.all_match
        # n = 3 leaves the symmetric traceless cluster empty
        assert any(c.predicted_multiplicity == 0 for c in rep.clusters)

    def test_n4_multiplicities(self):
        rep = verify_symmetric_family_spectrum(4, 1j)
        mults = sorted(c.predicted_multiplicity for c in rep.clusters)
        assert mults == [1, 2, 3, 3, 7]
        assert sum(mults) == 16
        assert rep.all_match

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("theta", [1j, np.exp(2.3j)])
    def test_multiplicity_of_one_is_always_2n_minus_1(self, n, theta):
        rep = verify_symmetric_family_spectrum(n, theta)
        assert rep.multiplicity_of_one == 2 * n - 1

    def test_degenerate_theta_rejected(self):
        with pytest.raises(ThetaDegenerateError):
            verify_symmetric_family_spectrum(3, 1.0)
        with pytest.raises(ThetaDegenerateError):
            verify_symmetric_family_spectrum(3, -1.0)

    def test_small_n_rejected(self):
        with pytest.raises(NotApplicableError):
            verify_symmetric_family_spectrum(2, 1j)


def test_fourier_eigenvalues_are_unit_roots():
    n = 5
    s = spectrum(*berezin_and_space(fourier_matrix(n)))
    expected = sorted(
        [complex(unit_root(n, (r * s_) % n)) for r in range(n) for s_ in range(n)],
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    got = sorted(map(complex, s.eigenvalues), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert max(abs(a - b) for a, b in zip(expected, got)) < 1e-8
    assert s.multiplicity_of_one == invariant_pair_count(n) == 9
