import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin_lab import (
    WeightedSpace,
    berezin_from_composition,
    build_berezin,
    e_subspace_basis,
    eigenspace_of_one,
    haar_random_unitary,
    spectrum,
    validate_unitary,
)
from berezin_lab import spectral
from berezin_lab.spectral import (
    MIX,
    cluster_eigenvalues,
    eigenvalue_multiplicity,
    standardized_matrix,
)
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
        s = spectrum(build_berezin(haar_random_unitary(1, seed=0)))
        assert s.multiplicity_of_one == 1 and s.kernel_method_dim == 1
        np.testing.assert_allclose(s.eigenvalues, [1.0], atol=1e-12)

    def test_fourier_n2(self):
        s = spectrum(build_berezin(fourier_matrix(2)))
        assert s.multiplicity_of_one == 3
        np.testing.assert_allclose(
            sorted(s.eigenvalues.real), [-1, 1, 1, 1], atol=1e-10
        )
        np.testing.assert_allclose(s.eigenvalues.imag, 0.0, atol=1e-10)

    def test_symmetric_family_n3(self):
        s = spectrum(build_berezin(symmetric_family_matrix(3, 1j)))
        assert s.multiplicity_of_one == 5 == 2 * 3 - 1
        s.check()

    def test_moduli_on_unit_circle(self):
        s = spectrum(build_berezin(haar_random_unitary(4, seed=1)))
        np.testing.assert_allclose(np.abs(s.eigenvalues), 1.0, atol=1e-8)

    def test_cluster_multiplicities_sum(self):
        s = spectrum(build_berezin(haar_random_unitary(5, seed=2)))
        assert sum(m for _, m in s.clusters) == 25

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_clusters_match_svd_kernels_fourier(self, n):
        b = build_berezin(fourier_matrix(n))
        s = spectrum(b)
        for rep, mult in s.clusters:
            assert eigenvalue_multiplicity(b, rep) == mult

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_clusters_match_svd_kernels_symmetric_family(self, n):
        b = build_berezin(symmetric_family_matrix(n, np.exp(0.7j)))
        s = spectrum(b)
        for rep, mult in s.clusters:
            assert eigenvalue_multiplicity(b, rep) == mult

    def test_invariant_under_diagonal_phases(self):
        rng = np.random.default_rng(3)
        u = haar_random_unitary(3, seed=3)
        kap = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
        lam = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
        v = validate_unitary(kap @ u.matrix @ lam)
        su = spectrum(build_berezin(u))
        sv = spectrum(build_berezin(v))
        a = np.sort_complex(np.round(su.eigenvalues, 9))
        b = np.sort_complex(np.round(sv.eigenvalues, 9))
        assert np.max(np.abs(a - b)) < 1e-8


class TestEigenspaceOfOne:
    def test_contains_sum_symbols(self):
        u = haar_random_unitary(4, seed=4)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b)
        assert fixed.dim == 7
        for f in e_subspace_basis(4):
            # reconstruct f from the returned orthonormal basis
            proj = sum(space.inner(f, v) * v for v in fixed.basis)
            assert space.norm(f - proj) < 1e-8

    def test_fourier_prime_span_equals_e(self):
        u = fourier_matrix(3)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b)
        assert fixed.dim == 5
        e_cols = np.stack([f.ravel() for f in e_subspace_basis(3)], axis=1)
        v_cols = np.stack([v.ravel() for v in fixed.basis], axis=1)
        both = np.concatenate([e_cols, v_cols], axis=1)
        assert np.linalg.matrix_rank(both, tol=1e-8) == 5

    def test_orthonormal_in_weighted_product(self):
        u = haar_random_unitary(3, seed=5)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b)
        gram = np.array([[space.inner(f, g) for g in fixed.basis] for f in fixed.basis])
        np.testing.assert_allclose(gram, np.eye(fixed.dim), atol=1e-10)

    def test_conjugates_stay_in_eigenspace(self):
        u = haar_random_unitary(3, seed=6)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b)
        for v in fixed.basis:
            assert space.norm(b.apply(np.conj(v)) - np.conj(v)) < 1e-8

    def test_real_imaginary_split(self):
        u = haar_random_unitary(3, seed=7)
        b, space = berezin_and_space(u)
        fixed = eigenspace_of_one(b)
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
    s = spectrum(build_berezin(fourier_matrix(n)))
    expected = sorted(
        [complex(unit_root(n, (r * s_) % n)) for r in range(n) for s_ in range(n)],
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    got = sorted(map(complex, s.eigenvalues), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert max(abs(a - b) for a, b in zip(expected, got)) < 1e-8
    assert s.multiplicity_of_one == invariant_pair_count(n) == 9


# ---------------------------------------------------------------------------
# the real symmetric structure of the standardized matrix


def f2_cubed_perturbed(eps):
    """F2 x F2 x F2 (kernel 36 at n = 8) left-multiplied by exp(eps X), X the
    skew part of a seeded complex Gaussian: near-degenerate spectra."""
    f2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    f = np.kron(np.kron(f2, f2), f2)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    lam, v = np.linalg.eigh(-1j * (g - g.conj().T) / 2)
    return validate_unitary((v * np.exp(1j * eps * lam)) @ v.conj().T @ f)


STRUCTURED = {
    "haar5": lambda: haar_random_unitary(5, seed=11),
    "F4": lambda: fourier_matrix(4),
    "F6": lambda: fourier_matrix(6),
    "F12": lambda: fourier_matrix(12),
    "symmetric8": lambda: symmetric_family_matrix(8, np.exp(0.7j)),
    "symmetric16": lambda: symmetric_family_matrix(16, np.exp(2.1j)),
    "F2^3": lambda: f2_cubed_perturbed(0.0),
    **{f"F2^3 eps={eps:g}": (lambda eps=eps: f2_cubed_perturbed(eps))
       for eps in (1e-3, 1e-7, 3e-8, 1e-11)},
}


def max_pairing_distance(a, b):
    """Largest distance in a one-to-one pairing of a with b, each value of a
    taking the nearest value of b not yet taken.  The optimal (bottleneck)
    pairing is at least as good, so a small result bounds it."""
    free = np.ones(len(b), dtype=bool)
    worst = 0.0
    for z in a:
        dist = np.where(free, np.abs(b - z), np.inf)
        j = int(np.argmin(dist))
        free[j] = False
        worst = max(worst, dist[j])
    return worst


def assert_matches_eigvals(u):
    b = build_berezin(u)
    reference = np.linalg.eigvals(standardized_matrix(b))
    assert max_pairing_distance(spectrum(b).eigenvalues, reference) <= 1e-12


class TestStandardizedMatrix:
    @pytest.mark.parametrize("name", ["haar5", "F4", "symmetric8", "F2^3 eps=1e-07"])
    def test_equals_weighted_conjugate_of_both_constructions(self, name):
        u = STRUCTURED[name]()
        b = build_berezin(u)
        s = standardized_matrix(b)
        w = np.abs(u.matrix).ravel()
        composed = w[:, None] * berezin_from_composition(u) / w[None, :]
        np.testing.assert_allclose(s, composed, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", ["haar5", "F6", "symmetric8", "F2^3 eps=3e-08"])
    def test_symmetric_unitary_with_commuting_real_parts(self, name):
        s = standardized_matrix(build_berezin(STRUCTURED[name]()))
        x, y = s.real, s.imag
        eye = np.eye(len(s))
        assert np.max(np.abs(s - s.T)) <= 1e-12
        assert np.max(np.abs(s @ s.conj().T - eye)) <= 1e-12
        assert np.max(np.abs(x @ y - y @ x)) <= 1e-12
        assert np.max(np.abs(x @ x + y @ y - eye)) <= 1e-12

    def test_never_reads_dense_matrix(self):
        b = build_berezin(haar_random_unitary(4, seed=12))
        spectrum(b)
        eigenvalue_multiplicity(b)
        eigenspace_of_one(b)
        assert vars(b).keys() == {"u", "n"}  # no dense matrix is kept on the transform


class TestEigenvaluesAgainstEigvals:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        assert_matches_eigvals(haar_random_unitary(n, seed=seed))

    @pytest.mark.parametrize("name", [k for k in STRUCTURED if k != "haar5"])
    def test_structured(self, name):
        assert_matches_eigvals(STRUCTURED[name]())

    def test_shared_mixed_value_takes_the_run_solve(self, monkeypatch):
        """Two distinct eigenvalues with the same Re + MIX Im share one
        eigenvalue of X + MIX Y; the columns eigh returns for it mix their
        eigenvectors, and the run's small eigvals recovers both."""
        rng = np.random.default_rng(13)
        # angles summing to 2 give the same a + MIX b = sec(1) cos(theta - 1)
        angles = np.array([0.3, 0.3, 1.7, 2.9, -1.2, -2.5, 0.8, 2.2])
        lam = np.exp(1j * angles)
        assert abs((lam[0].real + MIX * lam[0].imag) - (lam[2].real + MIX * lam[2].imag)) < 1e-15
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        s = (q * lam) @ q.T
        shapes = []
        real_eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: shapes.append(a.shape) or real_eigvals(a))
        got = spectral._eigenvalues(s)
        assert shapes == [(3, 3)]
        assert max_pairing_distance(got, lam) <= 1e-12

    def test_no_eigvals_on_the_full_matrix(self, monkeypatch):
        shapes = []
        real_eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: shapes.append(a.shape) or real_eigvals(a))
        spectrum(build_berezin(haar_random_unitary(6, seed=14)))
        assert (36, 36) not in shapes


class TestClusterEigenvalues:
    def test_labels_index_the_clusters(self):
        values = np.exp(1j * np.array([0.0, 2.0, 1e-12, 2.0 + 1e-12, -1.0, 0.0]))
        clusters, ids = cluster_eigenvalues(values, 1e-8)
        assert sorted(m for _, m in clusters) == [1, 2, 3]
        for z, i in zip(values, ids):
            assert abs(clusters[i][0] - z) <= 1e-8
        assert [clusters[i][1] for i in ids] == [3, 2, 3, 2, 1, 3]

    def test_wrap_around_merge_relabels(self):
        values = np.array([-1 + 1e-10j, 1.0, -1 - 1e-10j])
        clusters, ids = cluster_eigenvalues(values, 1e-8)
        assert len(clusters) == 2
        assert ids[0] == ids[2] != ids[1]
        assert clusters[ids[0]][1] == 2
