import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin_lab import (
    WeightedSpace,
    berezin_from_composition,
    build_berezin,
    e_subspace_basis,
    haar_random_unitary,
    jacobian_report,
    spectrum,
    validate_unitary,
)
from berezin_lab import spectral, submersion, symmetry
from berezin_lab.spectral import (
    CLUSTER_TOL,
    PENCIL_ANGLE,
    cluster_eigenvalues,
    eigenvalue_multiplicities,
    standardized_matrix,
)
from berezin_lab.symmetry import (
    fourier_matrix,
    invariant_pair_count,
    predicted_clusters,
    symmetric_family_matrix,
    unit_root,
    verify_symmetric_family_spectrum,
)


def berezin_and_space(u):
    space = WeightedSpace.from_unitary(u)
    return build_berezin(u), space


class TestSpectrum:
    def test_n1_single_eigenvalue_one(self):
        s = spectrum(haar_random_unitary(1, seed=0))
        assert s.multiplicity_of_one == 1
        np.testing.assert_allclose(s.eigenvalues, [1.0], atol=1e-12)

    def test_fourier_n2(self):
        s = spectrum(fourier_matrix(2))
        assert s.multiplicity_of_one == 3
        np.testing.assert_allclose(
            sorted(s.eigenvalues.real), [-1, 1, 1, 1], atol=1e-10
        )
        np.testing.assert_allclose(s.eigenvalues.imag, 0.0, atol=1e-10)

    def test_symmetric_family_n3(self):
        s = spectrum(symmetric_family_matrix(3, 1j))
        assert s.multiplicity_of_one == 5 == 2 * 3 - 1
        s.check()

    def test_moduli_on_unit_circle(self):
        s = spectrum(haar_random_unitary(4, seed=1))
        np.testing.assert_allclose(np.abs(s.eigenvalues), 1.0, atol=1e-8)

    def test_cluster_multiplicities_sum(self):
        s = spectrum(haar_random_unitary(5, seed=2))
        assert sum(m for _, m in s.clusters) == 25

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_clusters_match_svd_kernels_fourier(self, n):
        u = fourier_matrix(n)
        for rep, mult in spectrum(u).clusters:
            assert svd_count(u, rep) == mult

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_clusters_match_svd_kernels_symmetric_family(self, n):
        u = symmetric_family_matrix(n, np.exp(0.7j))
        for rep, mult in spectrum(u).clusters:
            assert svd_count(u, rep) == mult

    def test_invariant_under_diagonal_phases(self):
        rng = np.random.default_rng(3)
        u = haar_random_unitary(3, seed=3)
        kap = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
        lam = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
        v = validate_unitary(kap @ u.matrix @ lam)
        su = spectrum(u)
        sv = spectrum(v)
        a = np.sort_complex(np.round(su.eigenvalues, 9))
        b = np.sort_complex(np.round(sv.eigenvalues, 9))
        assert np.max(np.abs(a - b)) < 1e-8


def fixed_symbols(u):
    """A reference basis of ker(B - I), real and orthonormal in the weighted
    product, with no pencil: S = X + iY has ker(S - I) = ker(X - I) ∩ ker(Y)
    over the reals, the null space of the real stack [X - I; Y], whose
    singular values are |lambda - 1|; its basis is divided by |u|."""
    s = standardized_matrix(u.matrix)
    _, sv, vt = np.linalg.svd(np.vstack([s.real - np.eye(len(s)), s.imag]), full_matrices=False)
    basis = vt[sv < 1e-8 * u.n].reshape(-1, u.n, u.n) / np.abs(u.matrix)
    return list(basis.astype(complex))


class TestEigenspaceOfOne:
    def test_contains_sum_symbols(self):
        u = haar_random_unitary(4, seed=4)
        b, space = berezin_and_space(u)
        fixed = fixed_symbols(u)
        assert len(fixed) == 7
        for f in e_subspace_basis(4):
            # reconstruct f from the orthonormal basis
            proj = sum(space.inner(f, v) * v for v in fixed)
            assert space.norm(f - proj) < 1e-8

    def test_fourier_prime_span_equals_e(self):
        u = fourier_matrix(3)
        fixed = fixed_symbols(u)
        assert len(fixed) == 5
        e_cols = np.stack([f.ravel() for f in e_subspace_basis(3)], axis=1)
        v_cols = np.stack([v.ravel() for v in fixed], axis=1)
        both = np.concatenate([e_cols, v_cols], axis=1)
        assert np.linalg.matrix_rank(both, tol=1e-8) == 5

    def test_orthonormal_in_weighted_product(self):
        u = haar_random_unitary(3, seed=5)
        b, space = berezin_and_space(u)
        fixed = fixed_symbols(u)
        gram = np.array([[space.inner(f, g) for g in fixed] for f in fixed])
        np.testing.assert_allclose(gram, np.eye(len(fixed)), atol=1e-10)

    def test_conjugates_stay_in_eigenspace(self):
        u = haar_random_unitary(3, seed=6)
        b, space = berezin_and_space(u)
        rng = np.random.default_rng(6)
        for _ in range(5):
            coef = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v = sum(c * f for c, f in zip(coef, fixed_symbols(u)))
            assert space.norm(b.apply(np.conj(v)) - np.conj(v)) < 1e-8

    def test_real_imaginary_split(self):
        # real fixed symbols, and the same symbols times i purely imaginary ones
        u = haar_random_unitary(3, seed=7)
        b, space = berezin_and_space(u)
        fixed = fixed_symbols(u)
        assert len(fixed) == 5
        for f in fixed:
            assert space.norm(b.apply(f) - f) < 1e-8
            assert space.norm(b.apply(1j * f) - 1j * f) < 1e-8


class TestSymmetricFamilyTable:
    def test_n3_theta_i(self):
        # clusters come in table order: fixed, the two rational values,
        # conj(theta), -conj(theta)
        values, mults = zip(*predicted_clusters(3, 1j))
        np.testing.assert_allclose(
            values, [1.0, (-4 - 3j) / 5, (-3 + 4j) / 5, -1j, 1j], atol=1e-12
        )
        # n = 3 leaves the symmetric traceless cluster empty
        assert mults == (5, 1, 2, 1, 0)
        assert verify_symmetric_family_spectrum(3, 1j) is True

    def test_n4_multiplicities(self):
        mults = sorted(m for _, m in predicted_clusters(4, 1j))
        assert mults == [1, 2, 3, 3, 7]
        assert sum(mults) == 16
        assert verify_symmetric_family_spectrum(4, 1j) is True

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("theta", [1j, np.exp(2.3j)])
    def test_multiplicity_of_one_is_always_2n_minus_1(self, n, theta):
        s = spectrum(symmetric_family_matrix(n, theta))
        assert s.multiplicity_of_one == 2 * n - 1
        assert verify_symmetric_family_spectrum(n, theta) is True

    @pytest.mark.parametrize("n", [3, 4, 12])
    def test_colliding_predictions_merge(self, n):
        # at Re theta = -1/(n-1) the singleton value equals conj(theta), so
        # two predicted clusters are one computed cluster
        theta = complex(-1 / (n - 1), np.sqrt(1 - 1 / (n - 1) ** 2))
        values = [v for v, _ in predicted_clusters(n, theta)]
        assert abs(values[1] - values[3]) < 1e-12
        assert verify_symmetric_family_spectrum(n, theta) is True

    @staticmethod
    def _patch_spectrum(monkeypatch, change):
        def patched(u):
            summary = spectrum(u)
            change(summary)
            return summary

        monkeypatch.setattr(symmetry, "spectrum", patched)

    def test_kernel_count_enters_verdict(self, monkeypatch):
        def add_one(summary):
            summary.multiplicity_of_one += 1

        self._patch_spectrum(monkeypatch, add_one)
        assert verify_symmetric_family_spectrum(3, 1j) is False

    @pytest.mark.parametrize("angle, holds", [(5e-9, True), (2e-8, False)])
    def test_moved_eigenvalue(self, monkeypatch, angle, holds):
        # an eigenvalue of the fixed cluster rotated past CLUSTER_TOL leaves
        # it one short and opens a cluster with no prediction
        def rotate_one(summary):
            i = np.argmin(np.abs(summary.eigenvalues - 1.0))
            summary.eigenvalues[i] *= np.exp(1j * angle)

        self._patch_spectrum(monkeypatch, rotate_one)
        assert verify_symmetric_family_spectrum(3, 1j) is holds

    def test_degenerate_theta_rejected(self):
        with pytest.raises(ValueError, match="theta must stay away from"):
            verify_symmetric_family_spectrum(3, 1.0)
        with pytest.raises(ValueError, match="theta must stay away from"):
            verify_symmetric_family_spectrum(3, -1.0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="spectrum table needs n >= 3"):
            verify_symmetric_family_spectrum(2, 1j)


def test_fourier_eigenvalues_are_unit_roots():
    n = 5
    s = spectrum(fourier_matrix(n))
    expected = sorted(
        [complex(unit_root(n, (r * s_) % n)) for r in range(n) for s_ in range(n)],
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    got = sorted(map(complex, s.eigenvalues), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert max(abs(a - b) for a, b in zip(expected, got)) < 1e-8
    assert s.multiplicity_of_one == invariant_pair_count(n) == 9


# ---------------------------------------------------------------------------
# the real symmetric structure of the standardized matrix


def fourier_product(*orders):
    """F_{a1} x ... x F_{ar}, the Fourier matrix of Z_{a1} x ... x Z_{ar}."""
    f = np.ones((1, 1))
    for a in orders:
        f = np.kron(f, fourier_matrix(a).matrix)
    return f


def perturbed(f, eps):
    """The unitary f left-multiplied by exp(eps X), X the skew part of a
    seeded complex Gaussian: near-degenerate spectra."""
    n = len(f)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lam, v = np.linalg.eigh(-1j * (g - g.conj().T) / 2)
    return validate_unitary((v * np.exp(1j * eps * lam)) @ v.conj().T @ f)


def f2_cubed_perturbed(eps):
    """F2 x F2 x F2 (kernel 36 at n = 8) with real entries, perturbed by
    eps."""
    f2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    return perturbed(np.kron(np.kron(f2, f2), f2), eps)


def singular_values_of_s_minus_one(u, value=1.0):
    """The singular values of S - value I, the distances |lambda - value|."""
    s = standardized_matrix(u.matrix)
    return np.linalg.svd(s - value * np.eye(len(s)), compute_uv=False)


def svd_count(u, value=1.0):
    """The oracle for the multiplicity of value (of 1 unless given):
    singular values of S - value I counted by the package's rank rule."""
    return spectral.kernel_dim(singular_values_of_s_minus_one(u, value))


STRUCTURED = {
    "haar5": lambda: haar_random_unitary(5, seed=11),
    "F4": lambda: fourier_matrix(4),
    "F6": lambda: fourier_matrix(6),
    "F12": lambda: fourier_matrix(12),
    "symmetric8": lambda: symmetric_family_matrix(8, np.exp(0.7j)),
    "symmetric16": lambda: symmetric_family_matrix(16, np.exp(2.1j)),
    # eigenvalue 1 and the pencil's spurious point share its zero: the run
    # solve in one spectrum
    "symmetric8 theta=e^-i": lambda: symmetric_family_matrix(8, np.exp(-1j)),
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
    reference = np.linalg.eigvals(standardized_matrix(u.matrix))
    assert max_pairing_distance(spectrum(u).eigenvalues, reference) <= 1e-12


class TestStandardizedMatrix:
    @pytest.mark.parametrize("name", ["haar5", "F4", "symmetric8", "F2^3 eps=1e-07"])
    def test_equals_weighted_conjugate_of_both_constructions(self, name):
        u = STRUCTURED[name]()
        s = standardized_matrix(u.matrix)
        w = np.abs(u.matrix).ravel()
        composed = w[:, None] * berezin_from_composition(u) / w[None, :]
        np.testing.assert_allclose(s, composed, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", ["haar5", "F6", "symmetric8", "F2^3 eps=3e-08"])
    def test_symmetric_unitary_with_commuting_real_parts(self, name):
        s = standardized_matrix(STRUCTURED[name]().matrix)
        x, y = s.real, s.imag
        eye = np.eye(len(s))
        assert np.max(np.abs(s - s.T)) <= 1e-12
        assert np.max(np.abs(s @ s.conj().T - eye)) <= 1e-12
        assert np.max(np.abs(x @ y - y @ x)) <= 1e-12
        assert np.max(np.abs(x @ x + y @ y - eye)) <= 1e-12

    def test_never_reads_dense_matrix(self):
        b = build_berezin(haar_random_unitary(4, seed=12))
        b.apply(np.eye(16).reshape(16, 4, 4))  # every unit symbol at once
        assert vars(b).keys() == {"u", "n"}  # no dense matrix is kept on the transform


class TestJacobianOnTheScaleOfS:
    """The |u|-scaled Jacobian in the orthonormal skew-Hermitian basis has
    the singular values of S - I, index by index, so both pipelines rank
    the same numbers against the same threshold."""

    @pytest.mark.parametrize("u", [
        *(haar_random_unitary(n, seed=[31, n]) for n in (3, 4, 8, 16)),
        *(fourier_matrix(n) for n in (4, 6, 8)),
        f2_cubed_perturbed(0.0),
    ], ids=["haar3", "haar4", "haar8", "haar16", "F4", "F6", "F8", "F2^3"])
    def test_singular_values_match_kernel_svd(self, u):
        jac = submersion._jacobians(u.matrix[np.newaxis])[0]
        jacobian = np.sort(np.linalg.svd(jac, compute_uv=False))
        berezin = np.sort(singular_values_of_s_minus_one(u))
        np.testing.assert_allclose(jacobian, berezin, rtol=0, atol=1e-12)
        # the Haar samples are certified and list no values; the others
        # fall back, and their reports list the same ones
        report = jacobian_report(u)
        assert report.certified == (spectral.kernel_dim(berezin) == 2 * u.n - 1)
        if not report.certified:
            np.testing.assert_allclose(np.sort(report.singular_values), berezin,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("u", [
        *(fourier_matrix(n) for n in range(1, 17)),
        *(validate_unitary(fourier_product(*orders))
          for orders in ((2, 2, 2), (4, 4), (2, 2, 2, 2), (2, 3), (3, 3))),
        *(symmetric_family_matrix(n, np.exp(1j * angle))
          for n in (3, 5, 8, 12) for angle in (-1.4, -1.0, 0.7, 2.1)),
    ], ids=[*(f"F{n}" for n in range(1, 17)), "F2^3", "F4^2", "F2^4", "F2xF3", "F3^2",
            *(f"symmetric{n} angle={a}" for n in (3, 5, 8, 12) for a in (-1.4, -1.0, 0.7, 2.1))])
    def test_certificate_exactly_where_the_svd_counts_2n_minus_1(self, u):
        # the Cholesky certificate never passes above the generic count,
        # and every verdict is the SVD's
        report = jacobian_report(u)
        jac = submersion._jacobians(u.matrix[np.newaxis])[0]
        kernel = spectral.kernel_dim(np.linalg.svd(jac, compute_uv=False))
        assert (report.rank, report.kernel_dim, report.berezin_multiplicity_of_one) == (
            u.n**2 - kernel, kernel, kernel)
        assert report.certified == (kernel == 2 * u.n - 1)

    @pytest.mark.parametrize("eps, kernel", [(1e-6, 15), (3e-7, 15), (3e-8, 17), (1e-9, 36)])
    def test_counts_agree_near_f2_cubed(self, eps, kernel):
        # the singular values next to the rank threshold lie a factor 1.28 or
        # more from it; ranked unscaled, the Jacobian counted 20 at eps = 3e-8
        report = jacobian_report(f2_cubed_perturbed(eps))
        assert report.kernel_dim == report.berezin_multiplicity_of_one == kernel
        assert report.theorem_holds


class TestPencilCount:
    """The multiplicity of 1 from the pencil, or from the eigenvalues where
    the pencil does not count 2n - 1, equals the count of small singular
    values of S - I."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        u = haar_random_unitary(n, seed=seed)
        assert eigenvalue_multiplicities(u.matrix) == svd_count(u)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_fourier(self, n):
        u = fourier_matrix(n)
        assert eigenvalue_multiplicities(u.matrix) == svd_count(u) == invariant_pair_count(n)

    @pytest.mark.parametrize("orders, kernel", [
        ((2, 2, 2), 36), ((4, 4), 88), ((2, 2, 2, 2), 136), ((2, 3), 15), ((3, 3), 33),
    ], ids=str)
    def test_fourier_products(self, orders, kernel):
        u = validate_unitary(fourier_product(*orders))
        assert eigenvalue_multiplicities(u.matrix) == svd_count(u) == kernel

    @pytest.mark.parametrize("eps", [
        10.0**k * m for k in range(-11, -3) for m in (1, 3)] + [1e-3])
    @pytest.mark.parametrize("orders", [(2, 2, 2), (4,), (6,)], ids=str)
    def test_epsilon_scan(self, orders, eps):
        u = perturbed(fourier_product(*orders), eps)
        assert eigenvalue_multiplicities(u.matrix) == spectrum(u).multiplicity_of_one == svd_count(u)

    def test_eigenvalues_at_a_spurious_point(self):
        # the pencil vanishes on the 3 eigenvectors of -e^{2 i phi} as on
        # the 5 of 1; the eigenvalues of S tell them apart
        spurious = -np.exp(2j * PENCIL_ANGLE)
        rng = np.random.default_rng(17)
        lam = np.concatenate([np.ones(5), np.full(3, spurious),
                              np.exp(1j * np.array([0.4, 1.9, 2.6, -0.9, -1.6, -2.2, 3.0, 1.1]))])
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        s = (q * lam) @ q.T
        assert spectral._multiplicity(s) == 5
        assert spectral._multiplicity(s[np.newaxis].repeat(2, axis=0)) == [5, 5]

    def test_eigenspace_of_f2_cubed(self):
        u = validate_unitary(fourier_product(2, 2, 2))
        b, space = berezin_and_space(u)
        fixed = fixed_symbols(u)
        assert len(fixed) == 36
        for f in fixed:
            assert np.max(np.abs(f.imag)) == 0.0
            assert space.norm(b.apply(f) - f) < 1e-10
        gram = np.array([[space.inner(f, g) for g in fixed] for f in fixed])
        np.testing.assert_allclose(gram, np.eye(36), atol=1e-10)


def first_pencil_count(s):
    """The pencil's count of small eigenvalues, for S or each S of a stack,
    before any count from the eigenvalues."""
    mu = np.linalg.eigvalsh(spectral._pencil(s))
    return spectral.kernel_dim(np.abs(mu))


class TestCertificate:
    """The 2n - 1 sum symbols every Berezin transform fixes certify the
    count: one pencil counts the multiplicity of 1 where its count is
    2n - 1, and the eigenvalues of S, from one eigh, count it only where it
    is not."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        solve = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.fixture
    def solves(self, monkeypatch):
        return self._count(monkeypatch, "eigvalsh")

    @pytest.fixture
    def eigh_solves(self, monkeypatch):
        return self._count(monkeypatch, "eigh")

    @pytest.fixture
    def factorizations(self, monkeypatch):
        return self._count(monkeypatch, "cholesky")

    def test_one_solve_for_haar(self, solves, eigh_solves, factorizations):
        assert eigenvalue_multiplicities(haar_random_unitary(16, seed=18).matrix) == 31
        assert solves == [(256, 256)]
        assert eigh_solves == factorizations == []

    @pytest.mark.parametrize("n", range(2, 17))
    def test_one_solve_for_fourier(self, n, solves, eigh_solves, factorizations):
        # a prime n gives 2n - 1 from one solve; a composite n has more
        # fixed symbols, and its count takes the eigenvalues of S
        kernel = invariant_pair_count(n)
        assert eigenvalue_multiplicities(fourier_matrix(n).matrix) == kernel
        assert solves == [(n * n, n * n)]
        assert eigh_solves == ([] if kernel == 2 * n - 1 else [(n * n, n * n)])
        assert factorizations == []

    @pytest.mark.parametrize("n", [5, 8])
    def test_two_solves_with_eigenvalues_at_the_spurious_point(self, n, solves, eigh_solves,
                                                              factorizations):
        # the symmetric family at theta = e^{-i} has eigenvalues exactly at
        # the pencil's spurious point -e^{i}: one eigvalsh, then one eigh
        assert eigenvalue_multiplicities(symmetric_family_matrix(n, np.exp(-1j)).matrix) == 2 * n - 1
        assert solves == eigh_solves == [(n * n, n * n)]
        assert factorizations == []

    def test_spectrum_runs_one_eigh_for_haar(self, solves, eigh_solves, factorizations):
        # the spectrum's eigenvalues and its count come from one solve
        s = spectrum(haar_random_unitary(16, seed=18))
        assert s.multiplicity_of_one == 31
        assert eigh_solves == [(256, 256)]
        assert solves == factorizations == []

    @pytest.mark.parametrize("n", [5, 8])
    def test_spectrum_with_eigenvalues_at_the_spurious_point(self, n, solves, eigh_solves,
                                                             factorizations):
        # eigenvalues at the spurious point do not enter a count taken from
        # the eigenvalues, so no eigvalsh runs
        s = spectrum(symmetric_family_matrix(n, np.exp(-1j)))
        assert s.multiplicity_of_one == 2 * n - 1
        assert eigh_solves == [(n * n, n * n)]
        assert solves == factorizations == []

    @pytest.mark.parametrize("seed", [2138, 2502, 3717, 3953])
    def test_uncertified_haar_n16(self, seed, solves, eigh_solves, factorizations):
        # Haar samples at the benchmark's n with an eigenvalue within 1.4e-5
        # of the pencil's spurious point, the margin a Cholesky
        # certificate once needed: their count of 2n - 1 = 31 is certified
        # by itself, from one solve
        u = haar_random_unitary(16, seed=seed)
        assert eigenvalue_multiplicities(u.matrix) == 31
        assert solves == [(256, 256)]
        solves.clear()
        summary = spectrum(u)
        assert summary.multiplicity_of_one == 31
        assert eigh_solves == [(256, 256)]
        assert solves == factorizations == []

    def test_batched_solve_refactors_only_uncertified(self, solves, eigh_solves, factorizations):
        # one sample in a stack of three counts more than 2n - 1 and runs
        # one eigh, on that sample alone
        m = np.stack([haar_random_unitary(5, seed=19).matrix,
                      symmetric_family_matrix(5, np.exp(-1j)).matrix,
                      fourier_matrix(5).matrix])
        assert spectral.eigenvalue_multiplicities(m) == [9, 9, 9]
        assert solves == [(3, 25, 25)]
        assert eigh_solves == [(25, 25)]
        assert factorizations == []

    @pytest.mark.parametrize("d", [0.0, 1e-7, 1e-5, 2e-5, 1e-3])
    def test_eigenvalue_near_the_spurious_point(self, d):
        # S = Q diag(e^{i theta}) Q^T with 9 eigenvalues at 1 and one at
        # distance d along the circle from the spurious point z
        z = -np.exp(2j * PENCIL_ANGLE)
        rng = np.random.default_rng(20)
        lam = np.concatenate([np.ones(9), [z * np.exp(1j * d)],
                              np.exp(1j * rng.uniform(-3.0, 3.0, 54))])
        q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        s = (q * lam) @ q.T
        oracle = int(np.sum(np.linalg.svd(s - np.eye(64), compute_uv=False) < 1e-8 * 8))
        assert spectral._multiplicity(s) == oracle == 9

    @pytest.mark.parametrize("d, eighs_run", [(0.0, 1), (1e-5, 0)])
    def test_fixed_count_with_an_eigenvalue_near_the_spurious_point(self, d, eighs_run, solves,
                                                                    eigh_solves):
        # 2n - 1 = 15 eigenvalues at 1 and one at z e^{id}: at d = 0 the
        # pencil counts 16 and the eigenvalues of S correct it; at d = 1e-5
        # that eigenvalue's pencil value, about d, is far above the
        # threshold 1e-8 and the count of 15 stands alone
        z = -np.exp(2j * PENCIL_ANGLE)
        rng = np.random.default_rng(21)
        lam = np.concatenate([np.ones(15), [z * np.exp(1j * d)],
                              np.exp(1j * rng.uniform(-3.0, 3.0, 48))])
        q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        s = (q * lam) @ q.T
        assert spectral._multiplicity(s) == 15
        assert len(solves) == 1
        assert len(eigh_solves) == eighs_run

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_haar_n16(self, seed):
        u = haar_random_unitary(16, seed=seed)
        assert eigenvalue_multiplicities(u.matrix) == svd_count(u)


class TestFirstPencilCountsTheFixedSymbols:
    """The premise of the count: the first pencil counts at least the
    2n - 1 directions of the sum symbols, which every Berezin transform
    fixes, on every input the tool meets."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        s = standardized_matrix(haar_random_unitary(n, seed=seed).matrix)
        assert first_pencil_count(s) >= 2 * n - 1

    @pytest.mark.parametrize("orders", [
        *((n,) for n in range(2, 17)), (2, 2, 2), (4, 4), (2, 2, 2, 2), (2, 3), (3, 3),
    ], ids=str)
    def test_fourier(self, orders):
        f = fourier_product(*orders)
        assert first_pencil_count(standardized_matrix(f)) >= 2 * len(f) - 1

    @pytest.mark.parametrize("angle", [-1.4, -1.0, -0.3, 0.7, 1.0, 1.4, 2.1])
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_symmetric_family(self, n, angle):
        s = standardized_matrix(symmetric_family_matrix(n, np.exp(1j * angle)).matrix)
        assert first_pencil_count(s) >= 2 * n - 1


class TestSpectrumCountAgainstPencilCount:
    """spectrum counts the multiplicity of 1 from its own eigenvalues, and
    eigenvalue_multiplicities from eigvalsh of the pencil where that counts
    2n - 1: both give the count of small singular values of S - I."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        u = haar_random_unitary(n, seed=seed)
        assert spectrum(u).multiplicity_of_one == eigenvalue_multiplicities(u.matrix) == svd_count(u)

    @pytest.mark.parametrize("u", [
        *(haar_random_unitary(16, seed=seed) for seed in (18, 2138, 2502, 3717, 3953)),
        *(symmetric_family_matrix(n, np.exp(-1j)) for n in (5, 8)),
    ], ids=["haar16 seed=18", "haar16 seed=2138", "haar16 seed=2502", "haar16 seed=3717",
            "haar16 seed=3953", "symmetric5 theta=e^-i", "symmetric8 theta=e^-i"])
    def test_certificate_cases(self, u):
        assert spectrum(u).multiplicity_of_one == eigenvalue_multiplicities(u.matrix) == svd_count(u)


class TestEigenvaluesAgainstEigvals:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        assert_matches_eigvals(haar_random_unitary(n, seed=seed))

    @pytest.mark.parametrize("name", [k for k in STRUCTURED if k != "haar5"])
    def test_structured(self, name):
        assert_matches_eigvals(STRUCTURED[name]())

    def test_shared_pencil_value_takes_the_run_solve(self, monkeypatch):
        """Two distinct eigenvalues a + ib with the same b + t (1 - a),
        t = tan(PENCIL_ANGLE), share one eigenvalue of the pencil;
        the columns eigh returns for it mix their eigenvectors, and the
        run's small eigvals recovers both."""
        rng = np.random.default_rng(13)
        # angles summing to pi + 2 PENCIL_ANGLE give the same
        # 2 sin(theta/2) cos(theta/2 - phi) / cos(phi)
        angles = np.array([0.3, 0.3, np.pi + 0.7, 2.9, -1.2, 1.7, 0.8, 2.2])
        lam = np.exp(1j * angles)
        t = np.tan(PENCIL_ANGLE)
        assert abs((lam[0].imag + t * (1 - lam[0].real)) - (lam[2].imag + t * (1 - lam[2].real))) < 1e-15
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        s = (q * lam) @ q.T
        shapes = []
        real_eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: shapes.append(a.shape) or real_eigvals(a))
        got = spectral._eigenvalues(s)
        assert shapes == [(3, 3)]
        assert max_pairing_distance(got, lam) <= 1e-12
        assert spectral.kernel_dim(np.abs(got - 1.0)) == 0

    def test_no_eigvals_on_the_full_matrix(self, monkeypatch):
        shapes = []
        real_eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: shapes.append(a.shape) or real_eigvals(a))
        spectrum(haar_random_unitary(6, seed=14))
        assert (36, 36) not in shapes


class TestClusterEigenvalues:
    def test_labels_index_the_clusters(self):
        values = np.exp(1j * np.array([0.0, 2.0, 1e-12, 2.0 + 1e-12, -1.0, 0.0]))
        clusters, ids = cluster_eigenvalues(values)
        assert sorted(m for _, m in clusters) == [1, 2, 3]
        for z, i in zip(values, ids):
            assert abs(clusters[i][0] - z) <= 1e-8
        assert [clusters[i][1] for i in ids] == [3, 2, 3, 2, 1, 3]

    def test_wrap_around_merge_relabels(self):
        values = np.array([-1 + 1e-10j, 1.0, -1 - 1e-10j])
        clusters, ids = cluster_eigenvalues(values)
        assert len(clusters) == 2
        assert ids[0] == ids[2] != ids[1]
        assert clusters[ids[0]][1] == 2

    @pytest.mark.parametrize("im", [0.0, 1e-32])
    def test_order_at_minus_one_ignores_the_sign_of_its_imaginary_part(self, im):
        # np.angle puts -1 + 0j at pi and -1 - 0j at -pi
        above = cluster_eigenvalues(np.array([1, complex(-1, im)]))
        below = cluster_eigenvalues(np.array([1, complex(-1, -im)]))
        np.testing.assert_allclose([rep for rep, _ in above[0]], [rep for rep, _ in below[0]])
        assert above[1].tolist() == below[1].tolist()


class TestClusterAtOne:
    """The values the rank rule counts at 1, |lambda - 1| < CLUSTER_TOL,
    form one cluster, so its size is the multiplicity of 1."""

    @settings(max_examples=200, deadline=None)
    @given(near=st.lists(st.tuples(st.floats(0.0, 3 * CLUSTER_TOL, exclude_min=True,
                                             exclude_max=True), st.booleans()),
                         min_size=1, max_size=12),
           others=st.lists(st.floats(-np.pi, np.pi), max_size=12))
    def test_values_below_the_threshold_form_one_cluster(self, near, others):
        # unit-circle values at distances in (0, 3 tau) on both sides of 1
        angles = [2 * np.arcsin(d / 2) * (1 if above else -1) for d, above in near]
        values = np.exp(1j * np.array(angles + others))
        clusters, ids = cluster_eigenvalues(values)
        at_one = np.abs(values - 1.0) < CLUSTER_TOL
        if at_one.any():
            (one,) = set(ids[at_one].tolist())
            assert clusters[one][1] == spectral.kernel_dim(np.abs(values - 1.0))
            assert abs(clusters[one][0] - 1.0) < CLUSTER_TOL
        else:
            one = None
        assert all(abs(rep - 1.0) >= CLUSTER_TOL
                   for k, (rep, _) in enumerate(clusters) if k != one)
        assert np.bincount(ids, minlength=len(clusters)).tolist() == [m for _, m in clusters]

    @pytest.mark.parametrize("eps, kernel", [(3e-9, 30), (1e-8, 20)])
    def test_near_f2_cubed(self, eps, kernel):
        # greedy clustering at the rank threshold once put 32 and 21 values
        # in the cluster at 1, and the spectrum failed its own check
        u = f2_cubed_perturbed(eps)
        s = spectrum(u)
        s.check()
        assert s.multiplicity_of_one == eigenvalue_multiplicities(u.matrix) == svd_count(u) == kernel
        at_one = np.abs(s.eigenvalues - 1.0) < CLUSTER_TOL
        (one,) = set(s.cluster_ids[at_one].tolist())
        assert s.clusters[one][1] == kernel
