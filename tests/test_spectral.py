import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin_lab import (
    WeightedSpace,
    berezin_from_composition,
    build_berezin,
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
    predicted_clusters,
    symmetric_family_matrix,
    unit_root,
    verify_symmetric_family_spectrum,
)
from references import e_subspace_basis, invariant_pair_count


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
    singular values are |lambda - 1|, ranked by the package's rule; its
    basis is divided by |u|."""
    s = standardized_matrix(u.matrix)
    _, sv, vt = np.linalg.svd(np.vstack([s.real - np.eye(len(s)), s.imag]), full_matrices=False)
    basis = vt[len(sv) - spectral.kernel_dim(sv):].reshape(-1, u.n, u.n) / np.abs(u.matrix)
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


def near_direct_sum(a, b, eps):
    """Haar U_1 (+) U_2 of sizes a and b, left-multiplied by exp(eps X) as
    in perturbed: a unitary near a direct sum."""
    blocks = np.zeros((a + b, a + b), dtype=complex)
    blocks[:a, :a] = haar_random_unitary(a, seed=[41, a]).matrix
    blocks[a:, a:] = haar_random_unitary(b, seed=[42, b]).matrix
    return perturbed(blocks, eps)


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


def assert_count(u):
    """eigenvalue_multiplicities counts what the SVD of S - I counts, and
    its certificate passes only on the generic count 2n - 1.  Returns
    whether it passed."""
    count, certified = eigenvalue_multiplicities(u.matrix)
    kernel = svd_count(u)
    assert count == kernel
    assert kernel == 2 * u.n - 1 or not certified
    return certified


class TestCount:
    """The multiplicity of 1, certified or taken from the eigenvalues of S,
    equals the count of small singular values of S - I, and the certificate
    never passes above the generic count."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        # a sample with an eigenvalue within the margin of 1, about 1 in
        # 40,000 at n = 8, falls back
        assert_count(haar_random_unitary(n, seed=seed))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_fourier(self, n):
        # a prime n (and n = 1) has the generic count, certified; a
        # composite n has more fixed symbols and takes the eigenvalues
        u = fourier_matrix(n)
        kernel = invariant_pair_count(n)
        assert eigenvalue_multiplicities(u.matrix) == (kernel, kernel == 2 * n - 1)
        assert svd_count(u) == kernel

    @pytest.mark.parametrize("orders, kernel", [
        ((2, 2, 2), 36), ((4, 4), 88), ((2, 2, 2, 2), 136), ((2, 3), 15), ((3, 3), 33),
    ], ids=str)
    def test_fourier_products(self, orders, kernel):
        u = validate_unitary(fourier_product(*orders))
        assert eigenvalue_multiplicities(u.matrix) == (kernel, False)
        assert svd_count(u) == kernel

    @pytest.mark.parametrize("eps", [
        10.0**k * m for k in range(-11, -3) for m in (1, 3)] + [1e-3])
    @pytest.mark.parametrize("orders", [(2, 2, 2), (4,), (6,)], ids=str)
    def test_epsilon_scan(self, orders, eps):
        u = perturbed(fourier_product(*orders), eps)
        assert_count(u)
        assert eigenvalue_multiplicities(u.matrix)[0] == spectrum(u).multiplicity_of_one

    @pytest.mark.parametrize("angle", [-1.4, -1.0, -0.3, 0.7, 1.0, 1.4, 2.1])
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_symmetric_family(self, n, angle):
        # every angle certifies 2n - 1, the one at the pencil's spurious
        # point e^{-i} too
        assert assert_count(symmetric_family_matrix(n, np.exp(1j * angle)))

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


def eigenvalues_of(s, monkeypatch):
    """spectral._eigenvalues of the symmetric unitary s, which need be the
    S of no unitary matrix: standardized_matrix is patched to return it."""
    monkeypatch.setattr(spectral, "standardized_matrix", lambda m: s)
    return spectral._eigenvalues(None)


def eigenvalue_count(s, monkeypatch):
    """The count of the eigenvalues of S, the certificate's fallback."""
    return spectral.kernel_dim(np.abs(eigenvalues_of(s, monkeypatch) - 1.0))


class TestEigenvalueCount:
    """Where the certificate fails, the count is the rank rule's on the
    eigenvalues of S, which the pencil's spurious point does not move."""

    def test_eigenvalues_at_a_spurious_point(self, monkeypatch):
        # the pencil vanishes on the 3 eigenvectors of -e^{2 i phi} as on
        # the 5 of 1; the eigenvalues of S tell them apart
        spurious = -np.exp(2j * PENCIL_ANGLE)
        rng = np.random.default_rng(17)
        lam = np.concatenate([np.ones(5), np.full(3, spurious),
                              np.exp(1j * np.array([0.4, 1.9, 2.6, -0.9, -1.6, -2.2, 3.0, 1.1]))])
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        assert eigenvalue_count((q * lam) @ q.T, monkeypatch) == 5

    @pytest.mark.parametrize("d", [0.0, 1e-7, 1e-5, 2e-5, 1e-3])
    def test_eigenvalue_near_the_spurious_point(self, d, monkeypatch):
        # S = Q diag(e^{i theta}) Q^T with 9 eigenvalues at 1 and one at
        # distance d along the circle from the spurious point z
        z = -np.exp(2j * PENCIL_ANGLE)
        rng = np.random.default_rng(20)
        lam = np.concatenate([np.ones(9), [z * np.exp(1j * d)],
                              np.exp(1j * rng.uniform(-3.0, 3.0, 54))])
        q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        s = (q * lam) @ q.T
        oracle = spectral.kernel_dim(np.linalg.svd(s - np.eye(64), compute_uv=False))
        assert eigenvalue_count(s, monkeypatch) == oracle == 9


class TestCertificate:
    """One Cholesky factorization of 2 (I - X) + V V^T, V spanning the
    2n - 1 sum symbols every Berezin transform fixes, certifies the generic
    count, and the eigenvalues of S, from one eigh, count only where it
    fails; no path runs eigvalsh, and the certificate runs no QR."""

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

    @pytest.fixture
    def orthonormalizations(self, monkeypatch):
        return self._count(monkeypatch, "qr")

    def test_one_factorization_for_haar(self, solves, eigh_solves, factorizations,
                                        orthonormalizations):
        u = haar_random_unitary(16, seed=18)
        orthonormalizations.clear()  # the draw's own
        assert eigenvalue_multiplicities(u.matrix) == (31, True)
        assert factorizations == [(1, 256, 256)]
        assert solves == eigh_solves == orthonormalizations == []

    @pytest.mark.parametrize("n", range(2, 17))
    def test_fourier(self, n, solves, eigh_solves, factorizations):
        # a prime n is certified by one factorization; a composite n has
        # more fixed symbols, fails it, and its count takes one eigh
        kernel = invariant_pair_count(n)
        generic = kernel == 2 * n - 1
        assert eigenvalue_multiplicities(fourier_matrix(n).matrix) == (kernel, generic)
        assert factorizations == [(1, n * n, n * n)]
        assert eigh_solves == ([] if generic else [(n * n, n * n)])
        assert solves == []

    @pytest.mark.parametrize("n", [5, 8])
    def test_eigenvalues_at_the_spurious_point(self, n, solves, eigh_solves, factorizations):
        # the symmetric family at theta = e^{-i} has eigenvalues exactly at
        # the pencil's spurious point -e^{i}, which the certificate does
        # not see: one factorization, and no eigh
        m = symmetric_family_matrix(n, np.exp(-1j)).matrix
        assert eigenvalue_multiplicities(m) == (2 * n - 1, True)
        assert factorizations == [(1, n * n, n * n)]
        assert solves == eigh_solves == []

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
        # the eigenvalues
        s = spectrum(symmetric_family_matrix(n, np.exp(-1j)))
        assert s.multiplicity_of_one == 2 * n - 1
        assert eigh_solves == [(n * n, n * n)]
        assert solves == factorizations == []

    @pytest.mark.parametrize("seed", [2138, 2502, 3717, 3953])
    def test_haar_n16_near_the_spurious_point(self, seed, solves, eigh_solves, factorizations):
        # Haar samples at the benchmark's n with an eigenvalue within 1.4e-5
        # of the pencil's spurious point: the certificate gives 31 from one
        # factorization, and spectrum counts 31 from one eigh
        u = haar_random_unitary(16, seed=seed)
        assert eigenvalue_multiplicities(u.matrix) == (31, True)
        assert factorizations == [(1, 256, 256)]
        assert solves == eigh_solves == []
        factorizations.clear()
        summary = spectrum(u)
        assert summary.multiplicity_of_one == 31
        assert eigh_solves == [(256, 256)]
        assert solves == factorizations == []

    def test_stack_refactors_and_solves_only_the_failing_sample(self, solves, eigh_solves,
                                                               factorizations):
        # F4 has 8 > 2n - 1 fixed symbols: the stack's factorization fails,
        # each sample is factored on its own, and F4 alone runs eigh
        m = np.stack([haar_random_unitary(4, seed=19).matrix, fourier_matrix(4).matrix,
                      symmetric_family_matrix(4, np.exp(-1j)).matrix])
        assert spectral.eigenvalue_multiplicities(m) == ([7, 8, 7], [True, False, True])
        assert factorizations == [(3, 16, 16), (16, 16), (16, 16), (16, 16)]
        assert eigh_solves == [(16, 16)]
        assert solves == []

    @pytest.mark.parametrize("eps, certified", [(1e-6, False), (1e-5, False), (1e-4, True)])
    def test_margin(self, eps, certified, eigh_solves):
        # F2 x F2 x F2 perturbed by eps has the generic count 15, and S - I
        # a 16th singular value of about 0.12 eps: below the margin
        # sqrt(c) = 1.42e-6 at n = 8, the certificate fails and one eigh
        # counts 15; above it, the certificate gives 15
        u = f2_cubed_perturbed(eps)
        assert 0.12 * eps < np.sort(singular_values_of_s_minus_one(u))[15] < 0.13 * eps
        eigh_solves.clear()  # the perturbation's own
        assert eigenvalue_multiplicities(u.matrix) == (15, certified)
        assert eigh_solves == ([] if certified else [(64, 64)])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_haar_n16(self, seed):
        assert_count(haar_random_unitary(16, seed=seed))


def planted_stack(seed, p, count):
    """count random symmetric p x p matrices, each with one eigenvalue
    planted near CLUSTER_TOL^2 (log-uniform from 1e-18 to 1e-11, of either
    sign) and the others in [0.5, 2], and an upper bound on each one's
    shift at slack 0."""
    rng = np.random.default_rng([50, seed, p])
    least = rng.choice([-1.0, 1.0, 1.0, 1.0], count) * 10.0 ** rng.uniform(-18.0, -11.0, count)
    q = np.linalg.qr(rng.standard_normal((count, p, p)))[0]
    values = np.concatenate([least[:, np.newaxis], rng.uniform(0.5, 2.0, (count, p - 1))], axis=1)
    g = (q * values[:, np.newaxis, :]) @ np.swapaxes(q, -1, -2)
    g = (g + np.swapaxes(g, -1, -2)) / 2.0
    # (gamma_{p+1} / (1 - gamma_{p+1}) + u) is under 1.01 (p + 2) u
    shift = 2.0 * 1.01 * (p + 2) * 2.0**-53 * np.trace(g, axis1=-2, axis2=-1) + CLUSTER_TOL**2
    return g, shift


class TestCertifiedKernel:
    """The one certificate both pipelines run, held to eigvalsh: it never
    certifies a matrix whose least eigenvalue lies below CLUSTER_TOL^2,
    always certifies one whose least eigenvalue is at least twice the
    shift, and never certifies a residual at or above CLUSTER_TOL
    sqrt(floor)."""

    @pytest.mark.parametrize("p", [1, 2, 5, 16, 40])
    @pytest.mark.parametrize("seed", range(6))
    def test_against_eigvalsh(self, p, seed):
        g, shift = planted_stack(seed, p, 12)
        least = np.linalg.eigvalsh(g)[:, 0]
        certified = spectral.certified_kernel(g.copy(), 0.0, np.zeros(len(g)), 1.0)
        assert not certified[least < CLUSTER_TOL**2].any()
        assert certified[least >= 2.0 * shift].all()
        # the stack's verdicts are its samples' own, whether or not it factors whole
        assert certified.tolist() == [
            spectral.certified_kernel(g[i:i + 1].copy(), 0.0, np.zeros(1), 1.0)[0]
            for i in range(len(g))]

    def test_the_planted_stacks_hold_both_cases(self):
        # the oracle above is not vacuous: each case occurs in its stacks
        least, shifts = [], []
        for p in (1, 2, 5, 16, 40):
            for seed in range(6):
                g, shift = planted_stack(seed, p, 12)
                least.append(np.linalg.eigvalsh(g)[:, 0])
                shifts.append(shift)
        least, shifts = np.concatenate(least), np.concatenate(shifts)
        assert (least < CLUSTER_TOL**2).sum() > 50
        assert (least >= 2.0 * shifts).sum() > 50
        assert ((CLUSTER_TOL**2 <= least) & (least < 2.0 * shifts)).sum() > 50

    @pytest.mark.parametrize("residual, floor, certified", [
        (0.0, 1.0, True), (0.99 * CLUSTER_TOL, 1.0, True), (CLUSTER_TOL, 1.0, False),
        (2.0 * CLUSTER_TOL, 1.0, False), (0.49 * CLUSTER_TOL, 0.25, True),
        (0.5 * CLUSTER_TOL, 0.25, False), (0.0, 0.0, False), (0.0, -1.0, False),
        (1e-30, 1e-300, False),
    ])
    def test_residual_against_the_floor(self, residual, floor, certified):
        # g = I factors with room to spare; the residual alone decides
        g = np.eye(4)[np.newaxis].copy()
        assert spectral.certified_kernel(g, 0.0, np.array([residual]), floor).tolist() == [
            certified]

    def test_slack_raises_the_shift(self):
        # least eigenvalue 1e-6: certified at slack 0, not once the slack
        # exceeds half of it
        g = np.diag([1e-6, 1.0, 1.0])[np.newaxis]
        results = [spectral.certified_kernel(g.copy(), slack, np.zeros(1), 1.0)[0]
                   for slack in (0.0, 4e-7, 6e-7)]
        assert results == [True, True, False]


def sum_symbols(m):
    """V = |u| times the n row indicators and the n column indicators of
    the coordinates (k, l), densely, as an (n^2, 2n) array."""
    n = m.shape[-1]
    eye = np.eye(n)
    w = np.abs(m)[..., np.newaxis]
    v = np.concatenate([w * eye[:, np.newaxis, :], w * eye[np.newaxis, :, :]], axis=-1)
    return v.reshape(n * n, 2 * n)


def sum_symbol_basis(m):
    """V', V without the column indicator of l = 0: the certificate's basis
    of the 2n - 1 sum symbols, densely."""
    return np.delete(sum_symbols(m), m.shape[-1], axis=1)


def certificate_arguments(m):
    """The residual and the floor _multiplicity hands certified_kernel for
    each matrix of the stack m, an upper bound on ||(S(u) - I) V'||_F and
    a lower bound on sigma_min(V')^2, with the factorization and every
    eigenvalue skipped."""
    seen = []

    def recorded(g, slack, residual, floor):
        seen.append((residual, floor))
        return np.ones(len(g), dtype=bool)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "certified_kernel", recorded)
        spectral._multiplicity(m)
    return seen[0]


def sum_symbol_residual(u):
    """||(S - I) V'||_F as the certificate takes it, from u u* and u* u."""
    return certificate_arguments(u.matrix[np.newaxis])[0][0]


class TestSumSymbolsAreFixed:
    """The premise of the certificate: S fixes the 2n - 1 sum symbols to
    rounding, ||(S - I) V'||_F far below CLUSTER_TOL sigma_min(V'), on
    every input the tool meets.  The residual is a bound with its own
    rounding term, sqrt(1 + d) gamma_{2n+1} h as in _multiplicity: the
    bound is 8.5e-14 at most over 3,000 Haar samples at n = 16, and
    9.7e-14 for F_16."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        assert sum_symbol_residual(haar_random_unitary(n, seed=seed)) < 1e-13

    @pytest.mark.parametrize("orders", [
        *((n,) for n in range(2, 17)), (2, 2, 2), (4, 4), (2, 2, 2, 2), (2, 3), (3, 3),
    ], ids=str)
    def test_fourier(self, orders):
        assert sum_symbol_residual(validate_unitary(fourier_product(*orders))) < 1e-13

    @pytest.mark.parametrize("angle", [-1.4, -1.0, -0.3, 0.7, 1.0, 1.4, 2.1])
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_symmetric_family(self, n, angle):
        assert sum_symbol_residual(symmetric_family_matrix(n, np.exp(1j * angle))) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_residual_is_the_dense_norm(self, n):
        # on a u that is no unitary, whose S fixes nothing, the closed form
        # from u u* and u* u gives the dense ||(S - I) V'||_F
        rng = np.random.default_rng([45, n])
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v = sum_symbol_basis(m)
        dense = np.linalg.norm(standardized_matrix(m) @ v - v)
        np.testing.assert_allclose(certificate_arguments(m[np.newaxis])[0], [dense], rtol=1e-13)

    @pytest.mark.parametrize("u", [
        *(haar_random_unitary(n, seed=[46, n]) for n in range(1, 17)),
        *(fourier_matrix(n) for n in range(1, 17)),
        *(symmetric_family_matrix(n, np.exp(1j * a)) for n in (3, 8, 12) for a in (-1.0, 0.7)),
        *(near_direct_sum(2, 2, eps) for eps in (1e-2, 1e-7)),
    ], ids=[*(f"haar{n}" for n in range(1, 17)), *(f"F{n}" for n in range(1, 17)),
            *(f"symmetric{n} angle={a}" for n in (3, 8, 12) for a in (-1.0, 0.7)),
            "2+2 eps=1e-2", "2+2 eps=1e-7"])
    def test_floor_is_at_most_sigma_min(self, u):
        # the closed-form bound never exceeds sigma_min(V')^2 from the SVD
        floor = spectral._sum_symbol_floor(np.abs(u.matrix[np.newaxis]) ** 2)[0]
        least = np.linalg.svd(sum_symbol_basis(u.matrix), compute_uv=False)[-1] ** 2
        assert floor <= least * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_floor_is_exact_for_fourier(self, n):
        m = fourier_matrix(n).matrix
        floor = spectral._sum_symbol_floor(np.abs(m[np.newaxis]) ** 2)[0]
        least = np.linalg.svd(sum_symbol_basis(m), compute_uv=False)[-1] ** 2
        np.testing.assert_allclose([floor, least], 1.0 - np.sqrt(1.0 - 1.0 / n), rtol=1e-12)


def factored(m, monkeypatch):
    """The stack of matrices _multiplicity hands to its factorization for
    the stack of unitaries m, whether each one factored, and the counts
    and flags _multiplicity returns."""
    seen = []
    cholesky = np.linalg.cholesky

    def recorded(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            seen.append((a.copy(), False))
            raise
        seen.append((a.copy(), True))
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    result = spectral._multiplicity(m)
    (stack, whole), samples = seen[0], [ok for _, ok in seen[1:]]
    # a failing stack of more than one sample is factored sample by sample
    return stack, np.array(samples if samples else [whole] * len(m)), result


GRAM_INPUTS = {
    **{f"haar{n}": (lambda n=n: haar_random_unitary(n, seed=[47, n])) for n in range(1, 17)},
    **{f"F{n}": (lambda n=n: fourier_matrix(n)) for n in range(1, 17)},
    **{f"symmetric{n} angle={a}": (lambda n=n, a=a: symmetric_family_matrix(n, np.exp(1j * a)))
       for n in (3, 5, 8, 12, 16) for a in (-1.4, -1.0, 0.7, 2.1)},
}


class TestClosedFormGram:
    """The certificate adds V V^T to -2 X entry by entry; the matrix it
    factors is the dense 2 (I - X) + V V^T less one shift c."""

    @pytest.mark.parametrize("name", GRAM_INPUTS)
    def test_equals_the_dense_formula(self, name, monkeypatch):
        m = GRAM_INPUTS[name]().matrix
        g = factored(m[np.newaxis], monkeypatch)[0][0]
        s = standardized_matrix(m)
        v = sum_symbols(m)
        dense = 2.0 * (np.eye(len(s)) - s.real) + v @ v.T
        off = ~np.eye(len(s), dtype=bool)
        np.testing.assert_array_equal(g[off], dense[off])
        # the diagonal is the dense one less c, to its rounding
        shift = np.diag(dense) - np.diag(g)
        assert CLUSTER_TOL**2 < np.min(shift) and np.max(shift) < 1e-10
        assert np.ptp(shift) <= 8 * 2.0**-52 * np.max(np.abs(np.diag(dense)))

    def test_stack_equals_its_samples(self, monkeypatch):
        m = np.stack([GRAM_INPUTS[name]().matrix for name in ("haar4", "F4")]
                     + [haar_random_unitary(4, seed=[48, i]).matrix for i in range(3)])
        stacked, _, result = factored(m, monkeypatch)
        assert result == ([7, 8, 7, 7, 7], [True, False, True, True, True])
        for i in range(len(m)):
            np.testing.assert_array_equal(stacked[i], factored(m[i:i + 1], monkeypatch)[0][0])

    def test_n1(self, monkeypatch):
        # G = 2 (1 - |u|^2) + 2 |u|^2 = 2, and the one sum symbol is fixed
        m = haar_random_unitary(1, seed=49).matrix[np.newaxis]
        g, _, result = factored(m, monkeypatch)
        assert g.shape == (1, 1, 1) and 2.0 - 1e-12 < g[0, 0, 0] < 2.0
        assert result == ([1], [True])

    @pytest.mark.parametrize("n, eta", [(4, 1e-10), (4, 3e-10), (4, 1e-9),
                                        (16, 3e-11), (16, 1e-10), (16, 3e-10), (16, 1e-9)])
    def test_residual_is_weighed_by_sigma_min(self, n, eta, monkeypatch):
        # (1 + eta) u is no unitary: its S fixes the sum symbols only to
        # about eta, while G still factors.  The certificate passes exactly
        # where ||(S - I) V'||_F < CLUSTER_TOL sigma_min(V'), which at
        # sigma_min(V') of 0.17 to 0.33 is well short of CLUSTER_TOL
        m = haar_random_unitary(n, seed=[44, n]).matrix * (1.0 + eta)
        _, factors, ([count], [certified]) = factored(m[np.newaxis], monkeypatch)
        assert factors.tolist() == [True]
        s = standardized_matrix(m)
        v = sum_symbol_basis(m)
        premise = (np.linalg.norm(s @ v - v)
                   < CLUSTER_TOL * np.linalg.svd(v, compute_uv=False)[-1])
        assert certified == premise
        assert count == spectral.kernel_dim(
            np.linalg.svd(s - np.eye(n * n), compute_uv=False)) == 2 * n - 1


class TestNearDirectSum:
    """Near a direct sum U_1 (+) U_2, P = |u|^2 has a second singular value
    near 1, and V V^T an eigenvalue 1 - sigma_2(P) of order eps^2 on the
    sum symbols, as is the floor on sigma_min(V')^2: below the shift, or
    once the residual's bound, rounding term included, exceeds
    CLUSTER_TOL sqrt(floor), the certificate fails, and the eigenvalues of
    S count 2n - 1.  Measured on a grid of 40 points a decade, the
    certificate declines below eps = 7.9e-7 for 2 + 2, 3.0e-6 for 3 + 5
    and 8.4e-6 for 8 + 8 (3.0e-7, 7.1e-7 and 1.9e-6 before the residual
    took its rounding term)."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    @pytest.mark.parametrize("sizes", [(2, 2), (3, 5), (8, 8)], ids=str)
    def test_count(self, sizes, eps):
        u = near_direct_sum(*sizes, eps)
        certified = assert_count(u)
        assert svd_count(u) == 2 * u.n - 1
        # 1 - sigma_2(P) is 4.2, 7.6 and 15.9 eps^2 here
        gap = 1.0 - np.linalg.svd(np.abs(u.matrix) ** 2, compute_uv=False)[1]
        assert 4.0 * eps**2 < gap < 17.0 * eps**2
        if eps >= 1e-5:
            assert certified
        if eps <= 1e-7:
            assert not certified


class TestSpectrumCountAgainstCertifiedCount:
    """spectrum counts the multiplicity of 1 from its own eigenvalues, and
    eigenvalue_multiplicities by the certificate where it passes: both give
    the count of small singular values of S - I."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        u = haar_random_unitary(n, seed=seed)
        count, _ = eigenvalue_multiplicities(u.matrix)
        assert spectrum(u).multiplicity_of_one == count == svd_count(u)

    @pytest.mark.parametrize("u", [
        *(haar_random_unitary(16, seed=seed) for seed in (18, 2138, 2502, 3717, 3953)),
        *(symmetric_family_matrix(n, np.exp(-1j)) for n in (5, 8)),
    ], ids=["haar16 seed=18", "haar16 seed=2138", "haar16 seed=2502", "haar16 seed=3717",
            "haar16 seed=3953", "symmetric5 theta=e^-i", "symmetric8 theta=e^-i"])
    def test_certificate_cases(self, u):
        count, _ = eigenvalue_multiplicities(u.matrix)
        assert spectrum(u).multiplicity_of_one == count == svd_count(u)


def flagged_columns(s):
    """How many columns of eigh of the pencil of S are no eigenvectors of
    S: those whose Rayleigh quotient leaves a residual above RESIDUAL_TOL."""
    _, v = np.linalg.eigh(spectral._pencil(s))
    sv = s @ v
    residual = np.linalg.norm(sv - v * np.einsum("ij,ij->j", v, sv), axis=0)
    return int(np.sum(residual > spectral.RESIDUAL_TOL))


class TestEigenvaluesAgainstEigvals:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_haar(self, n, seed):
        assert_matches_eigvals(haar_random_unitary(n, seed=seed))

    @pytest.mark.parametrize("name", [k for k in STRUCTURED if k != "haar5"])
    def test_structured(self, name):
        assert_matches_eigvals(STRUCTURED[name]())

    @pytest.fixture
    def eigvals_shapes(self, monkeypatch):
        shapes = []
        real_eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: shapes.append(a.shape) or real_eigvals(a))
        return shapes

    def test_shared_pencil_value_takes_the_small_solve(self, eigvals_shapes, monkeypatch):
        """Two distinct eigenvalues a + ib with the same b + t (1 - a),
        t = tan(PENCIL_ANGLE), share one eigenvalue of the pencil;
        the columns eigh returns for it mix their eigenvectors, fail their
        residual check, and the small eigvals of the flagged columns
        recovers both."""
        rng = np.random.default_rng(13)
        # angles summing to pi + 2 PENCIL_ANGLE give the same
        # 2 sin(theta/2) cos(theta/2 - phi) / cos(phi)
        angles = np.array([0.3, 0.3, np.pi + 0.7, 2.9, -1.2, 1.7, 0.8, 2.2])
        lam = np.exp(1j * angles)
        t = np.tan(PENCIL_ANGLE)
        assert abs((lam[0].imag + t * (1 - lam[0].real)) - (lam[2].imag + t * (1 - lam[2].real))) < 1e-15
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        s = (q * lam) @ q.T
        got = eigenvalues_of(s, monkeypatch)
        assert eigvals_shapes == [(3, 3)]
        assert max_pairing_distance(got, lam) <= 1e-12
        assert spectral.kernel_dim(np.abs(got - 1.0)) == 0

    def test_all_flagged_columns_take_one_solve(self, eigvals_shapes, monkeypatch):
        """Three mixed pairs: two share a pencil value, and one has pencil
        values mu about 2e-6 apart.  A symmetric coupling of norm 1e-14
        between that pair's eigenvectors, the size of the rounding in a
        computed S, mixes their columns of eigh(M) by about 1e-14 t / 2e-6,
        a residual near 3e-9.  The columns whose residual is above
        RESIDUAL_TOL, however far apart their mu, take one eigvals."""
        phi = PENCIL_ANGLE

        def partner(angle, dmu):
            # the angle on the other branch whose pencil value is dmu above
            # angle's: sin(partner - phi) = sin(angle - phi) + dmu cos(phi)
            return phi + np.pi - np.arcsin(np.sin(angle - phi) + dmu * np.cos(phi))

        rng = np.random.default_rng(1)
        angles = [0.3, partner(0.3, 0.0), 1.1, partner(1.1, 0.0), -0.4, partner(-0.4, 2e-6)]
        lam = np.exp(1j * np.concatenate([angles, rng.uniform(-3.0, 3.0, 10)]))
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        coupling = np.outer(q[:, 4], q[:, 5])
        s = (q * lam) @ q.T + 1e-14 * (coupling + coupling.T)
        assert flagged_columns(s) == 6
        got = eigenvalues_of(s, monkeypatch)
        assert eigvals_shapes == [(6, 6)]
        assert max_pairing_distance(got, lam) <= 1e-12

    @pytest.mark.parametrize("n, seed", [(12, 8), (14, 29), (16, 18)])
    def test_haar_pair_with_mu_apart_is_re_solved(self, n, seed, eigvals_shapes):
        # Haar samples with two columns whose mu are 1.6-2.4e-6 apart and
        # whose residuals lie near RESIDUAL_TOL (1.2-2.2e-10 with OpenBLAS
        # on one thread; its blocking on more threads can move (14, 29)
        # below it): the columns that fail the check are re-solved together
        u = haar_random_unitary(n, seed=seed)
        s = standardized_matrix(u.matrix)
        reference = np.linalg.eigvals(s)
        flagged = flagged_columns(s)
        eigvals_shapes.clear()
        assert max_pairing_distance(spectrum(u).eigenvalues, reference) <= 1e-12
        assert eigvals_shapes == ([(flagged, flagged)] if flagged else [])
        assert flagged in ((0, 2) if (n, seed) == (14, 29) else (2,))

    def test_no_eigvals_on_the_full_matrix(self, eigvals_shapes):
        spectrum(haar_random_unitary(6, seed=14))
        assert (36, 36) not in eigvals_shapes


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
        assert s.multiplicity_of_one == svd_count(u) == kernel
        assert eigenvalue_multiplicities(u.matrix) == (kernel, False)
        at_one = np.abs(s.eigenvalues - 1.0) < CLUSTER_TOL
        (one,) = set(s.cluster_ids[at_one].tolist())
        assert s.clusters[one][1] == kernel
