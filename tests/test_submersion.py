import tracemalloc

import numpy as np
import pytest

from berezin_lab import matrices, submersion
from berezin_lab import (
    c_symbol_to_operator,
    d_symbol_to_operator,
    fourier_matrix,
    haar_random_unitary,
    jacobian_report,
    operator_to_c_symbol,
    operator_to_d_symbol,
    skew_hermitian_basis,
    submersion_sweep,
    symmetric_family_matrix,
    tangent_direction,
    to_doubly_stochastic,
    validate_unitary,
)
from references import finite_difference_direction
from test_spectral import fourier_product, perturbed


# Haar seeds at n = 16 whose Jacobian the Cholesky certificate does not
# certify: 4 of the 14 among seeds 0 to 23,999, with (2n)-th singular values
# of 2.0e-6, 7.1e-7, 6.4e-8 and 9.0e-7, under the margin of 7.5e-6
FALLBACK_SEEDS = [2915, 7183, 19382, 23594]


def random_skew(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a - a.conj().T


def replace_sample(monkeypatch, index, replace):
    """Make the Haar draw build sample `index` of the stream from
    replace(z), z the Ginibre matrix the stream gives it.  This wraps
    matrices._ginibre_stack, the draw's one step between the normals and
    the QR, and counts the samples of each chunk it has drawn; the stream
    is drawn as before, so every other sample stays as it was."""
    ginibre, drawn = matrices._ginibre_stack, [0]

    def patched(normals):
        z = ginibre(normals)
        k, drawn[0] = index - drawn[0], drawn[0] + len(z)
        if 0 <= k < len(z):
            z[k] = replace(z[k])
        return z

    monkeypatch.setattr(matrices, "_ginibre_stack", patched)


def swept_matrices(monkeypatch, n, samples, seed, chunk):
    """The unitaries submersion_sweep(n, samples, seed) draws in chunks of
    `chunk` samples, as one (samples, n, n) stack."""
    draw, drawn = submersion.haar_unitary_stack, []

    def recorded(n, count, rng):
        m, nonzero = draw(n, count, rng)
        drawn.append(m)
        return m, nonzero

    with monkeypatch.context() as patch:
        patch.setattr(submersion, "_CHUNK_BYTES", chunk * submersion.SAMPLE_BYTES_PER_N4 * n**4)
        patch.setattr(submersion, "haar_unitary_stack", recorded)
        submersion_sweep(n, samples, seed)
    sizes = [min(chunk, samples - start) for start in range(0, samples, chunk)]
    assert [len(m) for m in drawn] == sizes
    return np.concatenate(drawn)


def stream_unitaries(n, samples, seed):
    """The rephased QR of each (re, im) block of one
    default_rng(seed).standard_normal((samples, 2, n, n)) draw, one block
    at a time."""
    unitaries = []
    for re, im in np.random.default_rng(seed).standard_normal((samples, 2, n, n)):
        q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
        d = np.diagonal(r)
        unitaries.append(q * (d / np.abs(d)))
    return np.stack(unitaries)


class TestSkewBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_count_and_skewness(self, n):
        basis = skew_hermitian_basis(n)
        assert len(basis) == n * n
        for x in basis:
            assert np.max(np.abs(x + x.conj().T)) == 0.0

    def test_real_linear_independence(self):
        basis = skew_hermitian_basis(3)
        gram = np.array(
            [[np.real(np.trace(x @ y.conj().T)) for y in basis] for x in basis]
        )
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 9
        np.testing.assert_allclose(gram, np.eye(9), rtol=0, atol=1e-15)  # orthonormal


class TestTangentDirection:
    def test_global_phase_is_killed(self):
        u = haar_random_unitary(3, seed=0)
        p = tangent_direction(u, 1j * np.eye(3))
        np.testing.assert_allclose(p, 0.0, atol=1e-14)

    def test_row_phase_is_killed(self):
        u = haar_random_unitary(3, seed=1)
        x = np.zeros((3, 3), dtype=complex)
        x[1, 1] = 1j
        np.testing.assert_allclose(tangent_direction(u, x), 0.0, atol=1e-14)

    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(2)
        u = haar_random_unitary(3, seed=2)
        for _ in range(10):
            p = tangent_direction(u, random_skew(rng, 3))
            np.testing.assert_allclose(p.sum(axis=0), 0.0, atol=1e-12)
            np.testing.assert_allclose(p.sum(axis=1), 0.0, atol=1e-12)

    def test_rejects_non_skew(self):
        u = haar_random_unitary(2, seed=3)
        with pytest.raises(ValueError, match=r"X \+ X\* must vanish"):
            tangent_direction(u, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match=r"X \+ X\* must vanish"):
            tangent_direction(u, np.stack([1j * np.eye(2), np.eye(2)]))

    def test_batched_matches_items(self):
        rng = np.random.default_rng(13)
        u = haar_random_unitary(3, seed=13)
        xs = np.stack([random_skew(rng, 3) for _ in range(5)])
        batched = tangent_direction(u, xs)
        for x, p in zip(xs, batched):
            np.testing.assert_allclose(p, tangent_direction(u, x), atol=1e-14)


class TestSymbolPair:
    """The c-symbol f and the d-symbol g of the skew-Hermitian operator X
    behind the tangent direction X u satisfy f = -conj(g)."""

    def test_global_phase_gives_constant_i(self):
        u = haar_random_unitary(3, seed=4)
        np.testing.assert_allclose(operator_to_c_symbol(u, 1j * np.eye(3)), 1j, atol=1e-14)
        np.testing.assert_allclose(operator_to_d_symbol(u, 1j * np.eye(3)), 1j, atol=1e-14)

    def test_zero_direction(self):
        u = haar_random_unitary(3, seed=5)
        np.testing.assert_allclose(operator_to_c_symbol(u, np.zeros((3, 3))), 0.0)
        np.testing.assert_allclose(operator_to_d_symbol(u, np.zeros((3, 3))), 0.0)

    def test_both_symbols_recover_the_operator(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            u = haar_random_unitary(3, seed=[6, trial])
            x = random_skew(rng, 3)
            f, g = operator_to_c_symbol(u, x), operator_to_d_symbol(u, x)
            assert np.max(np.abs(f + np.conj(g))) < 1e-9
            cf = c_symbol_to_operator(u, f)
            dg = d_symbol_to_operator(u, g)
            assert np.max(np.abs(cf - dg)) < 1e-9
            assert np.max(np.abs(cf - x)) < 1e-9


class TestJacobian:
    def test_n1(self):
        report = jacobian_report(haar_random_unitary(1, seed=8))
        assert report.rank == 0
        assert report.kernel_dim == 1
        assert report.is_submersion  # (n-1)^2 = 0
        assert report.theorem_holds

    def test_symmetric_family_n3(self):
        report = jacobian_report(symmetric_family_matrix(3, 1j))
        assert report.kernel_dim == 5
        assert report.rank == 4
        assert report.theorem_holds
        assert report.is_submersion

    def test_fourier_composite_n4_not_submersive(self):
        report = jacobian_report(fourier_matrix(4))
        assert report.kernel_dim == 8
        assert report.berezin_multiplicity_of_one == 8
        assert report.theorem_holds
        assert not report.is_submersion

    def test_fourier_n6_kernel_matches_pair_count(self):
        report = jacobian_report(fourier_matrix(6))
        assert report.kernel_dim == 15
        assert report.theorem_holds

    def test_kernel_dim_invariant_under_diagonal_phases(self):
        rng = np.random.default_rng(9)
        u = haar_random_unitary(3, seed=9)
        kap = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
        lam = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
        v = validate_unitary(kap @ u.matrix @ lam)
        assert jacobian_report(u).kernel_dim == jacobian_report(v).kernel_dim

    def test_computes_no_eigenvalues(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        report = jacobian_report(haar_random_unitary(4, seed=14))
        assert report.kernel_dim == report.berezin_multiplicity_of_one == 7

    def test_calls_no_tangent_direction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tangent_direction called")

        monkeypatch.setattr(submersion, "tangent_direction", refuse)
        monkeypatch.setattr(submersion, "skew_hermitian_basis", refuse)
        assert jacobian_report(haar_random_unitary(5, seed=15)).theorem_holds
        assert submersion_sweep(3, samples=4, seed=15).theorem_violations == 0

    def test_rank_kernel_duality(self):
        report = jacobian_report(haar_random_unitary(4, seed=10))
        assert report.rank + report.kernel_dim == 16
        assert report.kernel_dim >= 7


class TestClosedFormJacobian:
    """Column b of the Jacobian is the tangent direction of basis element b,
    divided by |u| and flattened row-major."""

    @pytest.mark.parametrize("u", [
        *(haar_random_unitary(n, seed=[16, n]) for n in range(1, 9)),
        *(fourier_matrix(n) for n in range(2, 9)),
    ], ids=[*(f"haar{n}" for n in range(1, 9)), *(f"F{n}" for n in range(2, 9))])
    def test_columns_match_tangent_directions(self, u):
        n = u.n
        basis = skew_hermitian_basis(n)
        jac = submersion._jacobians(u.matrix[np.newaxis])[0]
        assert jac.shape == (n * n, n * n)
        for b, x in enumerate(basis):
            reference = tangent_direction(u, x) / np.abs(u.matrix)
            np.testing.assert_allclose(jac[:, b], reference.ravel(), rtol=0, atol=1e-14)
        assert np.all(jac[:, :n] == 0.0)


class TestCholeskyCertificate:
    """On almost every input one Cholesky factorization proves the generic
    count 2n - 1, and the SVD of the Jacobian runs only where it fails."""

    def test_right_phases_are_the_coordinates_of_u_i_ebb_u_star(self):
        u = haar_random_unitary(5, seed=22)
        n, basis = u.n, skew_hermitian_basis(u.n)
        phases = submersion._right_phases(u.matrix[np.newaxis])[0]
        for b in range(n - 1):
            x = u.matrix[:, [b]] * 1j * u.matrix[:, b].conj()  # u (i E_bb) u*
            coordinates = np.real(np.sum(x * basis.conj(), axis=(-2, -1)))
            np.testing.assert_allclose(phases[:, b], coordinates[n:], rtol=0, atol=1e-15)
            np.testing.assert_allclose(tangent_direction(u, x), 0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_haar_samples_are_certified(self, n):
        report = jacobian_report(haar_random_unitary(n, seed=[23, n]))
        assert report.certified and report.singular_values is None
        assert (report.rank, report.kernel_dim) == ((n - 1) ** 2, 2 * n - 1)
        assert report.to_dict()["singular_values"] is None

    @pytest.mark.parametrize("n, kernel", [(4, 8), (6, 15)])
    def test_fourier_falls_back_to_the_svd(self, n, kernel):
        report = jacobian_report(fourier_matrix(n))
        assert not report.certified and len(report.singular_values) == n * n
        assert report.kernel_dim == report.berezin_multiplicity_of_one == kernel

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_haar_seeds_under_the_margin_fall_back(self, seed):
        # the (2n)-th singular value lies between the rank threshold and
        # the certificate's margin: the SVD counts 2n - 1, and the
        # eigenvalues of S, past the Berezin certificate's margin too
        report = jacobian_report(haar_random_unitary(16, seed=seed))
        assert not report.certified and not report.berezin_certified
        assert 1e-8 < np.sort(report.singular_values)[31] < 1e-5
        assert (report.rank, report.kernel_dim, report.berezin_multiplicity_of_one,
                report.theorem_holds) == (225, 31, 31, True)

    def test_failed_factorization_gives_the_svd_verdicts(self, monkeypatch):
        inputs = [haar_random_unitary(n, seed=[24, n]) for n in (2, 3, 4, 8)]
        inputs += [fourier_matrix(4), symmetric_family_matrix(5, np.exp(-1j))]
        certified = [jacobian_report(u) for u in inputs]

        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fails)
        for u, before in zip(inputs, certified):
            after = jacobian_report(u)
            assert not after.certified and len(after.singular_values) == u.n**2
            assert not after.berezin_certified
            assert (after.rank, after.kernel_dim, after.berezin_multiplicity_of_one,
                    after.theorem_holds) == (before.rank, before.kernel_dim,
                                             before.berezin_multiplicity_of_one,
                                             before.theorem_holds)

    def test_one_failing_sample_leaves_its_chunk_mates_certified(self, monkeypatch):
        rows = {}
        submersion_sweep(4, samples=6, seed=3, on_chunk=rows.update)
        # the QR of a unitary rephases it to itself: sample 2 becomes F4
        replace_sample(monkeypatch, 2, lambda z: fourier_matrix(4).matrix)
        patched = {}
        report = submersion_sweep(4, samples=6, seed=3, on_chunk=patched.update)
        assert report.kernel_dim_histogram == {7: 5, 8: 1} and report.theorem_violations == 0
        assert not patched[2].certified and patched[2].kernel_dim == 8
        assert not patched[2].berezin_certified
        assert all(patched[i].certified and patched[i].berezin_certified for i in (0, 1, 3, 4, 5))
        assert {i: r.to_dict() for i, r in patched.items() if i != 2} == {
            i: r.to_dict() for i, r in rows.items() if i != 2}


def dense_block_gram(m):
    """G = A^T A and ||J' Q||_F formed from the dense Jacobian, as
    submersion._block_gram forms them from its row blocks."""
    n = m.shape[-1]
    q = np.linalg.qr(submersion._right_phases(m))[0]
    a = np.concatenate([submersion._jacobians(m)[..., n:], np.swapaxes(q, -1, -2)], axis=-2)
    return np.swapaxes(a, -1, -2) @ a, np.linalg.norm(a[:, :n * n] @ q, axis=(-2, -1))


GRAM_INPUTS = {
    **{f"haar{n}": haar_random_unitary(n, seed=[25, n]).matrix for n in range(1, 17)},
    **{f"F{n}": fourier_matrix(n).matrix for n in range(1, 17)},
    **{f"symmetric{n} angle={a}": symmetric_family_matrix(n, np.exp(1j * a)).matrix
       for n in (3, 5, 8, 12) for a in (-1.0, 0.7, 2.1)},
}
# the perturbed products of test_spectral's epsilon scan
PERTURBED_INPUTS = {
    f"{orders} eps={eps:g}": perturbed(fourier_product(*orders), eps).matrix
    for orders in ((2, 2, 2), (4,), (6,))
    for eps in [10.0**k * m for k in range(-11, -3) for m in (1, 3)] + [1e-3]
}


class TestBlockGram:
    """The certificate forms G and ||J' Q||_F from J's row blocks; they equal
    the dense A^T A and ||J' Q||_F to rounding, and give their verdicts."""

    @pytest.mark.parametrize("name", GRAM_INPUTS)
    def test_equals_the_dense_product(self, name):
        m = GRAM_INPUTS[name][np.newaxis]
        gram, residual = submersion._block_gram(m)
        dense, dense_residual = dense_block_gram(m)
        p = m.shape[-1] ** 2 - m.shape[-1]
        assert gram.shape == dense.shape == (1, p, p)
        bound = 1e-13 * np.trace(dense[0])
        assert np.max(np.abs(gram - dense), initial=0.0) <= bound
        assert abs(residual[0] - dense_residual[0]) <= bound

    @pytest.mark.parametrize("name", [*GRAM_INPUTS, *PERTURBED_INPUTS])
    def test_verdicts_equal_the_dense_formulas(self, name, monkeypatch):
        m = {**GRAM_INPUTS, **PERTURBED_INPUTS}[name][np.newaxis]
        verdict = submersion._certify(m)
        monkeypatch.setattr(submersion, "_block_gram", dense_block_gram)
        assert submersion._certify(m).tolist() == verdict.tolist()

    def test_stack_equals_its_samples(self):
        # the scatter offsets each sample of a stack by p^2
        m = np.stack([GRAM_INPUTS[name] for name in ("haar4", "F4")]
                     + [haar_random_unitary(4, seed=[26, i]).matrix for i in range(3)])
        gram, residual = submersion._block_gram(m)
        for i in range(len(m)):
            alone = submersion._block_gram(m[i:i + 1])
            np.testing.assert_array_equal(gram[i], alone[0][0])
            assert residual[i] == alone[1][0]

    def test_n1_certifies_an_empty_gram_matrix(self):
        m = haar_random_unitary(1, seed=27).matrix[np.newaxis]
        gram, residual = submersion._block_gram(m)
        assert gram.shape == (1, 0, 0) and residual.tolist() == [0.0]
        assert submersion._certify(m).tolist() == [True]


class TestFiniteDifferences:
    def test_first_order_convergence(self):
        rng = np.random.default_rng(11)
        ratios = []
        for trial in range(20):
            u = haar_random_unitary(3, seed=[11, trial])
            x = random_skew(rng, 3)
            exact = tangent_direction(u, x)
            e4 = np.max(np.abs(finite_difference_direction(u, x, 1e-4) - exact))
            e5 = np.max(np.abs(finite_difference_direction(u, x, 1e-5) - exact))
            ratios.append(e4 / e5)
        assert all(8.0 <= r <= 12.0 for r in ratios)

    def test_rejects_non_skew_direction(self):
        # the eigh exponential is exact only for skew-Hermitian X
        u = haar_random_unitary(3, seed=11)
        with pytest.raises(ValueError, match=r"X \+ X\* must vanish"):
            finite_difference_direction(u, np.ones((3, 3)), 1e-4)


class TestSweep:
    def test_n2_always_submersive(self):
        report = submersion_sweep(2, samples=50, seed=7)
        assert report.skipped == 0
        assert report.submersive_fraction == 1.0
        assert report.theorem_violations == 0
        assert report.kernel_dim_histogram == {3: 50}
        assert report.min_kernel_dim == report.max_kernel_dim == 3

    def test_kernel_floor(self):
        report = submersion_sweep(3, samples=20, seed=8)
        assert report.min_kernel_dim >= 5
        assert report.theorem_violations == 0

    def test_deterministic(self):
        streamed = {}
        a = submersion_sweep(3, samples=10, seed=9, on_chunk=streamed.update)
        b = submersion_sweep(3, samples=10, seed=9)
        assert a.to_dict() == b.to_dict()
        assert sorted(streamed) == list(range(10))

    @pytest.mark.parametrize("seed", [9, 21])
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_sample_i_is_block_i_of_one_stream(self, n, seed, monkeypatch):
        # bit for bit, at every chunk size: sample i depends only on
        # (seed, i), and sample 0 is haar_random_unitary(n, seed)
        expected = stream_unitaries(n, 8, seed)
        for chunk in (1, 3, 8, 20):
            assert np.array_equal(swept_matrices(monkeypatch, n, 8, seed, chunk), expected)
        assert np.array_equal(haar_random_unitary(n, seed).matrix, expected[0])

    def test_chunks_stream_in_index_order(self, monkeypatch):
        monkeypatch.setattr(submersion, "_CHUNK_BYTES", 3 * submersion.SAMPLE_BYTES_PER_N4 * 3**4)  # 3 samples
        chunks = []
        submersion_sweep(3, samples=8, seed=21, on_chunk=chunks.append)
        assert [[i for i, _ in chunk] for chunk in chunks] == [[0, 1, 2], [3, 4, 5], [6, 7]]

    def test_zero_entry_sample_skipped_inside_chunk(self, monkeypatch):
        def sweep_rows():
            rows = {}
            report = submersion_sweep(4, samples=6, seed=3, on_chunk=rows.update)
            return report, {i: r and r.to_dict() for i, r in rows.items()}

        monkeypatch.setattr(submersion, "_CHUNK_BYTES", 3 * submersion.SAMPLE_BYTES_PER_N4 * 4**4)  # 3 samples
        clean, clean_rows = sweep_rows()
        # QR of a triangular matrix is diagonal: entries exactly zero
        replace_sample(monkeypatch, 4, np.triu)
        patched, patched_rows = sweep_rows()
        assert clean.skipped == 0 and patched.skipped == 1
        assert patched_rows[4] is None
        assert patched_rows == {**clean_rows, 4: None}

    @pytest.mark.parametrize("n, samples", [(16, 5), (20, 2)])
    def test_chunk_stacks_within_budget(self, n, samples):
        submersion_sweep(n, samples=1, seed=0)  # first-call allocations
        tracemalloc.start()
        try:
            submersion_sweep(n, samples=samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the chunk's stacks; 256 KiB covers its Ginibre matrices, singular
        # values and reports
        assert samples > submersion._chunk_size(n)
        assert peak <= submersion._CHUNK_BYTES + 2**18

    def test_image_in_birkhoff_polytope(self):
        for i in range(20):
            u = haar_random_unitary(4, seed=[12, i])
            p = to_doubly_stochastic(u)
            assert np.min(p) >= 0.0
            np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            submersion_sweep(1, samples=5, seed=0)
        with pytest.raises(ValueError):
            submersion_sweep(3, samples=0, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            submersion_sweep(3, samples=2, seed=-1)
