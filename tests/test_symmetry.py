import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin_lab import (
    InvariantViolation,
    WeightedSpace,
    build_berezin,
    c_symbol_to_operator,
    d_symbol_to_operator,
    fourier_matrix,
    haar_random_unitary,
    isotypic_clusters,
    symmetric_family_matrix,
)
from berezin_lab import symmetry
from berezin_lab.spectral import CLUSTER_TOL, cluster_eigenvalues, eigenvalue_multiplicities
from berezin_lab.symmetry import (
    all_shifts,
    check_permutation_equivariance,
    check_shift_commutation,
    check_theta,
    check_weyl_relations,
    fourier_eigenfunction_check,
    isotypic_blocks,
    permute_symbol,
    phase_operator,
    predicted_clusters,
    shift_operator,
    unit_root,
)
from references import invariant_pair_count


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


class TestUnitRoot:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 64])
    def test_exactly_periodic(self, n):
        k = np.arange(-n, 2 * n)
        for j in range(-2, 4):
            assert np.array_equal(unit_root(n, k + j * n), unit_root(n, k))
            assert unit_root(n, 1 + j * n) == unit_root(n, 1)


class TestWeylRelations:
    def test_n1_exact(self):
        assert check_weyl_relations(1) == 0.0

    @pytest.mark.parametrize("op", [phase_operator, shift_operator], ids=lambda op: op.__name__)
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_stack_equals_single_calls_bit_for_bit(self, op, n):
        r = np.array([[0, 1, -2], [n, 2 * n + 1, 5]])
        out = op(n, r)
        assert out.shape == (2, 3, n, n)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], op(n, int(r[idx])))

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
        assert eigenvalue_multiplicities(fourier_matrix(n).matrix) == (count, count == 2 * n - 1)
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
        with pytest.raises(ValueError, match="theta must stay away from"):
            check_permutation_equivariance(3, 1.0, trials=1, seed=0)

    def test_stacks_act_one_permutation_each(self):
        rng = np.random.default_rng(5)
        sigma = np.array([rng.permutation(5) for _ in range(4)])
        f = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        ops, rf = symmetry.permutation_operator(sigma), permute_symbol(f, sigma)
        for t in range(4):
            np.testing.assert_array_equal(ops[t], symmetry.permutation_operator(sigma[t]))
            np.testing.assert_array_equal(rf[t], permute_symbol(f[t], sigma[t]))
            inv = np.argsort(sigma[t])
            np.testing.assert_array_equal(rf[t], f[t][np.ix_(inv, inv)])

    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (7, 2), (12, 3)])
    def test_matches_the_trial_loop_bit_for_bit(self, n, seed):
        theta = np.exp(0.7j)
        assert check_permutation_equivariance(n, theta, 10, seed) == _equivariance_by_loop(
            n, theta, 10, seed)


def _equivariance_by_loop(n, theta, trials, seed):
    """check_permutation_equivariance one trial at a time: the reference the
    stacked check must equal exactly."""
    u = symmetric_family_matrix(n, theta)
    b = build_berezin(u)
    rng = np.random.default_rng(seed)
    dev = 0.0
    for _ in range(trials):
        inv = np.argsort(rng.permutation(n))
        s_op = np.eye(n)[inv]
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rf = f[np.ix_(inv, inv)]
        dev = max(
            dev,
            np.max(np.abs(c_symbol_to_operator(u, rf) - s_op @ c_symbol_to_operator(u, f) @ s_op.T)),
            np.max(np.abs(d_symbol_to_operator(u, rf) - s_op @ d_symbol_to_operator(u, f) @ s_op.T)),
            np.max(np.abs(b.apply(rf) - b.apply(f)[np.ix_(inv, inv)])),
        )
    return float(dev)


@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_theta_guard_is_twice_the_rank_threshold(n, side):
    # the nearest of conj(theta), -conj(theta) to 1 is |theta -+ 1| away;
    # the guard, like the rank threshold, is the same at every n
    tau = CLUSTER_TOL
    with pytest.raises(ValueError, match="theta must stay away from"):
        symmetric_family_matrix(n, side * np.exp(1.99j * tau))
    assert check_theta(side * np.exp(2.01j * tau)) == side * np.exp(2.01j * tau)
    assert symmetric_family_matrix(n, side * np.exp(2.01j * tau)).n == n


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


def _orbit_combination(f, rng, count=8):
    """A random combination of permute_symbol(f, sigma) over random sigma.
    The orbit of a representative of block 3 or 4 spans the whole block."""
    n = f.shape[0]
    return sum(rng.standard_normal() * permute_symbol(f, rng.permutation(n))
               for _ in range(count)) + 0j


class TestIsotypicDecomposition:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_block_multiplicities(self, n):
        expected = {
            3: [1, 1, 2, 2, 2, 1],
            4: [1, 1, 3, 3, 3, 3, 2],
            5: [1, 1, 4, 4, 4, 6, 5],
        }[n]
        b = build_berezin(symmetric_family_matrix(n, np.exp(0.7j)))
        got = [mult for _, mult in isotypic_clusters(b)]
        assert got == expected
        assert sum(got) == n * n

    def test_orthogonal_in_weighted_product(self):
        # representatives of distinct blocks are orthogonal in the weighted
        # product of the symmetric family
        u = symmetric_family_matrix(4, np.exp(2.3j))
        space = WeightedSpace.from_unitary(u)
        blocks = [reps for reps, _ in isotypic_blocks(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                for f in blocks[i]:
                    for g in blocks[j]:
                        assert abs(space.inner(f, g)) < 1e-12

    @pytest.mark.parametrize("n,ranks", [(4, (3, 2)), (5, (6, 5))])
    def test_orbits_span_blocks(self, n, ranks):
        rng = np.random.default_rng(8)
        for (reps, _), rank in zip(isotypic_blocks(n)[2:], ranks):
            orbit = np.stack([permute_symbol(reps[0], rng.permutation(n)).ravel()
                              for _ in range(40)])
            assert np.linalg.matrix_rank(orbit) == rank

    def test_antisymmetric_component_eigenvalue(self):
        # d map output is conj(theta) times the c map output on component 3
        theta = np.exp(0.7j)
        u = symmetric_family_matrix(4, theta)
        rng = np.random.default_rng(9)
        reps, _ = isotypic_blocks(4)[2]
        for _ in range(3):
            f = _orbit_combination(reps[0], rng)
            cf = c_symbol_to_operator(u, f)
            df = d_symbol_to_operator(u, f)
            assert np.max(np.abs(df - np.conj(theta) * cf)) < 1e-10

    def test_component_eigenvalues_under_berezin(self):
        theta = np.exp(0.7j)
        u = symmetric_family_matrix(5, theta)
        space = WeightedSpace.from_unitary(u)
        b = build_berezin(u)
        blocks = isotypic_blocks(5)
        rng = np.random.default_rng(10)
        for (reps, _), eig in ((blocks[2], np.conj(theta)), (blocks[3], -np.conj(theta))):
            f = _orbit_combination(reps[0], rng)
            assert space.norm(b.apply(f) - eig * f) < 1e-9

    def test_e_perp_dimension_accounting(self):
        # the eigenvalue 1 comes from one value of block 1 and two of block
        # 2, the latter repeated n - 1 times each: the 2n - 1 dimensions of
        # E, so the complement of E carries no 1
        n = 5
        b = build_berezin(symmetric_family_matrix(n, 1j))
        at_one = sorted(mult for value, mult in isotypic_clusters(b) if abs(value - 1) < 1e-9)
        assert at_one == [1, n - 1, n - 1]
        assert sum(at_one) == 2 * n - 1

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="isotypic split needs n >= 3"):
            isotypic_blocks(2)

    def test_incomplete_bases_raise_package_error(self):
        # a transform without the symmetry leaves the blocks
        with pytest.raises(InvariantViolation, match="leaves an isotypic block"):
            isotypic_clusters(build_berezin(haar_random_unitary(5, 3)))

    def test_block_table_enters_verdict(self, monkeypatch):
        theta = np.exp(0.7j)
        assert symmetry.verify_symmetric_family_spectrum(4, theta)
        table = symmetry.isotypic_clusters

        def moved(b):
            out = table(b)
            value, mult = out[-1]
            return out[:-1] + [(value * np.exp(2e-8j), mult)]

        monkeypatch.setattr(symmetry, "isotypic_clusters", moved)
        assert not symmetry.verify_symmetric_family_spectrum(4, theta)


def _cluster_counts(*tables):
    """Per-table member counts of the groups one cluster_eigenvalues call
    forms over the (value, multiplicity) tables together."""
    values = [np.repeat(*zip(*table)) for table in tables]
    clusters, ids = cluster_eigenvalues(np.concatenate(values))
    bounds = np.cumsum([len(v) for v in values])[:-1]
    return [np.bincount(g, minlength=len(clusters)).tolist() for g in np.split(ids, bounds)]


class TestBlockTable:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 40),
        angle=st.floats(1e-3, np.pi - 1e-3),
        sign=st.sampled_from([1, -1]),
    )
    def test_matches_predicted_clusters(self, n, angle, sign):
        theta = np.exp(1j * sign * angle)
        blocks = isotypic_clusters(build_berezin(symmetric_family_matrix(n, theta)))
        computed, predicted = _cluster_counts(blocks, predicted_clusters(n, theta))
        assert computed == predicted

    def test_beyond_dense_size(self):
        # n = 200: the dense S would take 25.6 GB; the blocks take 3 symbols
        n, theta = 200, np.exp(2.1j)
        blocks = isotypic_clusters(build_berezin(symmetric_family_matrix(n, theta)))
        computed, predicted = _cluster_counts(blocks, predicted_clusters(n, theta))
        assert computed == predicted
