"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from berezin_lab import (
    WeightedSpace,
    berezin_from_composition,
    build_berezin,
    c_symbol_to_operator,
    d_symbol_to_operator,
    e_subspace_basis,
    fourier_matrix,
    haar_random_unitary,
    jacobian_report,
    submersion_sweep,
    symmetric_family_matrix,
    tangent_direction,
    verify_symmetric_family_spectrum,
)
from berezin_lab.spectral import spectrum, standardized_matrix
from berezin_lab.submersion import finite_difference_direction, skew_hermitian_basis
from berezin_lab.symmetry import (
    check_permutation_equivariance,
    check_shift_commutation,
    check_weyl_relations,
    invariant_pair_count,
    unit_root,
)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}")
    assert ok, f"{criterion} failed: {detail}"


def random_symbol(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_criterion_1_isometry():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 3, 4, 5):
        for trial in range(50):
            u = haar_random_unitary(n, seed=[101, n, trial])
            space = WeightedSpace.from_unitary(u)
            f, g = random_symbol(rng, n), random_symbol(rng, n)
            inner = space.inner(f, g)
            hs_c = np.trace(c_symbol_to_operator(u, f) @ c_symbol_to_operator(u, g).conj().T)
            hs_d = np.trace(d_symbol_to_operator(u, f) @ d_symbol_to_operator(u, g).conj().T)
            worst = max(worst, abs(hs_c - inner), abs(hs_d - inner))
    elapsed = time.monotonic() - start
    report(
        "1 isometry",
        worst <= 1e-10 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_berezin_consistency():
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        for trial in range(20):
            u = haar_random_unitary(n, seed=[102, n, trial])
            w = np.abs(u.matrix).ravel()
            composed = w[:, None] * berezin_from_composition(u) / w[None, :]
            dev = np.max(np.abs(standardized_matrix(u.matrix) - composed))
            worst = max(worst, float(dev))
    elapsed = time.monotonic() - start
    report(
        "2 berezin consistency",
        worst <= 1e-9 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_fixed_subspace():
    worst = 0.0
    for n in range(1, 7):
        u = haar_random_unitary(n, seed=[103, n])
        space = WeightedSpace.from_unitary(u)
        b = build_berezin(u)
        basis = e_subspace_basis(n)
        assert len(basis) == 2 * n - 1
        for f in basis:
            worst = max(worst, space.norm(b.apply(f) - f))
    report("3 fixed subspace", worst <= 1e-10, f"max residual {worst:.2e}")


def test_criterion_4_fourier_spectrum():
    expected_counts = {}
    observed = {}
    eig_dev = 0.0
    for n in range(2, 9):
        expected_counts[n] = invariant_pair_count(n)  # enumeration oracle
        s = spectrum(fourier_matrix(n))
        observed[n] = s.multiplicity_of_one
        want = sorted(
            [complex(unit_root(n, (r * c) % n)) for r in range(n) for c in range(n)],
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        got = sorted(
            map(complex, s.eigenvalues),
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        eig_dev = max(eig_dev, max(abs(a - b) for a, b in zip(want, got)))
    ok = observed == expected_counts and eig_dev <= 1e-8
    report(
        "4 fourier spectrum",
        ok,
        f"multiplicities {observed} vs oracle {expected_counts}, eig dev {eig_dev:.2e}",
    )


def test_criterion_5_symmetric_family_table():
    start = time.monotonic()
    ok = True
    detail = []
    for n in (3, 4, 5, 6):
        for theta in (1j, np.exp(0.7j), np.exp(2.3j)):
            # the verdict includes the kernel count 2n - 1 of the eigenvalue 1
            if verify_symmetric_family_spectrum(n, theta) is not True:
                ok = False
                detail.append(f"n={n} theta={theta:.3f}")
    elapsed = time.monotonic() - start
    report(
        "5 spectrum table",
        ok and elapsed < 30.0,
        f"{'mismatches: ' + ', '.join(detail) if detail else 'all 12 cases match'}, {elapsed:.2f}s",
    )


def test_criterion_6_theorem_oracle_equivalence():
    start = time.monotonic()
    violations = 0
    checked = 0
    for n in (2, 3, 4, 5):
        for trial in range(100):
            u = haar_random_unitary(n, seed=[106, n, trial])
            if not u.nonzero_entries:
                continue
            rep = jacobian_report(u)
            checked += 1
            violations += not rep.theorem_holds
    elapsed = time.monotonic() - start
    report(
        "6 kernel dim equals multiplicity of 1",
        violations == 0 and elapsed < 120.0,
        f"{checked} samples, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_7_submersion_genericity():
    fractions = {}
    for n in (2, 3, 4, 5):
        fractions[n] = submersion_sweep(n, samples=100, seed=107).submersive_fraction
    fourier4 = jacobian_report(fourier_matrix(4))
    ok = (
        all(f == 1.0 for f in fractions.values())
        and not fourier4.is_submersion
        and fourier4.kernel_dim == 8
    )
    report(
        "7 submersion genericity",
        ok,
        f"fractions {fractions}, fourier n=4 kernel {fourier4.kernel_dim}",
    )


def test_criterion_8_finite_differences():
    rng = np.random.default_rng(108)
    ratios = []
    for trial in range(20):
        u = haar_random_unitary(3, seed=[108, trial])
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = a - a.conj().T
        exact = tangent_direction(u, x)
        e4 = np.max(np.abs(finite_difference_direction(u, x, 1e-4) - exact))
        e5 = np.max(np.abs(finite_difference_direction(u, x, 1e-5) - exact))
        ratios.append(e4 / e5)
    ok = all(8.0 <= r <= 12.0 for r in ratios)
    report("8 finite differences", ok, f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_9_weyl_relations():
    worst = max(check_weyl_relations(n) for n in range(1, 9))
    report("9 weyl relations", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_10_equivariance():
    perm = max(
        check_permutation_equivariance(n, 1j, trials=20, seed=[110, n])
        for n in (3, 4, 5)
    )
    shift = max(
        check_shift_commutation(n, trials=20, seed=[111, n]) for n in (2, 3, 4, 5)
    )
    ok = perm <= 1e-10 and shift <= 1e-10
    report("10 equivariance", ok, f"permutation {perm:.2e}, shift {shift:.2e}")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
