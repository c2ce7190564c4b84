"""The Berezin certificate's residual held to 50-digit arithmetic, with
mpmath (a test-only dependency).  For any u with nonzero entries,
||(S(u) - I) V'||_F has a closed form in E = u u* - I and F = u* u - I,

    ||(S(u) - I) V'||_F^2 = sum_k (u u*)_kk ||e_k^T E||^2
                            + sum_{l>0} (u* u)_ll ||e_l^T F||^2,

and the residual _multiplicity hands certified_kernel must never lie below
its exact value for the float input, nor the floor it hands with it above
its exact value."""

import numpy as np
import pytest
from mpmath import mp

from berezin_lab import haar_random_unitary
from berezin_lab.symmetry import fourier_matrix, symmetric_family_matrix
from test_spectral import certificate_arguments, near_direct_sum

DIGITS = 50


def exact(m):
    """The float matrix m as rows of mpmath numbers, entry for entry."""
    return [[mp.mpc(complex(z)) for z in row] for row in m]


def closed_form(u):
    """||(S(u) - I) V'||_F from u u* and u* u, at the working precision."""
    n = len(u)
    cols = [[u[k][l] for k in range(n)] for l in range(n)]

    def weighted(vectors, skip):
        # sum over i >= skip of <v_i, v_i> ||(<v_i, v_j> - delta_ij)_j||^2
        return mp.fsum(
            mp.fsum(abs(a) ** 2 for a in vectors[i])
            * mp.fsum(abs(mp.fdot(vectors[i], [mp.conj(b) for b in vectors[j]]) - (i == j)) ** 2
                      for j in range(n))
            for i in range(skip, n))

    return mp.sqrt(weighted(u, 0) + weighted(cols, 1))


def dense_form(u):
    """||(S(u) - I) V'||_F from S(u) formed entry by entry,
    S[(k,l),(k',l')] = p_kl p_k'l' u_kl' u_k'l with p = |u| / u, and V' the
    row indicators and the column indicators l > 0, weighted by |u|."""
    n = len(u)
    p = [[abs(z) / z for z in row] for row in u]
    basis = [[[abs(u[k][l]) if k == i else 0 for l in range(n)] for k in range(n)]
             for i in range(n)]
    basis += [[[abs(u[k][l]) if l == j else 0 for l in range(n)] for k in range(n)]
              for j in range(1, n)]
    total = []
    for v in basis:
        for k in range(n):
            for l in range(n):
                sv = mp.fsum(p[k][l] * p[i][j] * u[k][j] * u[i][l] * v[i][j]
                             for i in range(n) for j in range(n))
                total.append(abs(sv - v[k][l]) ** 2)
    return mp.sqrt(mp.fsum(total))


def gaussian(n):
    rng = np.random.default_rng([53, n])
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


IDENTITY_INPUTS = {
    **{f"gaussian{n}": (lambda n=n: gaussian(n)) for n in range(1, 5)},
    **{f"haar{n} x (1 + {eta:g})": (lambda n=n, eta=eta: (1.0 + eta)
                                     * haar_random_unitary(n, seed=[54, n]).matrix)
       for n in range(1, 5) for eta in (1e-10, 1e-6, 1e-2)},
    **{f"2+2 eps={eps:g}": (lambda eps=eps: near_direct_sum(2, 2, eps).matrix)
       for eps in (1e-2, 1e-5, 1e-7)},
}


@pytest.mark.parametrize("name", IDENTITY_INPUTS)
def test_closed_form_is_the_dense_norm(name):
    # the dense side loses to cancellation the digits of (S - I) V' that
    # S V' does not resolve, about 15 for a float unitary, so it is formed
    # with 20 digits more
    u = exact(IDENTITY_INPUTS[name]())
    with mp.workdps(DIGITS):
        closed = closed_form(u)
    with mp.workdps(DIGITS + 20):
        dense = dense_form(u)
        assert abs(closed - dense) <= mp.mpf("1e-40") * dense


def residual_inputs():
    """(name, matrix) of every input the residual's bound is held to."""
    yield from ((f"haar{n}", haar_random_unitary(n, seed=[55, n]).matrix) for n in range(1, 17))
    yield from ((f"F{n}", fourier_matrix(n).matrix) for n in range(1, 17))
    yield from ((f"symmetric{n} angle={a}", symmetric_family_matrix(n, np.exp(1j * a)).matrix)
                for n in (3, 5, 8, 12, 16) for a in (-1.0, 0.7, 2.1))
    yield from ((f"{a}+{b} eps={eps:g}", near_direct_sum(a, b, eps).matrix)
                for a, b in ((2, 2), (3, 5), (8, 8)) for eps in 10.0 ** -np.arange(2, 8))


RESIDUAL_INPUTS = dict(residual_inputs())


@pytest.mark.parametrize("name", RESIDUAL_INPUTS)
def test_residual_bounds_the_exact_value(name):
    m = RESIDUAL_INPUTS[name]
    residual = certificate_arguments(m[np.newaxis])[0][0]
    with mp.workdps(DIGITS):
        exact_value = closed_form(exact(m))
    # the float closed form alone, with no rounding term, falls below the
    # exact value on about a third of these inputs
    assert mp.mpf(float(residual)) >= exact_value
    # and the exact value is rounding, far below CLUSTER_TOL sigma_min(V')
    assert exact_value < 1e-13


def exact_floor(u):
    """_sum_symbol_floor's closed form min(r, c') - sqrt(max P'^T P' 1) from
    the exact P = |u|^2 of the float u, at the working precision."""
    n = len(u)
    p = [[z.real ** 2 + z.imag ** 2 for z in row] for row in u]
    rows = [mp.fsum(row) for row in p]
    cols = [mp.fsum(p[k][l] for k in range(n)) for l in range(1, n)]
    rest = [mp.fsum(row[1:]) for row in p]
    spread = [mp.fsum(rest[k] * p[k][l] for k in range(n)) for l in range(1, n)]
    return min(rows + cols) - mp.sqrt(max(spread, default=mp.zero))


def floor_inputs():
    """(name, matrix) of every input the floor's bound is held to."""
    yield from ((f"haar{n}", haar_random_unitary(n, seed=[56, n]).matrix) for n in range(1, 17))
    yield from ((f"F{n}", fourier_matrix(n).matrix) for n in range(1, 17))
    yield from ((f"{a}+{b} eps={eps:g}", near_direct_sum(a, b, eps).matrix)
                for a, b in ((2, 6), (8, 8), (2, 2), (3, 5)) for eps in 10.0 ** -np.arange(4, 8))


FLOOR_INPUTS = dict(floor_inputs())


@pytest.mark.parametrize("name", FLOOR_INPUTS)
def test_floor_is_at_most_the_exact_value(name):
    # near a direct sum min(r, c') - sqrt(spread) cancels to order eps^2,
    # and the float closed form alone rounded above the exact value at
    # 2+6, eps = 1e-5 and 8+8, eps = 1e-4
    m = FLOOR_INPUTS[name]
    floor = certificate_arguments(m[np.newaxis])[1][0]
    with mp.workdps(DIGITS):
        assert mp.mpf(float(floor)) <= exact_floor(exact(m))
