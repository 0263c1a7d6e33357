"""Orthonormal multivariate Legendre basis construction."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from legkoop.basis import MAX_ORDER, build_basis, derivative_matrix, evaluate_basis, jacobi_matrix
from legkoop.invariants import (
    GOLDEN_MLP,
    basis_as_polynomial,
    legendre_coefficients,
    monomial_matrix,
    normalize_legendre,
    orthonormality_error,
)
from legkoop.polyalg import box_inner_product, evaluate

# ---------------------------------------------------------------------------
# multi-index enumeration

def test_order_zero_single_row():
    assert build_basis(0, 2).orders.tolist() == [[0, 0]]


def test_order_three_index_table():
    basis = build_basis(3, 2)
    assert basis.orders.tolist() == [
        [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2], [0, 3],
    ]
    assert basis.n == 10
    assert not basis.orders.flags.writeable


def test_count_law_against_exhaustive_enumeration():
    for m in range(1, 5):
        for c in range(0, 11):
            rows = [tuple(row) for row in build_basis(c, m).orders.tolist()]
            brute = {
                e for e in product(range(c + 1), repeat=m) if sum(e) <= c
            }
            assert len(rows) == math.comb(c + m, m)
            assert set(rows) == brute
            assert len(set(rows)) == len(rows)


def test_ordering_graded_then_lex_descending():
    rows = [tuple(row) for row in build_basis(2, 3).orders.tolist()]
    assert rows[0] == (0, 0, 0)
    degrees = [sum(r) for r in rows]
    assert degrees == sorted(degrees)
    for d in set(degrees):
        block = [r for r in rows if sum(r) == d]
        assert block == sorted(block, reverse=True)


def test_enumeration_range_validation():
    with pytest.raises(ValueError):
        build_basis(-1, 2)
    with pytest.raises(ValueError):
        build_basis(13, 2)
    with pytest.raises(ValueError):
        build_basis(3, 0)
    with pytest.raises(ValueError):
        build_basis(3, 7)
    # Orders and dimensions in range can still ask for a basis above the
    # size cap: n = 18564 at c=12, m=6 and n = 2002 at c=9, m=5.
    with pytest.raises(ValueError, match="basis size"):
        build_basis(12, 6)
    with pytest.raises(ValueError, match="basis size"):
        build_basis(9, 5)


def test_build_basis_allocates_no_n_by_n_array():
    # n = 1820: an n x n float array would take 26 MB.
    tracemalloc.start()
    try:
        basis = build_basis(12, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.n == 1820
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# univariate tables

def test_legendre_seed_rows():
    lpc = legendre_coefficients(3)
    assert lpc[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert lpc[1].tolist() == [0.0, 1.0, 0.0, 0.0]


def test_legendre_recurrence_rows_two_and_three():
    lpc = legendre_coefficients(3)
    assert lpc[2].tolist() == pytest.approx([-0.5, 0.0, 1.5, 0.0])
    assert lpc[3].tolist() == pytest.approx([0.0, -1.5, 0.0, 2.5])


def test_legendre_p4_leading_coefficient():
    lpc = legendre_coefficients(4)
    assert lpc[4, 4] == pytest.approx(35.0 / 8.0)


@pytest.mark.parametrize("c", range(MAX_ORDER + 1))
def test_legendre_parity_zeros(c):
    # basis_as_polynomial keeps only the nonzero entries, so these zeros
    # must be exact.
    lpc = legendre_coefficients(c)
    for i in range(c + 1):
        for j in range(c + 1):
            if (i - j) % 2 == 1:
                assert lpc[i, j] == 0.0


def test_normalization_factors():
    nlpc = normalize_legendre(legendre_coefficients(2))
    assert nlpc[0, 0] == pytest.approx(math.sqrt(0.5))
    assert nlpc[1, 1] == pytest.approx(math.sqrt(1.5))
    # Entry printed as 0.866 in the order-3 expansion matrix.
    assert nlpc[1, 1] * nlpc[0, 0] == pytest.approx(0.866, abs=5e-4)


# ---------------------------------------------------------------------------
# multivariate basis

def test_mlp_matches_golden_three_decimal_matrix():
    basis = build_basis(3, 2)
    assert np.abs(monomial_matrix(basis) - GOLDEN_MLP).max() <= 5e-4


def test_mlp_corner_entries():
    mlp = monomial_matrix(build_basis(3, 2))
    assert mlp[0, 0] == pytest.approx(0.5)
    assert mlp[3, 0] == pytest.approx(-0.559, abs=5e-4)
    assert mlp[3, 3] == pytest.approx(1.677, abs=5e-4)
    assert mlp[8, 1] == pytest.approx(-0.968, abs=5e-4)
    assert mlp[8, 8] == pytest.approx(2.905, abs=5e-4)


def test_mlp_parity_sparsity():
    basis = build_basis(4, 2)
    mlp = monomial_matrix(basis)
    rows = basis.orders
    for i in range(basis.n):
        for j in range(basis.n):
            if any((rows[i][k] - rows[j][k]) % 2 == 1 for k in range(2)):
                assert mlp[i, j] == 0.0
            if any(rows[j][k] > rows[i][k] for k in range(2)):
                assert mlp[i, j] == 0.0


def test_gram_matrix_is_identity_through_order_eight():
    assert orthonormality_error() <= 1e-12


def test_gram_matrix_three_variables():
    basis = build_basis(3, 3)
    funcs = [basis_as_polynomial(basis, i) for i in range(basis.n)]
    gram = np.array(
        [
            [box_inner_product(funcs[i], funcs[k]) for k in range(basis.n)]
            for i in range(basis.n)
        ]
    )
    assert np.abs(gram - np.eye(basis.n)).max() <= 1e-12


# ---------------------------------------------------------------------------
# polynomial bridge and evaluation

def test_basis_as_polynomial_low_rows():
    basis = build_basis(3, 2)
    const = basis_as_polynomial(basis, 0)
    assert [(t.coef, t.exp) for t in const.terms] == [
        (pytest.approx(0.5), (0, 0))
    ]
    linear = basis_as_polynomial(basis, 2)
    assert [t.exp for t in linear.terms] == [(0, 1)]
    assert linear.terms[0].coef == pytest.approx(0.866, abs=5e-4)


def test_basis_as_polynomial_row_eight():
    basis = build_basis(3, 2)
    p = basis_as_polynomial(basis, 8)
    assert evaluate(p, (1.0, 0.0)) == pytest.approx(-0.968, abs=5e-4)


def test_basis_as_polynomial_index_range():
    basis = build_basis(3, 2)
    with pytest.raises(IndexError):
        basis_as_polynomial(basis, 10)
    with pytest.raises(IndexError):
        basis_as_polynomial(basis, -1)


def test_evaluate_basis_at_origin():
    basis = build_basis(3, 2)
    h = evaluate_basis(basis, (0.0, 0.0))
    expected = [0.5, 0, 0, -0.559, 0, -0.559, 0, 0, 0, 0]
    assert h == pytest.approx(expected, abs=5e-4)


def test_evaluate_basis_at_unit_q():
    basis = build_basis(3, 2)
    h = evaluate_basis(basis, (1.0, 0.0))
    assert h[0] == pytest.approx(0.5)
    assert h[1] == pytest.approx(0.866, abs=5e-4)
    assert h[3] == pytest.approx(1.118, abs=5e-4)


def test_constant_basis_function_everywhere():
    basis = build_basis(2, 2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        assert evaluate_basis(basis, x)[0] == pytest.approx(0.5)


def test_evaluate_basis_matches_polynomial_bridge():
    basis = build_basis(4, 2)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=2)
    h = evaluate_basis(basis, x)
    for i in range(basis.n):
        assert h[i] == pytest.approx(
            evaluate(basis_as_polynomial(basis, i), x), abs=1e-13
        )


def test_evaluate_basis_dimension_mismatch():
    basis = build_basis(3, 2)
    with pytest.raises(ValueError):
        evaluate_basis(basis, (1.0,))


def test_evaluate_basis_refuses_a_complex_point():
    with pytest.raises(ValueError, match="x must be real"):
        evaluate_basis(build_basis(3, 2), np.array([0.5, 0.25 + 1e-3j]))


@pytest.mark.parametrize("c, m", [(12, 2), (8, 4)])
def test_evaluate_basis_matches_legval(c, m):
    # The reference runs legval in extended precision: in double precision
    # legval itself carries up to ~1e-14 of rounding at c = 12.
    basis = build_basis(c, m)
    ld = np.longdouble
    norms = np.sqrt((2 * np.arange(c + 1, dtype=ld) + 1) / 2)[:, None]
    rng = np.random.default_rng(0)
    worst = 0.0
    for x in rng.uniform(-1, 1, size=(100, m)):
        per_axis = norms * legval(x.astype(ld), np.eye(c + 1, dtype=ld))
        expected = np.prod(per_axis[basis.orders, np.arange(m)], axis=1)
        worst = max(worst, float(np.abs(evaluate_basis(basis, x) - expected).max()))
    assert worst <= 1e-14


def test_jacobi_matrix_multiplies_by_x():
    size = 8
    nlpc = normalize_legendre(legendre_coefficients(size))  # N_0..N_8 by ascending power
    J = jacobi_matrix(size)  # acts on N_0..N_7
    x_times = np.zeros_like(nlpc)
    x_times[:, 1:] = nlpc[:, :-1]
    assert (J == J.T).all()
    # Row size-1 drops its N_size term; every other row is exact.
    assert np.abs(J[: size - 1] @ nlpc[:size] - x_times[: size - 1]).max() <= 1e-13


def test_derivative_matrix_matches_derivative_table():
    # Differentiate the coefficient rows by the shift law: the coefficient
    # of x^j in N_p' is (j+1) times that of x^(j+1) in N_p.
    nlpc = normalize_legendre(legendre_coefficients(10))
    dlpc = np.zeros_like(nlpc)
    dlpc[:, :-1] = nlpc[:, 1:] * np.arange(1, 11)
    D = derivative_matrix(11)
    assert np.abs(D @ nlpc - dlpc).max() <= 1e-11 * np.abs(dlpc).max()
    assert (np.triu(D) == 0.0).all()
