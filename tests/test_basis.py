"""Orthonormal multivariate Legendre basis construction."""

import math
from itertools import product

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

from legkoop.basis import (
    MAX_BASIS_SIZE,
    basis_as_polynomial,
    build_basis,
    build_univariate_tables,
    derivative_matrix,
    derivative_table,
    enumerate_multi_indices,
    evaluate_basis,
    jacobi_matrix,
    legendre_coefficients,
    multivariate_basis,
    normalize_legendre,
)
from legkoop.invariants import GOLDEN_MLP, orthonormality_error
from legkoop.polyalg import box_inner_product, canonicalize, evaluate, partial_derivative

# ---------------------------------------------------------------------------
# multi-index enumeration

def test_order_zero_single_row():
    assert enumerate_multi_indices(0, 2).rows == ((0, 0),)


def test_order_three_index_table():
    idx = enumerate_multi_indices(3, 2)
    assert idx.rows == (
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
    )
    assert len(idx) == 10


def test_count_law_against_exhaustive_enumeration():
    for m in range(1, 5):
        for c in range(0, 11):
            rows = enumerate_multi_indices(c, m).rows
            brute = {
                e for e in product(range(c + 1), repeat=m) if sum(e) <= c
            }
            assert len(rows) == math.comb(c + m, m)
            assert set(rows) == brute
            assert len(set(rows)) == len(rows)


def test_ordering_graded_then_lex_descending():
    rows = enumerate_multi_indices(2, 3).rows
    assert rows[0] == (0, 0, 0)
    degrees = [sum(r) for r in rows]
    assert degrees == sorted(degrees)
    for d in set(degrees):
        block = [r for r in rows if sum(r) == d]
        assert block == sorted(block, reverse=True)


def test_enumeration_range_validation():
    with pytest.raises(ValueError):
        enumerate_multi_indices(-1, 2)
    with pytest.raises(ValueError):
        enumerate_multi_indices(13, 2)
    with pytest.raises(ValueError):
        enumerate_multi_indices(3, 0)
    with pytest.raises(ValueError):
        enumerate_multi_indices(3, 7)
    # The largest legal basis (c=12, m=6) stays under the size cap.
    assert math.comb(12 + 6, 6) < MAX_BASIS_SIZE


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


def test_legendre_parity_zeros():
    lpc = legendre_coefficients(8)
    for i in range(9):
        for j in range(9):
            if (i - j) % 2 == 1:
                assert lpc[i, j] == 0.0


def test_normalization_factors():
    nlpc = normalize_legendre(legendre_coefficients(2))
    assert nlpc[0, 0] == pytest.approx(math.sqrt(0.5))
    assert nlpc[1, 1] == pytest.approx(math.sqrt(1.5))
    # Entry printed as 0.866 in the order-3 expansion matrix.
    assert nlpc[1, 1] * nlpc[0, 0] == pytest.approx(0.866, abs=5e-4)


def test_derivative_table_values():
    tables = build_univariate_tables(2)
    assert not tables.DLPC[0].any()
    assert tables.DLPC[1, 0] == pytest.approx(math.sqrt(1.5))
    assert tables.DLPC[2, 1] == pytest.approx(3.0 * math.sqrt(2.5))


def test_derivative_table_shift_law():
    tables = build_univariate_tables(6)
    c = 6
    for i in range(c + 1):
        for j in range(c + 1):
            expected = (j + 1) * tables.NLPC[i, j + 1] if j + 1 <= c else 0.0
            assert tables.DLPC[i, j] == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# multivariate basis

def test_mlp_matches_golden_three_decimal_matrix():
    basis = build_basis(3, 2)
    assert np.abs(basis.MLP - GOLDEN_MLP).max() <= 5e-4


def test_mlp_corner_entries():
    basis = build_basis(3, 2)
    assert basis.MLP[0, 0] == pytest.approx(0.5)
    assert basis.MLP[3, 0] == pytest.approx(-0.559, abs=5e-4)
    assert basis.MLP[3, 3] == pytest.approx(1.677, abs=5e-4)
    assert basis.MLP[8, 1] == pytest.approx(-0.968, abs=5e-4)
    assert basis.MLP[8, 8] == pytest.approx(2.905, abs=5e-4)


def test_mlp_parity_sparsity():
    basis = build_basis(4, 2)
    rows = basis.indices.rows
    for i in range(basis.n):
        for j in range(basis.n):
            if any((rows[i][k] - rows[j][k]) % 2 == 1 for k in range(2)):
                assert basis.MLP[i, j] == 0.0
            if any(rows[j][k] > rows[i][k] for k in range(2)):
                assert basis.MLP[i, j] == 0.0


def test_mismatched_tables_and_indices():
    tables = build_univariate_tables(2)
    indices = enumerate_multi_indices(3, 2)
    with pytest.raises(ValueError):
        multivariate_basis(tables, indices)


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


def test_derivative_table_consistent_with_polynomial_derivative():
    tables = build_univariate_tables(6)
    for i in range(7):
        as_poly = canonicalize(
            [(tables.NLPC[i, j], (j,)) for j in range(7)], 1
        )
        direct = canonicalize([(tables.DLPC[i, j], (j,)) for j in range(7)], 1)
        assert partial_derivative(as_poly, 0) == direct


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
    nlpc = build_univariate_tables(size).NLPC  # N_0..N_8 by ascending power
    J = jacobi_matrix(size)  # acts on N_0..N_7
    x_times = np.zeros_like(nlpc)
    x_times[:, 1:] = nlpc[:, :-1]
    assert (J == J.T).all()
    # Row size-1 drops its N_size term; every other row is exact.
    assert np.abs(J[: size - 1] @ nlpc[:size] - x_times[: size - 1]).max() <= 1e-13


def test_derivative_matrix_matches_derivative_table():
    tables = build_univariate_tables(10)
    D = derivative_matrix(11)
    assert np.abs(D @ tables.NLPC - tables.DLPC).max() <= 1e-11 * np.abs(tables.DLPC).max()
    assert (np.triu(D) == 0.0).all()
