"""Sparse polynomial arithmetic and the closed-form box inner product."""

import math

import numpy as np
import pytest

from legkoop.polyalg import (
    Monomial,
    Polynomial,
    box_inner_product,
    canonicalize,
    evaluate,
    poly_mul,
    variable,
)
from legkoop.basis import build_basis
from legkoop.dynamics import VectorField
from legkoop.invariants import (
    basis_as_polynomial,
    gauss_legendre_inner_product,
    legendre_coefficients,
    total_derivative,
)


def P(terms, m=2):
    return canonicalize(terms, m)


def as_dict(p):
    return {t.exp: t.coef for t in p.terms}


# ---------------------------------------------------------------------------
# canonical form

def test_canonicalize_combines_like_terms():
    p = P([(1.0, (1, 0)), (2.0, (1, 0))])
    assert as_dict(p) == {(1, 0): 3.0}


def test_canonicalize_cancellation_gives_zero_polynomial():
    p = P([(1.0, (2, 0)), (-1.0, (2, 0))])
    assert p.terms == ()
    assert p.total_degree == 0


def test_canonicalize_duffing_spring_terms_sorted_by_grade():
    p = P([(-0.001, (3, 0)), (-1.0, (1, 0))])
    assert [(t.coef, t.exp) for t in p.terms] == [(-1.0, (1, 0)), (-0.001, (3, 0))]


def test_canonicalize_accepts_monomials():
    p = canonicalize([Monomial(2.0, (0, 1)), Monomial(-0.5, (0, 1))], 2)
    assert as_dict(p) == {(0, 1): 1.5}


def test_canonical_order_is_graded_then_lexicographic_descending():
    p = P([(1.0, (0, 2)), (1.0, (2, 0)), (1.0, (1, 1)), (1.0, (0, 0)), (1.0, (1, 0))])
    assert [t.exp for t in p.terms] == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]


def test_canonicalize_rejects_bad_terms():
    with pytest.raises(ValueError):
        P([(1.0, (1, 0, 0))])  # wrong arity
    with pytest.raises(ValueError):
        P([(1.0, (-1, 0))])  # negative exponent
    with pytest.raises(ValueError):
        P([(math.nan, (1, 0))])
    with pytest.raises(ValueError):
        P([(math.inf, (0, 0))])
    with pytest.raises(ValueError, match="like terms sum to non-finite"):
        P([(1e308, (1, 0)), (1e308, (1, 0))])


def test_canonicalize_idempotent_on_random_term_lists():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        terms = [
            (float(rng.normal()), tuple(int(e) for e in rng.integers(0, 4, size=m)))
            for _ in range(int(rng.integers(0, 12)))
        ]
        once = canonicalize(terms, m)
        twice = canonicalize(once.terms, m)
        assert once == twice


# ---------------------------------------------------------------------------
# ring operations

def test_mul_simple():
    q, p = variable(2, 0), variable(2, 1)
    assert as_dict(poly_mul(q, p)) == {(1, 1): 1.0}


def test_mul_by_one_is_identity():
    one = canonicalize([(1.0, (0, 0))], 2)
    p = P([(2.0, (1, 0)), (-0.5, (2, 1))])
    assert poly_mul(one, p) == p
    assert poly_mul(p, one) == p


def test_mul_legendre_product_un_normalized():
    # P_1(q) * P_2(p) = q * (-1/2 + 3/2 p^2)
    p1 = P([(1.0, (1, 0))])
    p2 = P([(-0.5, (0, 0)), (1.5, (0, 2))])
    prod = poly_mul(p1, p2)
    assert as_dict(prod) == {(1, 0): -0.5, (1, 2): 1.5}
    assert prod.total_degree == 3


def test_ring_laws_on_random_polynomials():
    rng = np.random.default_rng(11)

    def random_poly(m):
        terms = [
            (float(rng.normal()), tuple(int(e) for e in rng.integers(0, 4, size=m)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        return canonicalize(terms, m)

    def close(a, b):
        da, db = as_dict(a), as_dict(b)
        if set(da) != set(db):
            return False
        scale = max(1.0, max(abs(v) for v in da.values()) if da else 1.0)
        return all(abs(da[k] - db[k]) <= 1e-12 * scale for k in da)

    def add(a, b):
        return canonicalize(a.terms + b.terms, a.m)

    for _ in range(30):
        m = int(rng.integers(1, 4))
        a, b, c = random_poly(m), random_poly(m), random_poly(m)
        assert close(add(a, b), add(b, a))
        assert close(poly_mul(a, b), poly_mul(b, a))
        assert close(add(add(a, b), c), add(a, add(b, c)))
        assert close(poly_mul(poly_mul(a, b), c), poly_mul(a, poly_mul(b, c)))
        assert close(poly_mul(a, add(b, c)), add(poly_mul(a, b), poly_mul(a, c)))


# ---------------------------------------------------------------------------
# differentiation
#
# The term-wise derivative (coef * e, exponent e - 1) lives in
# `invariants.total_derivative`; along the unit field f = e_j, dL_i/dt is
# the partial derivative dL_i/dx_j.  Basis order for c = 3, m = 2:
# L6 = P3(q), L8 = P1(q) P2(p).

def along(m, j):
    one, zero = canonicalize([(1.0, (0,) * m)], m), Polynomial(m, ())
    return VectorField(m, tuple(one if k == j else zero for k in range(m)))


def test_partial_derivative_power_rule():
    basis = build_basis(3, 2)
    l6 = as_dict(basis_as_polynomial(basis, 6))
    assert set(l6) == {(3, 0), (1, 0)}
    dq = as_dict(total_derivative(basis, 6, along(2, 0)))
    assert dq == {(2, 0): 3.0 * l6[(3, 0)], (0, 0): l6[(1, 0)]}


def test_partial_derivative_of_missing_variable_is_zero():
    basis = build_basis(3, 2)
    assert set(as_dict(basis_as_polynomial(basis, 3))) == {(2, 0), (0, 0)}
    assert total_derivative(basis, 3, along(2, 1)).terms == ()
    assert total_derivative(basis, 6, along(2, 1)).terms == ()


def test_partial_derivative_basis_function_8():
    # L8 = -0.968 q + 2.905 q p^2 (rounded).
    basis = build_basis(3, 2)
    l8 = as_dict(basis_as_polynomial(basis, 8))
    assert l8 == pytest.approx({(1, 0): -0.968, (1, 2): 2.905}, abs=5e-4)
    assert as_dict(total_derivative(basis, 8, along(2, 0))) == {
        (0, 0): l8[(1, 0)], (0, 2): l8[(1, 2)]
    }
    assert as_dict(total_derivative(basis, 8, along(2, 1))) == {(1, 1): 2.0 * l8[(1, 2)]}


# ---------------------------------------------------------------------------
# box inner product

def test_box_inner_product_odd_symmetry():
    q = variable(2, 0)
    assert box_inner_product(q, canonicalize([(1.0, (0, 0))], 2)) == 0.0


def test_box_inner_product_q_with_q():
    q = variable(2, 0)
    assert box_inner_product(q, q) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_box_inner_product_legendre_orthogonality():
    # Un-normalized univariate Legendre polynomials: <P_i, P_j> = 2/(2j+1) d_ij.
    lpc = legendre_coefficients(6)
    polys = [
        canonicalize([(lpc[i, j], (j,)) for j in range(i + 1)], 1) for i in range(7)
    ]
    for i in range(7):
        for j in range(7):
            expected = 2.0 / (2 * j + 1) if i == j else 0.0
            assert box_inner_product(polys[i], polys[j]) == pytest.approx(
                expected, abs=1e-14
            )


def test_box_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        box_inner_product(variable(2, 0), variable(3, 0))


def test_box_inner_product_matches_quadrature_on_random_polynomials():
    rng = np.random.default_rng(19)
    for _ in range(25):
        m = int(rng.integers(1, 4))

        def random_poly():
            terms = [
                (float(rng.normal()), tuple(int(e) for e in rng.integers(0, 5, size=m)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            return canonicalize(terms, m)

        a, b = random_poly(), random_poly()
        closed = box_inner_product(a, b)
        nodes = (a.total_degree + b.total_degree) // 2 + 1
        quad = gauss_legendre_inner_product(a, b, nodes)
        assert abs(closed - quad) <= 1e-10 * max(1.0, abs(closed))


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_simple():
    qp = P([(1.0, (1, 1))])
    assert evaluate(qp, (2.0, 3.0)) == 6.0


def test_evaluate_zero_polynomial():
    assert evaluate(Polynomial(2, ()), (5.0, -7.0)) == 0.0


def test_evaluate_basis_function_8_at_corner():
    p = P([(-0.968, (1, 0)), (2.905, (1, 2))])
    assert evaluate(p, (1.0, 0.0)) == pytest.approx(-0.968)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(variable(2, 0), (1.0,))


def _float_loop(p, x):
    # evaluate's float operations on one point, in Python floats.
    total = 0.0
    for t in p.terms:
        v = t.coef
        for xk, e in zip(x, t.exp):
            if e:
                v *= float(xk) ** e
        total += v
    return total


def _same_floats(a, b):
    # Equal bit for bit, except that any nan matches any nan.
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def test_evaluate_on_an_array_of_points_is_evaluate_at_each_point_bit_for_bit():
    # Powers 1..6, alone and in products, at random points and at -0.0,
    # subnormals, inf and nan: numpy's array powers round differently from
    # float ** at e >= 2, so the array path must not use them.
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan, 1.0, -1.0]
    q = np.concatenate([rng.uniform(-3.0, 3.0, 400), special, special[::-1]])
    p = np.concatenate([rng.uniform(-3.0, 3.0, 400), special[::-1], special])
    points = np.vstack([q, p])
    polys = [
        P([(0.7, (e, 0)), (-1.3, (e - 1, 1)), (0.25, (0, e)), (-0.5, (0, 0))]) for e in range(1, 7)
    ] + [P([(3.0, (2, 3)), (1e-3, (5, 1)), (-2.0, (1, 1))])]
    for poly in polys:
        values = evaluate(poly, points)
        assert values.shape == (points.shape[1],)
        per_point = [evaluate(poly, points[:, k]) for k in range(points.shape[1])]
        assert all(type(v) is float for v in per_point)
        assert _same_floats(values, per_point)
        assert _same_floats(per_point, [_float_loop(poly, points[:, k]) for k in range(q.size)])


def test_evaluate_on_an_array_keeps_signed_zero():
    # Each term adds -0.0 or 0.0 to the 0.0 the sum starts from: 0.0, as in floats.
    cube = P([(-1.0, (3, 0))])
    zeros = np.array([[0.0, -0.0], [1.0, 1.0]])
    assert _same_floats(evaluate(cube, zeros), [0.0, 0.0])
    assert evaluate(cube, [0.0, 1.0]) == 0.0


def test_evaluate_refuses_complex_points():
    with pytest.raises(ValueError, match="must be real"):
        evaluate(variable(2, 0), np.array([1.0 + 1e-3j, 0.0]))
    with pytest.raises(ValueError, match="must be real"):
        evaluate(variable(2, 0), np.ones((2, 3), dtype=complex))


def test_evaluate_refuses_arrays_of_other_shapes():
    for x in (np.ones((3, 4)), np.ones((2, 2, 2)), 1.0):
        with pytest.raises(ValueError, match="expected"):
            evaluate(variable(2, 0), x)
