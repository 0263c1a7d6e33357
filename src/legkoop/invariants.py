"""Cross-module invariants, measured, and the references they measure against.

The solver works from the Legendre three-term recurrence alone.  The paper's
monomial route is kept here as the independent reference the tests and
`legkoop validate` check it against: the coefficient tables from numpy's
`leg2poly` (`legendre_coefficients`, `normalize_legendre`), the basis
expanded into monomials (`monomial_matrix`, `basis_as_polynomial`), dL_i/dt
as a polynomial (`total_derivative`), and tensor-product Gauss-Legendre
quadrature on numpy's `leggauss` nodes (Golub & Welsch, Math. Comp. 23,
1969), each polynomial evaluated on the whole grid in one call.
`import legkoop.cli` loads neither this module nor numpy.polynomial.

Each check returns the number it bounds and leaves the bound to the caller,
so a test keeps its own literal bound and changing one here cannot loosen
it.  The golden fixtures are hand-checked values for order 3, two
variables; the matrix entries are rounded to three decimals (the exact
values are products of sqrt((2i+1)/2)-scaled Legendre coefficients).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leg2poly, leggauss

from .basis import BasisSet, build_basis, evaluate_basis
from .dynamics import ObservableSet, VectorField, duffing_vector_field
from .koopman import assemble_koopman, build_model, initial_eigenfunctions, propagate
from .polyalg import (
    Monomial,
    Polynomial,
    box_inner_product,
    canonicalize,
    evaluate,
    partial_derivative,
    poly_add,
    poly_mul,
)
from .refinteg import rk4_integrate

__all__ = [
    "legendre_coefficients",
    "normalize_legendre",
    "monomial_matrix",
    "basis_as_polynomial",
    "total_derivative",
    "gauss_legendre_nodes",
    "gauss_legendre_inner_product",
    "GOLDEN_INDICES",
    "GOLDEN_LPC_ROWS",
    "GOLDEN_MLP",
    "GOLDEN_BASIS_FUNCTION_8",
    "golden_deviation",
    "orthonormality_error",
    "koopman_quadrature_error",
    "above_degree_entry",
    "reconstruction_error",
    "rk4_halving_ratios",
]


# ---------------------------------------------------------------------------
# monomial reference

def legendre_coefficients(c: int) -> np.ndarray:
    """Raw Legendre coefficients by ascending power, one row per order.

    Row i is P_i as numpy's `leg2poly` gives it, with exact structural
    zeros at columns of opposite parity.
    """
    if c < 0:
        raise ValueError(f"order must be >= 0, got {c}")
    lpc = np.zeros((c + 1, c + 1))
    for i in range(c + 1):
        lpc[i, : i + 1] = leg2poly([0.0] * i + [1.0])
    return lpc


def normalize_legendre(lpc: np.ndarray) -> np.ndarray:
    """Scale row i by sqrt((2i+1)/2), making the rows orthonormal on [-1,1]."""
    factors = np.sqrt((2.0 * np.arange(lpc.shape[0]) + 1.0) / 2.0)
    return lpc * factors[:, None]


def monomial_matrix(basis: BasisSet) -> np.ndarray:
    """Basis functions expanded into monomials, one row per basis function.

    Entry [i, j] is the coefficient of the monomial with exponents
    ``basis.orders[j]`` in basis function i:
    prod_a NLPC[orders[i, a], orders[j, a]], NLPC the normalized table.
    """
    nlpc = normalize_legendre(legendre_coefficients(basis.c))
    ind = basis.orders
    mlp = np.ones((basis.n, basis.n))
    for k in range(basis.m):
        mlp *= nlpc[np.ix_(ind[:, k], ind[:, k])]
    return mlp


def basis_as_polynomial(basis: BasisSet, i: int) -> Polynomial:
    """Basis function i as a sparse polynomial.

    The monomial columns are already in canonical graded order, so the
    nonzero entries of row i are a valid canonical term list as-is.
    """
    if not 0 <= i < basis.n:
        raise IndexError(f"basis index {i} out of range 0..{basis.n - 1}")
    row = monomial_matrix(basis)[i]
    terms = tuple(
        Monomial(float(row[j]), tuple(exp))
        for j, exp in enumerate(basis.orders.tolist())
        if row[j] != 0.0
    )
    return Polynomial(basis.m, terms)


def total_derivative(basis: BasisSet, i: int, vf: VectorField) -> Polynomial:
    """d/dt of basis function i along the flow: sum_j dL_i/dx_j * f_j."""
    if vf.m != basis.m:
        raise ValueError(f"vector field dimension {vf.m} != basis dimension {basis.m}")
    li = basis_as_polynomial(basis, i)
    total = canonicalize([], basis.m)
    for j, fj in enumerate(vf.components):
        total = poly_add(total, poly_mul(partial_derivative(li, j), fj))
    return total


# ---------------------------------------------------------------------------
# quadrature reference

def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, exactly symmetric about 0) and weights of n-point
    Gauss-Legendre quadrature on [-1, 1], from numpy's `leggauss`."""
    if n < 1:
        raise ValueError("need at least one node")
    return leggauss(n)


def gauss_legendre_inner_product(a: Polynomial, b: Polynomial, nodes_per_dim: int) -> float:
    """Tensor-product quadrature of the box inner product <a, b>.

    Exact (to roundoff) when the node count covers the product degree; too
    few nodes is an error rather than a silent approximation, since this
    routine's whole purpose is to be trustworthy ground truth.
    """
    if a.m != b.m:
        raise ValueError(f"dimension mismatch: {a.m} vs {b.m}")
    required = (a.total_degree + b.total_degree) // 2 + 1
    if nodes_per_dim < required:
        raise ValueError(
            f"{nodes_per_dim} nodes per dimension cannot integrate degree "
            f"{a.total_degree + b.total_degree}; need >= {required}"
        )
    nodes, weights = gauss_legendre_nodes(nodes_per_dim)
    # The node indices of every grid point, one point per column.
    grid = np.indices((nodes_per_dim,) * a.m).reshape(a.m, -1)
    points, w = nodes[grid], np.prod(weights[grid], axis=0)
    return math.fsum(w * evaluate(a, points) * evaluate(b, points))


# ---------------------------------------------------------------------------
# invariants

GOLDEN_INDICES = (
    (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
)
GOLDEN_LPC_ROWS = {
    2: (-0.5, 0.0, 1.5, 0.0),
    3: (0.0, -1.5, 0.0, 2.5),
}
GOLDEN_MLP = np.array(
    [
        [0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0.866, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0.866, 0, 0, 0, 0, 0, 0, 0],
        [-0.559, 0, 0, 1.677, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1.5, 0, 0, 0, 0, 0],
        [-0.559, 0, 0, 0, 0, 1.677, 0, 0, 0, 0],
        [0, -1.984, 0, 0, 0, 0, 3.307, 0, 0, 0],
        [0, 0, -0.968, 0, 0, 0, 0, 2.905, 0, 0],
        [0, -0.968, 0, 0, 0, 0, 0, 0, 2.905, 0],
        [0, 0, -1.984, 0, 0, 0, 0, 0, 0, 3.307],
    ]
)
# Monomial exponents -> coefficient of basis function 8, q (3 p^2 - 1) scaled.
GOLDEN_BASIS_FUNCTION_8 = {(1, 0): -0.968, (1, 2): 2.905}


def golden_deviation(basis: BasisSet) -> float:
    """Largest deviation of the c=3, m=2 basis from the three-decimal fixtures.

    Covers the monomial matrix and the coefficients of basis function 8.  The
    exact parts of the fixtures have no rounding to absorb: if the
    multi-indices, the Legendre coefficient rows 2-3 (to 1e-12) or the
    monomials of basis function 8 differ, the deviation is inf.
    """
    if tuple(map(tuple, basis.orders.tolist())) != GOLDEN_INDICES:
        return math.inf
    lpc = legendre_coefficients(basis.c)
    for row, expected in GOLDEN_LPC_ROWS.items():
        if not np.allclose(lpc[row], expected, atol=1e-12):
            return math.inf
    coefs = {t.exp: t.coef for t in basis_as_polynomial(basis, 8).terms}
    if set(coefs) != set(GOLDEN_BASIS_FUNCTION_8):
        return math.inf
    worst = float(np.abs(monomial_matrix(basis) - GOLDEN_MLP).max())
    for exp, expected in GOLDEN_BASIS_FUNCTION_8.items():
        worst = max(worst, abs(coefs[exp] - expected))
    return worst


def orthonormality_error() -> float:
    """max |Gram - I| of the m=2 basis over orders 1..8, by exact box integrals."""
    worst = 0.0
    for c in range(1, 9):
        basis = build_basis(c, 2)
        funcs = [basis_as_polynomial(basis, i) for i in range(basis.n)]
        for i in range(basis.n):
            for k in range(basis.n):
                gram = box_inner_product(funcs[i], funcs[k])
                worst = max(worst, abs(gram - (1.0 if i == k else 0.0)))
    return worst


def koopman_quadrature_error() -> float:
    """max |K - quadrature| on Duffing at c=3, against Gauss-Legendre of the monomial reference."""
    basis = build_basis(3, 2)
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
    K = assemble_koopman(basis, vf)
    funcs = [basis_as_polynomial(basis, k) for k in range(basis.n)]
    worst = 0.0
    for i in range(basis.n):
        d = total_derivative(basis, i, vf)
        for k in range(basis.n):
            nodes = (d.total_degree + funcs[k].total_degree) // 2 + 1
            q = gauss_legendre_inner_product(d, funcs[k], nodes)
            worst = max(worst, abs(K[i, k] - q))
    return worst


def above_degree_entry() -> float:
    """Largest |K[i, k]| with deg L_k > deg L_i for linear dynamics at c=3.

    A linear field maps each degree onto itself, so these entries must vanish.
    """
    basis = build_basis(3, 2)
    K = assemble_koopman(basis, duffing_vector_field(1.0, 1.0, 1.0, 0.0))
    degrees = basis.orders.sum(axis=1)
    worst = 0.0
    for i in range(basis.n):
        for k in range(basis.n):
            if degrees[k] > degrees[i]:
                worst = max(worst, abs(K[i, k]))
    return worst


def reconstruction_error() -> float:
    """Worst |g(0) - x0| for the identity observables over 100 states drawn with seed 0.

    Duffing at c=3; the states are uniform on the unit box.
    """
    basis = build_basis(3, 2)
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
    model = build_model(basis, vf, ObservableSet.identity(("q", "p")))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        x0 = rng.uniform(-1.0, 1.0, size=2)
        phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, x0))
        traj = propagate(model, phi0, np.array([0.0]))
        worst = max(worst, float(np.abs(traj.values[:, 0] - x0).max()))
    return worst


def rk4_halving_ratios() -> tuple[float, float]:
    """Error ratios of RK4 at steps 1e-2 / 5e-3 and 5e-3 / 2.5e-3.

    Harmonic oscillator from (1, 0) to t = 10; fourth order gives about 16.
    """
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    exact = np.array([math.cos(10.0), -math.sin(10.0)])
    errors = []
    for step in (1e-2, 5e-3, 2.5e-3):
        states = rk4_integrate(vf, (1.0, 0.0), np.array([10.0]), step)
        errors.append(float(np.abs(states[:, 0] - exact).max()))
    return errors[0] / errors[1], errors[1] / errors[2]
