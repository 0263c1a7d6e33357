"""Cross-module invariants, measured: one function per check.

`legkoop validate` and the acceptance tests call the same functions.  Each
returns the number its check bounds and leaves the bound to the caller, so
a test keeps its own literal bound and changing one here cannot loosen it.
The golden fixtures below are hand-checked values for order 3, two
variables; the matrix entries are rounded to three decimals (the exact
values are products of sqrt((2i+1)/2)-scaled Legendre coefficients).
"""

from __future__ import annotations

import math

import numpy as np

from .basis import (
    BasisSet,
    basis_as_polynomial,
    build_basis,
    evaluate_basis,
    legendre_coefficients,
    monomial_matrix,
)
from .dynamics import ObservableSet, duffing_vector_field
from .koopman import (
    assemble_koopman,
    build_model,
    initial_eigenfunctions,
    propagate,
    total_derivative,
)
from .polyalg import box_inner_product
from .refinteg import gauss_legendre_inner_product, rk4_integrate

__all__ = [
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
    if basis.rows != GOLDEN_INDICES or basis.n != 10:
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
    degrees = [sum(row) for row in basis.rows]
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
        phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, x0))
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
        traj = rk4_integrate(vf, (1.0, 0.0), np.array([10.0]), step)
        errors.append(float(np.abs(traj.states[:, 0] - exact).max()))
    return errors[0] / errors[1], errors[1] / errors[2]
