"""Orthonormal multivariate Legendre basis on the unit box.

Basis function i is the tensor product prod_a N_{p_a}(x_a) of normalized
univariate Legendre polynomials, where (p_1, ..., p_m) is row i of a graded
set of multi-indices.  That set is the whole basis: `BasisSet` holds the
multi-indices and nothing else.

The normalized three-term recurrence gives everything the solver needs:
the univariate operators in coefficient space, `jacobi_matrix`
(multiplication by x) and `derivative_matrix` (d/dx), from which the
Koopman matrix is assembled, and `evaluate_basis`, which runs the
recurrence at a point.

The monomial expansion of the basis, the independent reference the tests
and `legkoop validate` check the solver against, is in `legkoop.invariants`.

Indexing is 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .polyalg import real_array

__all__ = [
    "MAX_DIMENSION",
    "MAX_ORDER",
    "MAX_BASIS_SIZE",
    "BasisSet",
    "build_basis",
    "jacobi_matrix",
    "derivative_matrix",
    "evaluate_basis",
]

MAX_DIMENSION = 6
MAX_ORDER = 12
# Largest basis a solve may use: n = 1820 (c=12, m=4) peaks at 143.5 MiB RSS
# at both 100 and 1e5 output times, set by the eigen layer; a coupled
# quadratic field solved in 2.1-2.8 s and 2.4-3.0 s (2-vCPU VM, one BLAS
# thread, numpy 2.4.6).  eig grows like n**3.
MAX_BASIS_SIZE = 2000


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Orthonormal multivariate Legendre basis of order c in m variables.

    `orders` is a read-only integer array of shape (n, m): row i gives the
    univariate order of each factor in basis function i.  Rows are sorted
    by total degree; within one degree they run lexicographically
    descending, e.g. (2,0), (1,1), (0,2).
    """

    c: int
    m: int
    orders: np.ndarray

    @property
    def n(self) -> int:
        return self.orders.shape[0]


def _compositions(total: int, m: int) -> Iterator[tuple[int, ...]]:
    # All tuples of m nonnegative ints summing to `total`, lexicographically
    # descending: (total,0,...), ..., (0,...,total).
    if m == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, m - 1):
            yield (first,) + rest


def build_basis(c: int, m: int) -> BasisSet:
    """The basis of all multi-indices of total degree <= c in m variables."""
    if not 1 <= m <= MAX_DIMENSION:
        raise ValueError(f"dimension {m} outside supported range 1..{MAX_DIMENSION}")
    if not 0 <= c <= MAX_ORDER:
        raise ValueError(f"order {c} outside supported range 0..{MAX_ORDER}")
    if math.comb(c + m, m) > MAX_BASIS_SIZE:
        raise ValueError(f"basis size {math.comb(c + m, m)} exceeds {MAX_BASIS_SIZE}")
    rows: list[tuple[int, ...]] = []
    for degree in range(c + 1):
        rows.extend(_compositions(degree, m))
    orders = np.array(rows, dtype=int).reshape(len(rows), m)
    orders.flags.writeable = False
    return BasisSet(c=c, m=m, orders=orders)


def _recurrence_coefficients(size: int) -> np.ndarray:
    # a_0..a_{size-1} of the normalized recurrence
    # x N_p = a_{p+1} N_{p+1} + a_p N_{p-1}, a_p = p / sqrt((2p-1)(2p+1)).
    # a_0 multiplies the nonexistent N_{-1} and is 0.
    a = np.zeros(size)
    p = np.arange(1.0, size)
    a[1:] = p / np.sqrt((2.0 * p - 1.0) * (2.0 * p + 1.0))
    return a


def jacobi_matrix(size: int) -> np.ndarray:
    """Multiplication by x on N_0..N_{size-1}: x N_p = sum_q J[p, q] N_q.

    J is symmetric tridiagonal.  Row size-1 drops its N_size term, so
    (J^e)[p, q] = <x^e N_p, N_q> is exact whenever p + e < size.
    """
    a = _recurrence_coefficients(size)[1:]
    return np.diag(a, 1) + np.diag(a, -1)


def derivative_matrix(size: int) -> np.ndarray:
    """d/dx on N_0..N_{size-1}: N_p' = sum_q D[p, q] N_q, exact at any size.

    D[p, q] = sqrt((2p+1)(2q+1)) for q < p with p - q odd, else 0.
    """
    p = np.arange(size)
    gap = p[:, None] - p[None, :]
    scale = np.sqrt(np.multiply.outer(2.0 * p + 1.0, 2.0 * p + 1.0))
    return np.where((gap > 0) & (gap % 2 == 1), scale, 0.0)


def _legendre_values(c: int, x: np.ndarray) -> np.ndarray:
    """N_0..N_c at the points x, stacked on a new leading axis, by the recurrence."""
    x = np.asarray(x, dtype=float)
    a = _recurrence_coefficients(c + 1)
    values = np.empty((c + 1,) + x.shape)
    values[0] = 1.0 / math.sqrt(2.0)
    for p in range(c):
        below = values[p - 1] if p else 0.0
        values[p + 1] = (x * values[p] - a[p] * below) / a[p + 1]
    return values


def evaluate_basis(basis: BasisSet, x: Sequence[float]) -> np.ndarray:
    """Values of all n basis functions at the point x.

    Each factor N_p(x_a) comes from the recurrence, so no monomial
    expansion (and none of its cancellation) is involved.  A complex x
    raises ValueError.
    """
    xa = real_array(x, "x")
    if xa.shape != (basis.m,):
        raise ValueError(f"point has shape {xa.shape}, expected ({basis.m},)")
    values = _legendre_values(basis.c, xa)
    return np.prod(values[basis.orders, np.arange(basis.m)], axis=1)
