"""Orthonormal multivariate Legendre basis on the unit box.

Basis functions are tensor products of normalized univariate Legendre
polynomials, one factor per variable, indexed by a graded set of
multi-indices.  Everything is held as coefficient tables:

* ``LPC``  -- raw Legendre coefficients, one row per order, ascending power
* ``NLPC`` -- rows scaled by sqrt((2i+1)/2) so <N_i, N_j> = delta_ij
* ``DLPC`` -- coefficients of d/dx N_i
* ``MLP``  -- row i spells out multivariate basis function i monomial by
  monomial; column j corresponds to the monomial with exponents
  ``indices.rows[j]``

The normalized three-term recurrence also gives the univariate operators
in coefficient space, `jacobi_matrix` (multiplication by x) and
`derivative_matrix` (d/dx), from which the Koopman matrix is assembled
without expanding any polynomial; `evaluate_basis` runs the same
recurrence at a point.

Indexing is 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .polyalg import Monomial, Polynomial

__all__ = [
    "MAX_DIMENSION",
    "MAX_ORDER",
    "MAX_BASIS_SIZE",
    "MultiIndexSet",
    "UnivariateTables",
    "BasisSet",
    "enumerate_multi_indices",
    "legendre_coefficients",
    "normalize_legendre",
    "derivative_table",
    "build_univariate_tables",
    "multivariate_basis",
    "build_basis",
    "basis_as_polynomial",
    "jacobi_matrix",
    "derivative_matrix",
    "evaluate_basis",
]

MAX_DIMENSION = 6
MAX_ORDER = 12
MAX_BASIS_SIZE = 20_000


@dataclass(frozen=True)
class MultiIndexSet:
    """Graded enumeration of per-variable polynomial orders.

    Row i gives the univariate order of each factor in basis function i.
    Rows are sorted by total degree; within one degree they run
    lexicographically descending, e.g. (2,0), (1,1), (0,2).
    """

    c: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)


def _compositions(total: int, m: int) -> Iterator[tuple[int, ...]]:
    # All tuples of m nonnegative ints summing to `total`, lexicographically
    # descending: (total,0,...), ..., (0,...,total).
    if m == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, m - 1):
            yield (first,) + rest


def enumerate_multi_indices(c: int, m: int) -> MultiIndexSet:
    """All exponent tuples of total degree <= c in m variables, graded order."""
    if not 1 <= m <= MAX_DIMENSION:
        raise ValueError(f"dimension {m} outside supported range 1..{MAX_DIMENSION}")
    if not 0 <= c <= MAX_ORDER:
        raise ValueError(f"order {c} outside supported range 0..{MAX_ORDER}")
    if math.comb(c + m, m) > MAX_BASIS_SIZE:
        raise ValueError(f"basis size {math.comb(c + m, m)} exceeds {MAX_BASIS_SIZE}")
    rows: list[tuple[int, ...]] = []
    for degree in range(c + 1):
        rows.extend(_compositions(degree, m))
    return MultiIndexSet(c=c, m=m, rows=tuple(rows))


@dataclass(frozen=True, eq=False)
class UnivariateTables:
    """Univariate Legendre coefficient tables up to order c."""

    c: int
    LPC: np.ndarray
    NLPC: np.ndarray
    DLPC: np.ndarray


def legendre_coefficients(c: int) -> np.ndarray:
    """Raw Legendre coefficients by ascending power, one row per order.

    Rows 0 and 1 seed the three-term recurrence
    P_i = ((2i-1) x P_{i-1} - (i-1) P_{i-2}) / i, applied columnwise.
    Row i has exact structural zeros at columns of opposite parity.
    """
    if c < 0:
        raise ValueError(f"order must be >= 0, got {c}")
    lpc = np.zeros((c + 1, c + 1))
    lpc[0, 0] = 1.0
    if c >= 1:
        lpc[1, 1] = 1.0
    for i in range(2, c + 1):
        for j in range(i):
            lpc[i, j + 1] += (2 * i - 1) / i * lpc[i - 1, j]
            lpc[i, j] -= (i - 1) / i * lpc[i - 2, j]
    return lpc


def normalize_legendre(lpc: np.ndarray) -> np.ndarray:
    """Scale row i by sqrt((2i+1)/2), making the rows orthonormal on [-1,1]."""
    factors = np.sqrt((2.0 * np.arange(lpc.shape[0]) + 1.0) / 2.0)
    return lpc * factors[:, None]


def derivative_table(nlpc: np.ndarray) -> np.ndarray:
    """Differentiate each normalized row: column j becomes (j+1) * column j+1."""
    dlpc = np.zeros_like(nlpc)
    cols = nlpc.shape[1]
    for j in range(cols - 1):
        dlpc[:, j] = (j + 1) * nlpc[:, j + 1]
    return dlpc


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


def build_univariate_tables(c: int) -> UnivariateTables:
    """Raw, normalized, and differentiated coefficient tables up to order c."""
    lpc = legendre_coefficients(c)
    nlpc = normalize_legendre(lpc)
    dlpc = derivative_table(nlpc)
    for arr in (lpc, nlpc, dlpc):
        arr.flags.writeable = False
    return UnivariateTables(c=c, LPC=lpc, NLPC=nlpc, DLPC=dlpc)


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Orthonormal multivariate Legendre basis."""

    indices: MultiIndexSet
    tables: UnivariateTables
    MLP: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def m(self) -> int:
        return self.indices.m

    @property
    def c(self) -> int:
        return self.indices.c

    @property
    def orders(self) -> np.ndarray:
        """Per-variable orders, shape (n, m): row i is ``indices.rows[i]``."""
        return np.array(self.indices.rows, dtype=int).reshape(self.n, self.m)


def multivariate_basis(tables: UnivariateTables, indices: MultiIndexSet) -> BasisSet:
    """Tensor-product expansion: MLP[i, j] = prod_k NLPC[ind[i,k], ind[j,k]]."""
    if tables.c != indices.c:
        raise ValueError(f"table order {tables.c} != index order {indices.c}")
    ind = np.array(indices.rows, dtype=int).reshape(len(indices), indices.m)
    mlp = np.ones((len(indices), len(indices)))
    for k in range(indices.m):
        mlp *= tables.NLPC[np.ix_(ind[:, k], ind[:, k])]
    mlp.flags.writeable = False
    return BasisSet(indices=indices, tables=tables, MLP=mlp)


def build_basis(c: int, m: int) -> BasisSet:
    """Convenience: enumerate indices, build tables, expand the basis."""
    return multivariate_basis(build_univariate_tables(c), enumerate_multi_indices(c, m))


def basis_as_polynomial(basis: BasisSet, i: int) -> Polynomial:
    """Basis function i as a sparse polynomial.

    The MLP columns are already in canonical graded order, so the nonzero
    entries of row i are a valid canonical term list as-is.
    """
    if not 0 <= i < basis.n:
        raise IndexError(f"basis index {i} out of range 0..{basis.n - 1}")
    row = basis.MLP[i]
    terms = tuple(
        Monomial(float(row[j]), basis.indices.rows[j])
        for j in range(basis.n)
        if row[j] != 0.0
    )
    return Polynomial(basis.m, terms)


def evaluate_basis(basis: BasisSet, x: Sequence[float]) -> np.ndarray:
    """Values of all n basis functions at the point x.

    Each factor N_p(x_a) comes from the recurrence, so no monomial
    expansion (and none of its cancellation) is involved.
    """
    xa = np.asarray(x, dtype=float)
    if xa.shape != (basis.m,):
        raise ValueError(f"point has shape {xa.shape}, expected ({basis.m},)")
    values = _legendre_values(basis.c, xa)
    return np.prod(values[basis.orders, np.arange(basis.m)], axis=1)
