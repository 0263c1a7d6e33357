"""Galerkin assembly of the Koopman matrix and spectral time propagation.

Along a trajectory of dx/dt = f(x), each basis function evolves as
dL_i/dt = grad(L_i) . f, which projects back onto the basis:

    K[i, k] = <dL_i/dt, L_k>        so that        dL/dt = K L

(exactly when f is linear, in the Galerkin-optimal sense otherwise).  With
right eigenvectors K V = V diag(lambda), observables g = H L propagate
analytically:

    g(t_k) = Re[ H V diag(exp(lambda t_k)) phi0 ],    phi0 = Vinv L(x0)

No time stepping is involved.  `_evaluate_rows` walks the time grid in
blocks of `_TIME_BLOCK` times and yields each block's real part and its
largest imaginary magnitude: `propagate` gathers the blocks into a
`Trajectory` (the values, the largest imaginary part and the number of
modes reached; the time grid stays the caller's), and the CLI writes each
block out and drops it.  In a block every mode the observables
reach (a mode whose column of H V is all zeros adds exact zeros and is
skipped) gets one exponential per time, scaled by phi0 and multiplied into
the block.  A conjugate pair of eigenvalues shares one exponential: the
lower one's row is the conjugate of the upper one's, which equals its own
exponential exactly (see `_mode_exponentials`).

K often splits into blocks that do not couple at all (Duffing's odd
symmetry gives an even and an odd block).  `eigendecompose` finds them as
the connected components of the sparsity graph of K, with no tolerance,
and runs one eigendecomposition per block; V and Vinv are block-diagonal
up to a permutation, so an observable that lives on one block reaches only
that block's modes.

K and H are assembled in coefficient space, without expanding any basis
function into monomials.  Per axis, multiplication by x is the tridiagonal
Jacobi matrix J and d/dx is the derivative matrix D of the normalized
Legendre recurrence (`legkoop.basis`), so for each term coef * x^e of f_j

    <dL_i/dx_j * x^e, L_k> = prod_a M_a[i_a, k_a],   M_a = J^{e_a}, M_j = D J^{e_j}

with i_a, k_a the per-axis orders of L_i and L_k.  Built at size
c + deg f + 1 the operators truncate nothing, so the projection is exact
and entries that vanish by structure (parity, degree) come out as exact
zeros.  `legkoop.invariants` holds the independent monomial reference the
tests check this against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .basis import BasisSet, derivative_matrix, jacobi_matrix
from .dynamics import MAX_POLY_DEGREE, ObservableSet, VectorField
from .errors import NearDefectiveError, NonFiniteError, ValidationError

# Not called here: perfbench/tracing.py swaps these names on this module to
# count calls, and test_instrumentation_restores_library_names reads them.
from .polyalg import box_inner_product, poly_mul  # noqa: F401

__all__ = [
    "NEAR_DEFECTIVE_CONDITION",
    "EXP_OVERFLOW_LIMIT",
    "ModelDiagnostics",
    "KoopmanModel",
    "Trajectory",
    "assemble_koopman",
    "observable_matrix",
    "eigendecompose",
    "build_model",
    "initial_eigenfunctions",
    "propagate",
    "propagate_observables",
    "skewness_diagnostic",
]

NEAR_DEFECTIVE_CONDITION = 1e12
EXP_OVERFLOW_LIMIT = 700.0

# Output times per block, of propagation and of the CLI's CSV rows.  On
# Duffing c=8 at 40 000 times a solve peaked at 33.6 / 34.5 / 35.4 / 37.6 MiB
# with blocks of 512 / 1024 / 2048 / 4096 times, and propagation took
# 8.5 / 8.3 / 9.1 ms at 512 / 1024 / 4096 but 11.4 ms at 128 (2-vCPU VM).
_TIME_BLOCK = 1024


def _jacobi_powers(size: int, max_power: int) -> list[np.ndarray]:
    # J^0..J^max_power; products of exact zeros stay exact zeros.
    J = jacobi_matrix(size)
    powers = [np.eye(size)]
    for _ in range(max_power):
        powers.append(powers[-1] @ J)
    return powers


def _tensor_entries(
    factors: Sequence[np.ndarray], rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    # out[i, k] = prod_a factors[a][rows[a, i], cols[a, k]]: the Galerkin
    # entries of a tensor product of univariate operators, one index row per
    # axis.  Gathering columns, then rows is a few times faster than one
    # two-dimensional gather and yields a fresh C-ordered array, whose
    # buffer numpy can reuse for the product.
    out = factors[0][:, cols[0]][rows[0]]
    for a in range(1, len(factors)):
        out = out * factors[a][:, cols[a]][rows[a]]
    return out


def assemble_koopman(basis: BasisSet, vf: VectorField) -> np.ndarray:
    """Galerkin projection of the flow derivative onto the basis.

    Row i holds the expansion of dL_i/dt, so K acts from the left:
    dL/dt = K L.
    """
    if vf.m != basis.m:
        raise ValueError(f"vector field dimension {vf.m} != basis dimension {basis.m}")
    if vf.max_degree > MAX_POLY_DEGREE:
        raise ValueError(f"vector field degree {vf.max_degree} exceeds {MAX_POLY_DEGREE}")
    size = basis.c + vf.max_degree + 1
    powers = _jacobi_powers(size, vf.max_degree)
    D = derivative_matrix(size)
    orders = np.ascontiguousarray(basis.orders.T)
    K = np.zeros((basis.n, basis.n))
    for j, fj in enumerate(vf.components):
        for term in fj.terms:
            factors = [
                D @ powers[e] if a == j else powers[e] for a, e in enumerate(term.exp)
            ]
            K += term.coef * _tensor_entries(factors, orders, orders)
    K.flags.writeable = False
    return K


def observable_matrix(basis: BasisSet, observables: ObservableSet) -> np.ndarray:
    """Project each observable onto the basis: H[i, k] = <g_i, L_k>.

    The projection reproduces g_i exactly only when deg g_i <= c, so higher
    degrees are rejected instead of silently truncated.
    """
    for name, poly in zip(observables.names, observables.polys):
        if poly.m != basis.m:
            raise ValidationError(
                f"observable '{name}' has dimension {poly.m}, expected {basis.m}"
            )
        if poly.total_degree > basis.c:
            raise ValidationError(
                f"observable '{name}' has degree {poly.total_degree} > order {basis.c}"
            )
    # x^e = x^e * (sqrt(2) N_0) per axis, so <x^e, N_q> = sqrt(2) (J^e)[0, q].
    max_degree = max(poly.total_degree for poly in observables.polys)
    powers = _jacobi_powers(basis.c + max_degree + 1, max_degree)
    origin = np.zeros((basis.m, 1), dtype=int)
    orders = np.ascontiguousarray(basis.orders.T)
    scale = 2.0 ** (basis.m / 2)
    H = np.zeros((len(observables), basis.n))
    for i, g in enumerate(observables.polys):
        for term in g.terms:
            factors = [powers[e] for e in term.exp]
            H[i] += term.coef * scale * _tensor_entries(factors, origin, orders)[0]
    H.flags.writeable = False
    return H


@dataclass(frozen=True)
class ModelDiagnostics:
    """Quality measures of K and of its eigendecomposition."""

    eigenresidual: float  # max entry of |K V - V diag(lambda)|
    eigencondition: float  # 2-norm condition number of V
    skewness: float  # skewness_diagnostic(K)
    n_blocks: int  # connected components of the sparsity graph of K


def _sparsity_components(K: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the sparsity graph of K.

    i and k are adjacent when K[i, k] or K[k, i] is nonzero, so K restricted
    to two different components is exactly zero in both directions.  Each
    index set is ascending; the components are ordered by their first index.
    """
    adjacent = (K != 0) | (K.T != 0)
    unvisited = np.ones(K.shape[0], dtype=bool)
    components = []
    while unvisited.any():
        frontier = np.zeros_like(unvisited)
        frontier[np.argmax(unvisited)] = True
        members = frontier.copy()
        while frontier.any():
            frontier = adjacent[frontier].any(axis=0) & ~members
            members |= frontier
        unvisited &= ~members
        components.append(np.flatnonzero(members))
    return components


def _normalized_eig(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Eigenpairs of one block, each vector of unit norm and rotated so its
    # first entry above 1e-12 in magnitude is positive real.
    try:
        eigenvalues, vectors = np.linalg.eig(block)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError(f"eigendecomposition failed: {exc}") from None
    eigenvalues = eigenvalues.astype(complex)
    vectors = vectors.astype(complex)
    if not (np.isfinite(eigenvalues).all() and np.isfinite(vectors).all()):
        raise NonFiniteError("eigendecomposition produced non-finite values")
    vectors /= np.linalg.norm(vectors, axis=0)
    columns = np.arange(vectors.shape[1])
    pivots = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), columns]
    vectors *= pivots.conjugate() / np.abs(pivots)
    return eigenvalues, vectors


def eigendecompose(
    K: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ModelDiagnostics]:
    """Eigenvalues and right eigenvectors of K, deterministically normalized.

    K is split into the connected components of its sparsity graph (see
    `_sparsity_components`), which is exact: no tolerance decides what
    couples.  Each block is eigendecomposed on its own, and its eigenvectors
    and their inverse are scattered into the n x n `V` and `Vinv`, which are
    therefore block-diagonal up to a permutation, with exact zeros off the
    blocks.  A K with one component is one block.

    Eigenvalues sort by descending real part, then descending imaginary
    part, over all blocks together.  Each eigenvector column is scaled to
    unit norm and rotated so its first nonzero entry is positive real, which
    pins the output regardless of eigensolver backend conventions.  K itself
    is handed to the solver untouched -- no pre-scaling of columns.

    `eigenresidual` is the largest residual over the blocks.  The singular
    values of `V` are the union of the blocks' singular values, so
    `eigencondition` (their largest over their smallest) is the 2-norm
    condition number of `V`; above NEAR_DEFECTIVE_CONDITION the
    decomposition is refused with NearDefectiveError.  `skewness` is
    `skewness_diagnostic(K)`.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be square, got shape {K.shape}")
    if not np.isfinite(K).all():
        raise ValueError("K contains non-finite entries")
    n = K.shape[0]
    eigenvalues = np.empty(n, dtype=complex)
    vectors = np.zeros((n, n), dtype=complex)
    blocks = []  # (rows of K, columns of V) per block
    singular = []
    residual = 0.0
    start = 0
    for rows in _sparsity_components(K):
        columns = np.arange(start, start + rows.size)
        start += rows.size
        block = K[np.ix_(rows, rows)]
        values, block_vectors = _normalized_eig(block)
        residual = max(
            residual, float(np.abs(block @ block_vectors - block_vectors * values).max())
        )
        singular.append(np.linalg.svd(block_vectors, compute_uv=False))
        eigenvalues[columns] = values
        vectors[np.ix_(rows, columns)] = block_vectors
        blocks.append((rows, columns))

    singular = np.concatenate(singular)
    with np.errstate(divide="ignore"):
        condition = float(singular.max() / singular.min())
    if not math.isfinite(condition) or condition > NEAR_DEFECTIVE_CONDITION:
        raise NearDefectiveError(
            f"eigenvector condition {condition:.3e} exceeds "
            f"{NEAR_DEFECTIVE_CONDITION:.0e}; K is too close to defective"
        )
    inverse = np.zeros((n, n), dtype=complex)
    for rows, columns in blocks:
        inverse[np.ix_(columns, rows)] = np.linalg.inv(vectors[np.ix_(rows, columns)])

    order = np.lexsort((-eigenvalues.imag, -eigenvalues.real))
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    inverse = inverse[order]
    for arr in (eigenvalues, vectors, inverse):
        arr.flags.writeable = False
    diagnostics = ModelDiagnostics(residual, condition, skewness_diagnostic(K), len(blocks))
    return eigenvalues, vectors, inverse, diagnostics


def skewness_diagnostic(K: np.ndarray) -> float:
    """How far K is from skew-symmetric: ||K + K^T||_F / max(1, ||K||_F).

    A perfectly skew-symmetric K would preserve basis orthonormality along
    the flow; truncation and boundary flux make some deviation normal, so
    this is reported, never asserted against a bound.
    """
    K = np.asarray(K, dtype=float)
    return float(np.linalg.norm(K + K.T) / max(1.0, np.linalg.norm(K)))


@dataclass(frozen=True, eq=False)
class KoopmanModel:
    """Assembled and eigendecomposed spectral model of one system."""

    basis: BasisSet
    K: np.ndarray
    H: np.ndarray
    observable_names: tuple[str, ...]
    eigenvalues: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    diagnostics: ModelDiagnostics


def build_model(basis: BasisSet, vf: VectorField, observables: ObservableSet) -> KoopmanModel:
    """Assemble K and H for `vf` on `basis` and eigendecompose."""
    K = assemble_koopman(basis, vf)
    H = observable_matrix(basis, observables)
    eigenvalues, V, Vinv, diagnostics = eigendecompose(K)
    return KoopmanModel(
        basis=basis,
        K=K,
        H=H,
        observable_names=tuple(observables.names),
        eigenvalues=eigenvalues,
        V=V,
        Vinv=Vinv,
        diagnostics=diagnostics,
    )


def initial_eigenfunctions(Vinv: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Eigenfunction values at the initial state: phi0 = Vinv h0."""
    Vinv = np.asarray(Vinv)
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (Vinv.shape[1],):
        raise ValueError(f"h0 has shape {h0.shape}, expected ({Vinv.shape[1]},)")
    return Vinv @ h0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Observable values on the caller's time grid, one row per observable
    (one column per time).

    `max_imag` is the largest imaginary magnitude discarded when taking the
    real part of `values`; for a real initial state it should sit at
    roundoff level.  `n_modes_propagated` counts the modes the rows of H
    reach: those whose column of H V is not all zeros.
    """

    values: np.ndarray
    max_imag: float
    n_modes_propagated: int


def propagate(model: KoopmanModel, phi0: np.ndarray, times) -> Trajectory:
    """Evaluate the model's observables at each requested time."""
    return propagate_observables(model.H, model.eigenvalues, model.V, phi0, times)


def propagate_observables(
    H: np.ndarray,
    eigenvalues: np.ndarray,
    V: np.ndarray,
    phi0: np.ndarray,
    times,
    imag_rows: Optional[int] = None,
) -> Trajectory:
    """values[:, k] = Re[H V diag(exp(lambda t_k)) phi0], per-mode exponentials.

    The blocks of `_evaluate_rows`, gathered into read-only `values`;
    `max_imag` is taken over the first `imag_rows` rows (all by default), so
    rows stacked under the observables, such as the state coordinates of the
    box-exit check, can share the exponentials without counting there.
    """
    values = np.empty((np.shape(H)[0], np.size(times)))
    max_imag = 0.0
    for block, real, imag, n_modes in _evaluate_rows(H, eigenvalues, V, phi0, times, imag_rows):
        values[:, block] = real
        max_imag = max(max_imag, imag)
    values.flags.writeable = False
    return Trajectory(values=values, max_imag=max_imag, n_modes_propagated=n_modes)


def _evaluate_rows(
    H: np.ndarray,
    eigenvalues: np.ndarray,
    V: np.ndarray,
    phi0: np.ndarray,
    times,
    imag_rows: Optional[int] = None,
) -> Iterator[tuple[slice, np.ndarray, float, int]]:
    """Yield (block, values, max_imag, n_modes) per block of the time grid.

    `values` is Re[H V diag(exp(lambda t_k)) phi0] at times[block], one row
    per row of H, in a buffer the next block overwrites; `max_imag` is the
    largest imaginary magnitude it dropped over its first `imag_rows` rows
    (all by default); `n_modes` is the number of modes H reaches.  The grid
    is validated, and exp guarded against overflow, when the first block is
    asked for.  Only one block of times is ever held as complex values.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if not (times[1:] > times[:-1]).all():
        raise ValueError("times must be strictly increasing")
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    phi0 = np.asarray(phi0)

    # max over (i, k) of Re(lambda_i) t_k sits at a corner of the two
    # ranges, and rounding is monotone, so this is the max of the full
    # product table.  It covers every mode, reached by H or not.
    real = eigenvalues.real
    growth = max(a * b for a in (real.min(), real.max()) for b in (times[0], times[-1]))
    if growth > EXP_OVERFLOW_LIMIT:
        raise OverflowError(
            f"Re(lambda)*t reaches {growth:.1f} > {EXP_OVERFLOW_LIMIT}; "
            "exp would overflow"
        )
    # A mode whose column of H V is all zeros adds exact zeros to every row.
    HV = np.asarray(H) @ np.asarray(V)
    reached = np.flatnonzero(HV.any(axis=0))
    HV_reached = HV[:, reached]
    scale = phi0[reached, None]
    # A last block may take one time more than _TIME_BLOCK.
    buffer = np.empty((HV.shape[0], min(times.size, _TIME_BLOCK + 1)), dtype=complex)
    for block, modes in _mode_exponentials(eigenvalues[reached], times):
        # complex (eigenvalues were cast above), so any phi0 multiplies into it
        modes *= scale
        block_values = np.matmul(HV_reached, modes, out=buffer[:, : modes.shape[1]])
        if not np.isfinite(block_values.real).all():
            raise NonFiniteError("propagation produced non-finite values")
        max_imag = float(np.abs(block_values[:imag_rows].imag).max())
        yield block, block_values.real, max_imag, int(reached.size)


def _mode_exponentials(eigenvalues: np.ndarray, times: np.ndarray):
    """Yield (slice, exp(outer(eigenvalues, times[slice]))) per block of times.

    Each distinct value of complex(Re lambda, |Im lambda|) is exponentiated
    once per block; the row of an eigenvalue below the real axis is the
    conjugate of its partner's row.  exp(conj z) == conj(exp z) bit for bit,
    and conj(lambda) * t differs from conj(lambda * t) at most in the sign
    of a zero, so every row equals exp(lambda t); only a zero part (the
    imaginary part at t = 0, say) may carry the other sign.
    """
    rows: dict[complex, int] = {}
    index = [
        rows.setdefault(complex(z.real, abs(z.imag)), len(rows))
        for z in eigenvalues.tolist()
    ]
    distinct = np.array(list(rows), dtype=complex)
    below = (eigenvalues.imag < 0)[:, None]
    start = 0
    while start < times.size:
        stop = min(start + _TIME_BLOCK, times.size)
        if stop == times.size - 1:
            # A block of one time would be multiplied as a matrix-vector
            # product, which rounds differently from a wider block.
            stop = times.size
        block = slice(start, stop)
        exps = np.multiply.outer(distinct, times[block])
        np.exp(exps, out=exps)
        modes = exps[index]
        np.conjugate(modes, out=modes, where=below)
        yield block, modes
        start = stop
