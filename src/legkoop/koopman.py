"""Galerkin assembly of the Koopman matrix and spectral time propagation.

Along a trajectory of dx/dt = f(x), each basis function evolves as
dL_i/dt = grad(L_i) . f, which projects back onto the basis:

    K[i, k] = <dL_i/dt, L_k>        so that        dL/dt = K L

(exactly when f is linear, in the Galerkin-optimal sense otherwise).  With
right eigenvectors K V = V diag(lambda), observables g = H L propagate
analytically:

    g(t_k) = H V diag(exp(lambda t_k)) V^-1 L(x0)

No time stepping is involved.  K often splits into blocks that do not
couple at all (Duffing's odd symmetry gives an even and an odd block): the
connected components of the sparsity graph of K, found with no tolerance.
Each keeps its eigenvalues and real eigenvectors X = V_b T, T unitary
(`EigenBlock`), and all after eig stays in these real coordinates: y =
X^-1 L(x0) (`initial_eigenfunctions`) and H X, one block at a time.

`_evaluate_rows` walks the time grid in blocks of `_TIME_BLOCK` times and
yields each block's values: `propagate` gathers them into a `Trajectory`,
`solve` writes each block out, and `sweep` keeps the observables' rows.
A mode whose columns of H X are all zeros adds exact zeros and is
skipped.  Each real mode and each conjugate pair gives one complex
coefficient per row, grouped by distinct exponent d
(`_grouped_coefficients`), so each distinct exponential is computed and
multiplied once, in real arithmetic: the first block's E = exp(d t) is
held as one real table [Re E; Im E], and a block's values are one real
matrix product with it.  The grid must be evenly
spaced: every later block scales the grouped coefficients by
exp(d (t_s - t_0)) at its first time t_s, within a few
eps (1 + |lambda| max|t|) of exp(lambda t) (see `_evaluate_rows`).

K and H are assembled in coefficient space, without expanding any basis
function into monomials.  The basis lives on the unit box in y_a = (x_a -
c_a) / h_a, the field, the observables and the initial state in x.  Per
axis, multiplication by y is the tridiagonal Jacobi matrix J and d/dy is
the derivative matrix D of the normalized Legendre recurrence
(`legkoop.basis`), so multiplication by x_a is A_a = c_a I + h_a J, and
dL_i/dt = sum_j dL_i/dy_j f_j / h_j.  For each term coef * x^e of f_j

    <dL_i/dy_j * x^e / h_j, L_k> = prod_a M_a[i_a, k_a],
    M_a = A_a^{e_a},   M_j = D A_j^{e_j} / h_j

with i_a, k_a the per-axis orders of L_i and L_k.  Built at size
c + deg f + 1 the operators truncate nothing, so the projection is exact
and entries that vanish by structure (parity, degree) come out as exact
zeros.  On the unit box A_a = J bit for bit.  `legkoop.invariants` holds
the independent monomial reference the tests check this against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .basis import BasisSet, derivative_matrix, jacobi_matrix
from .dynamics import MAX_POLY_DEGREE, ObservableSet, VectorField
from .errors import NearDefectiveError, NonFiniteError, ValidationError
from .polyalg import real_array

# Not called here: perfbench/tracing.py swaps these names on this module to
# count calls, and test_instrumentation_restores_library_names reads them.
from .polyalg import box_inner_product, poly_mul  # noqa: F401

__all__ = [
    "NEAR_DEFECTIVE_CONDITION",
    "EXP_OVERFLOW_LIMIT",
    "ModelDiagnostics",
    "EigenBlock",
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

# Output times per block of propagation.  Each block is propagated from its
# own start (see `_evaluate_rows`), so the block size sets where roundoff is
# re-anchored: with blocks of 2048, 19 363 of the 40 000 rows of Duffing c=8
# (the benchmark's long solve), from row 1025 on, move by up to 3.2e-15 and
# the CSV is no longer byte-identical.  The CLI formats its CSV in chunks of
# their own size (`reprtext.RowWriter`), independent of this one.
_TIME_BLOCK = 1024


def _axis_powers(basis: BasisSet, size: int, max_power: int) -> list[list[np.ndarray]]:
    # Per axis a, A_a^0..A_a^max_power with A_a = c_a I + h_a J, multiplication
    # by x_a; products of exact zeros stay exact zeros.
    J = jacobi_matrix(size)
    axes = []
    for center, half_width in zip(basis.center, basis.half_width):
        A = half_width * J
        A.flat[:: size + 1] += center
        powers = [np.eye(size)]
        for _ in range(max_power):
            powers.append(powers[-1] @ A)
        axes.append(powers)
    return axes


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
    dL/dt = K L.  `vf` is given in the coordinates x of the basis's box.
    An entry beyond the float range comes out inf, or nan where
    infinities of both signs meet, without a warning: the leading blocks
    of lower orders may still be finite, and `eigendecompose` refuses a K
    that is not.
    """
    if vf.m != basis.m:
        raise ValueError(f"vector field dimension {vf.m} != basis dimension {basis.m}")
    if vf.max_degree > MAX_POLY_DEGREE:
        raise ValueError(f"vector field degree {vf.max_degree} exceeds {MAX_POLY_DEGREE}")
    size = basis.c + vf.max_degree + 1
    powers = _axis_powers(basis, size, vf.max_degree)
    D = derivative_matrix(size)
    orders = np.ascontiguousarray(basis.orders.T)
    K = np.zeros((basis.n, basis.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, fj in enumerate(vf.components):
            for term in fj.terms:
                factors = [
                    D @ powers[a][e] if a == j else powers[a][e] for a, e in enumerate(term.exp)
                ]
                coef = term.coef / basis.half_width[j]
                K += coef * _tensor_entries(factors, orders, orders)
    K.flags.writeable = False
    return K


def observable_matrix(basis: BasisSet, observables: ObservableSet) -> np.ndarray:
    """Project each observable onto the basis: H[i, k] = <g_i, L_k>.

    `observables` are given in the coordinates x of the basis's box.  The
    projection reproduces g_i exactly only when deg g_i <= c, so higher
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
    # x^e = x^e * (sqrt(2) N_0) per axis, so <x^e, N_q> = sqrt(2) (A^e)[0, q].
    max_degree = max(poly.total_degree for poly in observables.polys)
    powers = _axis_powers(basis, basis.c + max_degree + 1, max_degree)
    origin = np.zeros((basis.m, 1), dtype=int)
    orders = np.ascontiguousarray(basis.orders.T)
    scale = 2.0 ** (basis.m / 2)
    H = np.zeros((len(observables), basis.n))
    for i, g in enumerate(observables.polys):
        for term in g.terms:
            factors = [powers[a][e] for a, e in enumerate(term.exp)]
            H[i] += term.coef * scale * _tensor_entries(factors, origin, orders)[0]
    H.flags.writeable = False
    return H


@dataclass(frozen=True)
class ModelDiagnostics:
    """Quality measures of K and of its eigendecomposition.  Where K has
    repeated eigenvalues, `eigencondition`, which the NEAR_DEFECTIVE_CONDITION
    gate reads, is not a property of K: LAPACK picks a basis inside each
    degenerate eigenspace.  Duffing's K at c=8 has 10 pairs closer than 1e-8,
    and two K within 2e-13 of each other read 131.6 and 232.2."""

    eigenresidual: float  # max |K v - lambda v| over unit eigenvectors v
    eigencondition: float  # 2-norm condition number of V, unit columns
    skewness: float  # skewness_diagnostic(K)
    n_blocks: int  # connected components of the sparsity graph of K


@dataclass(frozen=True, eq=False)
class EigenBlock:
    """One sparsity block of K: its ascending `rows` in K, its `eigenvalues`
    in LAPACK's order (a conjugate pair adjacent, upper one first) and real
    `vectors` X: a real eigenvalue's unit eigenvector v, a pair's sqrt2 Re v
    and sqrt2 Im v of its upper one's unit v.  So X = V T with T unitary."""

    rows: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray


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


def eigendecompose(K: np.ndarray) -> tuple[np.ndarray, tuple[EigenBlock, ...], ModelDiagnostics]:
    """Sorted eigenvalues of K, and one `EigenBlock` per sparsity block.

    K is split into the connected components of its sparsity graph (see
    `_sparsity_components`), which is exact: no tolerance decides what
    couples.  Each block gets one `np.linalg.eig` of K untouched (no
    pre-scaling); all after it is real arithmetic on the block (Golub & Van
    Loan, Matrix Computations, 4th ed., 7.4), and no n x n V is formed.
    Eigenvalues sort by descending real, then imaginary part, over all blocks.
    A K with a non-finite entry raises NonFiniteError.

    `eigenresidual` is max |K v - lambda v| over unit eigenvectors, from the
    real K_b X - X Lambda_b with 2 x 2 rotation-scaling blocks in Lambda_b.
    V's singular values are the union of the blocks' X's, so
    `eigencondition`, their largest over their smallest, is V's condition
    number; above NEAR_DEFECTIVE_CONDITION, NearDefectiveError is raised.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be square, got shape {K.shape}")
    if not np.isfinite(K).all():
        raise NonFiniteError("K contains non-finite entries")
    skewness = skewness_diagnostic(K)  # first: its n x n sum is the largest array here
    blocks, singular, residual = [], [], 0.0
    for rows in _sparsity_components(K):
        block = K[np.ix_(rows, rows)]
        try:
            values, vectors = np.linalg.eig(block)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteError(f"eigendecomposition failed: {exc}") from None
        if not (np.isfinite(values).all() and np.isfinite(vectors).all()):
            raise NonFiniteError("eigendecomposition produced non-finite values")
        values = values.astype(complex)
        # LAPACK returns a pair as exact conjugates in adjacent columns, the
        # upper one first; `partner` swaps them and fixes each real one.
        partner = np.arange(values.size) + np.sign(values.imag).astype(int)
        if not (np.take(values, partner, mode="clip") == values.conj()).all():
            raise NonFiniteError("eigendecomposition returned unpaired complex eigenvalues")
        # eig's columns have unit norm; a lower one's is the conjugate of its partner's.
        X = np.where(values.imag < 0, -vectors.imag, vectors.real)
        X *= np.where(values.imag == 0, 1.0, math.sqrt(2))
        # K x = a x - b y and K y = b x + a y for a pair a +- ib, x + iy = sqrt2 v,
        # so a pair's |K v - lambda v| is hypot(R_x, R_y) / sqrt2, a real one's |R|.
        R = block @ X
        R -= X * values.real
        R += X[:, partner] * values.imag
        residual = max(residual, float(np.hypot(R, R[:, partner], out=R).max()) * math.sqrt(0.5))
        singular.append(np.linalg.svd(X, compute_uv=False))
        for arr in (rows, values, X):
            arr.flags.writeable = False
        blocks.append(EigenBlock(rows, values, X))

    singular = np.concatenate(singular)
    with np.errstate(divide="ignore"):
        condition = float(singular.max() / singular.min())
    if not math.isfinite(condition) or condition > NEAR_DEFECTIVE_CONDITION:
        raise NearDefectiveError(
            f"eigenvector condition {condition:.3e} exceeds "
            f"{NEAR_DEFECTIVE_CONDITION:.0e}; K is too close to defective"
        )
    eigenvalues = np.concatenate([block.eigenvalues for block in blocks])
    eigenvalues = eigenvalues[np.lexsort((-eigenvalues.imag, -eigenvalues.real))]
    eigenvalues.flags.writeable = False
    diagnostics = ModelDiagnostics(residual, condition, skewness, len(blocks))
    return eigenvalues, tuple(blocks), diagnostics


def skewness_diagnostic(K: np.ndarray) -> float:
    """How far K is from skew-symmetric: ||K + K^T||_F / max(1, ||K||_F).

    A perfectly skew-symmetric K would preserve basis orthonormality along
    the flow; truncation and boundary flux make some deviation normal, so
    this is reported, never asserted against a bound.  The norms are taken
    of S = K / 2^k, with 2^k above max|K| (k >= 0), as
    ||S + S^T||_F / max(2^-k, ||S||_F): a power of two scales exactly, so
    the value is the plain formula's wherever that one is finite, and it is
    finite for every finite K.
    """
    K = np.asarray(K, dtype=float)
    k = max(0, math.frexp(float(np.abs(K).max(initial=0.0)))[1])
    S = np.ldexp(K, -k)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(S + S.T) / max(math.ldexp(1.0, -k), np.linalg.norm(S)))


@dataclass(frozen=True, eq=False)
class KoopmanModel:
    """Assembled and eigendecomposed spectral model of one system.  Its
    `eigenvalues` are sorted; phi0 and propagation take the modes in the
    order of `blocks`: the eigenvalues of blocks[0], then of blocks[1], ..."""

    basis: BasisSet
    K: np.ndarray
    H: np.ndarray
    eigenvalues: np.ndarray
    blocks: tuple[EigenBlock, ...]
    diagnostics: ModelDiagnostics


def build_model(basis: BasisSet, vf: VectorField, observables: ObservableSet) -> KoopmanModel:
    """Assemble K and H for `vf` on `basis` and eigendecompose."""
    K = assemble_koopman(basis, vf)
    H = observable_matrix(basis, observables)
    eigenvalues, blocks, diagnostics = eigendecompose(K)
    return KoopmanModel(
        basis=basis,
        K=K,
        H=H,
        eigenvalues=eigenvalues,
        blocks=blocks,
        diagnostics=diagnostics,
    )


def initial_eigenfunctions(blocks: Sequence[EigenBlock], h0: np.ndarray) -> np.ndarray:
    """The initial state in the blocks' real eigen coordinates, y = X^-1 h0,
    in the blocks' order of modes: one real LU solve per block.  The complex
    phi0 = V^-1 h0 = T y has a pair's entries (y1 -+ i y2)/sqrt2.  A complex
    h0 raises ValueError."""
    h0 = real_array(h0, "h0")
    n = sum(b.rows.size for b in blocks)
    if h0.shape != (n,):
        raise ValueError(f"h0 has shape {h0.shape}, expected ({n},)")
    return np.concatenate([np.linalg.solve(b.vectors, h0[b.rows]) for b in blocks])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Observable values on the caller's time grid, one row per observable
    (one column per time).

    `n_modes_propagated` counts the modes the rows of H reach: a real mode
    whose column of H X is not all zeros, and both modes of a pair either of
    whose two columns is not.
    """

    values: np.ndarray
    n_modes_propagated: int


def propagate(model: KoopmanModel, phi0: np.ndarray, times) -> Trajectory:
    """Evaluate the model's observables at each time of an evenly spaced grid
    (see `propagate_observables`)."""
    return propagate_observables(model.H, model.blocks, phi0, times)


def propagate_observables(
    H: np.ndarray, blocks: Sequence[EigenBlock], phi0: np.ndarray, times
) -> Trajectory:
    """values[:, k] = H V diag(exp(lambda t_k)) V^-1 h0, V as `blocks` hold
    it and phi0 = X^-1 h0 the real coordinates `initial_eigenfunctions`
    returns.

    `times` must be strictly increasing and evenly spaced, as np.linspace
    makes them: later blocks of times are propagated from the first block's
    exponentials, and a grid whose spacing drifts by more than roundoff
    raises ValueError (see `_evaluate_rows`).  So does a phi0 that is
    complex or not of shape (n,), or an H that is complex or without n
    columns.  The values are the blocks of `_evaluate_rows`, gathered into
    read-only `values`.
    """
    values = np.empty((np.shape(H)[0], np.size(times)))
    for block, rows, n_modes in _evaluate_rows(H, blocks, phi0, times):
        values[:, block] = rows
    values.flags.writeable = False
    return Trajectory(values=values, n_modes_propagated=n_modes)


def _evaluate_rows(
    H: np.ndarray, blocks: Sequence[EigenBlock], phi0: np.ndarray, times
) -> Iterator[tuple[slice, np.ndarray, int]]:
    """Yield (block, values, n_modes) per block of the time grid.

    `values` is H V diag(exp(lambda t_k)) V^-1 h0 at times[block], one row
    per row of H, in a buffer the next block overwrites, and `n_modes` the
    number of modes H reaches.  The arguments and the grid are validated,
    and exp guarded against overflow, when the first block is asked for.

    The modes are grouped by distinct exponent (`_grouped_coefficients`),
    and the first block's exponentials E = exp(d t) are held once, as one
    real table [Re E; Im E].  A block starting at t_s scales the grouped
    coefficients S0 by exp(d (t_s - t_0)) and takes its values as one real
    product [Re S, -Im S] @ table.  That is exp(d t_k) only if
    t_k - t_s == t_j - t_0 for the k-th time of the block and the j-th of
    the table; a mismatch delta costs a relative error of |d delta|.  So
    before the first block is yielded every block's mismatch is measured,
    and a grid where max|d| max|delta| exceeds 4 eps (1 + max|d| max|t|) is
    refused with ValueError; np.linspace grids stay near 1.6 eps max|t|.
    A few block-sized real arrays are held, never one as long as the grid.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if not (times[1:] > times[:-1]).all():
        raise ValueError("times must be strictly increasing")
    eigenvalues = np.concatenate([b.eigenvalues for b in blocks])
    n = eigenvalues.size
    phi0 = real_array(phi0, "phi0")
    if phi0.shape != (n,):
        raise ValueError(f"phi0 has shape {phi0.shape}, expected ({n},)")
    H = real_array(H, "H")
    if H.ndim != 2 or H.shape[1] != n:
        raise ValueError(f"H has shape {H.shape}, expected {n} columns")

    # max over (i, k) of Re(lambda_i) t_k sits at a corner of the two
    # ranges, and rounding is monotone, so this is the max of the full
    # product table.  It covers every mode, reached by H or not, and the
    # offsets t_k - t_0 that later blocks are propagated by.
    real = eigenvalues.real
    corners = (times[0], times[-1], times[-1] - times[0])
    growth = max(a * b for a in (real.min(), real.max()) for b in corners)
    if growth > EXP_OVERFLOW_LIMIT:
        raise OverflowError(
            f"Re(lambda)*t reaches {growth:.3e} > {EXP_OVERFLOW_LIMIT}; "
            "exp would overflow"
        )
    # H X per block.  A mode whose column is all zeros adds exact zeros to
    # every row; a pair is reached through either of its two columns.
    HX = np.hstack([H[:, b.rows] @ b.vectors for b in blocks])
    reached = HX.any(axis=0)
    upper = np.flatnonzero(eigenvalues.imag > 0)
    reached[upper] |= reached[upper + 1]
    reached[upper + 1] = reached[upper]
    distinct, S0 = _grouped_coefficients(eigenvalues, HX, phi0, reached)
    n_modes = int(np.count_nonzero(reached))

    time_blocks = _time_blocks(times.size)
    width = max(block.stop - block.start for block in time_blocks)
    offsets = times[:width] - times[0]
    mismatch = max(
        (
            np.abs(times[block] - times[block.start] - offsets[: block.stop - block.start]).max()
            for block in time_blocks[1:]
        ),
        default=0.0,
    )
    largest = float(np.abs(distinct).max(initial=0.0))
    t_max = max(abs(times[0]), abs(times[-1]))
    if largest * mismatch > 4 * np.finfo(float).eps * (1 + largest * t_max):
        raise ValueError("times must be evenly spaced")

    exps = np.exp(np.multiply.outer(distinct, times[:width]))
    table = np.concatenate((exps.real, exps.imag))
    del exps  # not held beside the table while the blocks are yielded
    buffer = np.empty((H.shape[0], width))
    for block in time_blocks:
        size = block.stop - block.start
        S = S0 * np.exp(distinct * (times[block.start] - times[0]))
        values = np.matmul(np.hstack((S.real, -S.imag)), table[:, :size], out=buffer[:, :size])
        if not np.isfinite(values).all():
            raise NonFiniteError("propagation produced non-finite values")
        yield block, values, n_modes


def _grouped_coefficients(
    eigenvalues: np.ndarray, HX: np.ndarray, y: np.ndarray, reached: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d, S0): the distinct exponents d, the `reached` eigenvalues on or
    above the real axis in order of first appearance, and per row of H X
    S0[:, j] = the sum of the coefficients S of the modes of d_j.

    A real mode with column hx has S = hx y_k.  A pair a +- ib with columns
    hx, hy and coordinates y1, y2 has S = (hx y1 + hy y2) + i (hy y1 - hx y2):
    its two conjugate terms sum to Re(S exp((a + ib) t)).  So with
    E = exp(d_j t) a row of H V diag(exp(lambda t)) V^-1 h0 is Re(S0 E),
    each exactly repeated eigenvalue sharing one column.
    """
    modes = np.flatnonzero(reached & (eigenvalues.imag >= 0))
    pair = eigenvalues[modes].imag > 0
    upper = modes[pair]
    S = (HX[:, modes] * y[modes]).astype(complex)
    S.real[:, pair] += HX[:, upper + 1] * y[upper + 1]
    S.imag[:, pair] = HX[:, upper + 1] * y[upper] - HX[:, upper] * y[upper + 1]
    groups: dict[complex, int] = {}
    index = [groups.setdefault(z, len(groups)) for z in eigenvalues[modes].tolist()]
    distinct = np.array(list(groups), dtype=complex)
    S0 = np.zeros((HX.shape[0], distinct.size), dtype=complex)
    np.add.at(S0.T, index, S.T)
    return distinct, S0


def _time_blocks(size: int) -> list[slice]:
    # Blocks of _TIME_BLOCK times.  A last block of one time joins the block
    # before it: it would be multiplied as a matrix-vector product, which
    # rounds differently from a wider block.
    blocks = []
    start = 0
    while start < size:
        stop = min(start + _TIME_BLOCK, size)
        if stop == size - 1:
            stop = size
        blocks.append(slice(start, stop))
        start = stop
    return blocks
