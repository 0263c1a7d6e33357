"""Koopman matrix assembly, eigendecomposition, analytic propagation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from legkoop.basis import build_basis, derivative_matrix, evaluate_basis, jacobi_matrix
from legkoop.dynamics import (
    MAX_NUM_STEPS,
    MAX_POLY_DEGREE,
    ObservableSet,
    VectorField,
    duffing_vector_field,
)
from legkoop.errors import NearDefectiveError, NonFiniteError, ValidationError
from legkoop.invariants import basis_as_polynomial, gauss_legendre_inner_product, total_derivative
from legkoop.koopman import (
    _TIME_BLOCK,
    EigenBlock,
    _evaluate_rows,
    _grouped_coefficients,
    assemble_koopman,
    build_model,
    eigendecompose,
    initial_eigenfunctions,
    observable_matrix,
    propagate,
    propagate_observables,
    skewness_diagnostic,
)
from legkoop.polyalg import Polynomial, box_inner_product, canonicalize, evaluate, variable
from legkoop.refinteg import rk4_integrate

HARMONIC = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
DUFFING = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
IDENTITY_QP = ObservableSet.identity(("q", "p"))
# Two oscillators (frequencies 1 and sqrt 2) with light damping and
# quadratic coupling.
QUADRATIC_4D = VectorField(4, tuple(canonicalize(t, 4) for t in [
    [(1.0, (0, 1, 0, 0))],
    [(-1.0, (1, 0, 0, 0)), (-0.02, (0, 1, 0, 0)), (0.1, (1, 0, 1, 0))],
    [(1.0, (0, 0, 0, 1))],
    [(-2.0, (0, 0, 1, 0)), (-0.02, (0, 0, 0, 1)), (0.1, (2, 0, 0, 0))],
]))
# Two identical damped oscillators: K splits into sparsity blocks with the
# same entries, so their eigenvalues repeat bit for bit.
TWIN_OSCILLATORS = VectorField(4, tuple(canonicalize(t, 4) for t in [
    [(1.0, (0, 1, 0, 0))],
    [(-1.0, (1, 0, 0, 0)), (-0.1, (0, 1, 0, 0))],
    [(1.0, (0, 0, 0, 1))],
    [(-1.0, (0, 0, 1, 0)), (-0.1, (0, 0, 0, 1))],
]))


def as_dict(p):
    return {t.exp: t.coef for t in p.terms}


# ---------------------------------------------------------------------------
# total derivative along the flow

def test_constant_basis_function_has_zero_derivative():
    basis = build_basis(3, 2)
    assert total_derivative(basis, 0, DUFFING).is_zero


def test_harmonic_chain_rule_maps_l1_to_l2():
    basis = build_basis(3, 2)
    # L1 = 0.866 q, dq/dt = p, so dL1/dt = 0.866 p = L2.
    d = total_derivative(basis, 1, HARMONIC)
    L2 = basis_as_polynomial(basis, 2)
    assert d == L2


def test_duffing_derivative_picks_up_cubic_spring_term():
    basis = build_basis(3, 2)
    d = total_derivative(basis, 2, DUFFING)  # L2 = 0.866 p
    coefs = as_dict(d)
    assert (3, 0) in coefs
    assert coefs[(3, 0)] == pytest.approx(0.866 * -0.001, abs=5e-7)


def test_total_derivative_dimension_mismatch():
    basis = build_basis(2, 2)
    vf3 = VectorField(3, tuple(variable(3, k) for k in range(3)))
    with pytest.raises(ValueError):
        total_derivative(basis, 0, vf3)


# ---------------------------------------------------------------------------
# Koopman matrix assembly

def test_zero_vector_field_gives_zero_matrix():
    basis = build_basis(2, 2)
    zero = VectorField(2, (Polynomial(2, ()), Polynomial(2, ())))
    assert not assemble_koopman(basis, zero).any()


def test_harmonic_degree_one_block_is_rotation():
    for c in range(1, 5):
        basis = build_basis(c, 2)
        K = assemble_koopman(basis, HARMONIC)
        block = K[np.ix_([1, 2], [1, 2])]
        assert block == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]), abs=1e-14)


def test_degree_triangularity_for_linear_fields():
    rng = np.random.default_rng(13)
    basis = build_basis(3, 2)
    degrees = basis.orders.sum(axis=1)
    for _ in range(5):
        A = rng.normal(size=(2, 2))
        vf = VectorField(
            2,
            tuple(
                canonicalize([(A[j, 0], (1, 0)), (A[j, 1], (0, 1))], 2)
                for j in range(2)
            ),
        )
        K = assemble_koopman(basis, vf)
        for i in range(basis.n):
            for k in range(basis.n):
                if degrees[k] > degrees[i]:
                    assert abs(K[i, k]) <= 1e-12


def test_koopman_entries_match_quadrature():
    for c in (1, 2, 3):
        basis = build_basis(c, 2)
        K = assemble_koopman(basis, DUFFING)
        funcs = [basis_as_polynomial(basis, k) for k in range(basis.n)]
        for i in range(basis.n):
            d = total_derivative(basis, i, DUFFING)
            for k in range(basis.n):
                nodes = (d.total_degree + funcs[k].total_degree) // 2 + 1
                q = gauss_legendre_inner_product(d, funcs[k], nodes)
                assert K[i, k] == pytest.approx(q, abs=1e-10)


def test_assembly_rejects_degree_overflow():
    basis = build_basis(3, 2)
    huge = VectorField(
        2, (canonicalize([(1.0, (65, 0))], 2), Polynomial(2, ()))
    )
    with pytest.raises(ValueError):
        assemble_koopman(basis, huge)


# ---------------------------------------------------------------------------
# observable projection

def test_constant_observable_row():
    basis = build_basis(2, 2)
    obs = ObservableSet(("one",), (canonicalize([(1.0, (0, 0))], 2),))
    H = observable_matrix(basis, obs)
    assert H[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert np.abs(H[0, 1:]).max() <= 1e-14


def test_identity_observable_rows():
    basis = build_basis(3, 2)
    H = observable_matrix(basis, IDENTITY_QP)
    expected = math.sqrt(2.0 / 3.0) * math.sqrt(2.0)  # <q, N1(q) N0(p)>
    assert H[0, 1] == pytest.approx(expected, abs=1e-14)
    assert H[0, 1] == pytest.approx(1.1547, abs=1e-4)
    assert H[1, 2] == pytest.approx(H[0, 1], abs=1e-15)
    mask = np.ones_like(H, dtype=bool)
    mask[0, 1] = mask[1, 2] = False
    assert np.abs(H[mask]).max() <= 1e-14


def test_observable_reconstruction_is_exact():
    basis = build_basis(3, 2)
    obs = ObservableSet(
        ("mix",), (canonicalize([(0.7, (2, 1)), (-0.2, (0, 0)), (1.1, (1, 0))], 2),)
    )
    H = observable_matrix(basis, obs)
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        assert H @ evaluate_basis(basis, x) == pytest.approx(
            [evaluate(obs.polys[0], x)], abs=1e-12
        )


def test_observable_degree_above_order_rejected():
    basis = build_basis(2, 2)
    obs = ObservableSet(("cubic",), (canonicalize([(1.0, (3, 0))], 2),))
    with pytest.raises(ValidationError):
        observable_matrix(basis, obs)


# ---------------------------------------------------------------------------
# eigendecomposition

def mode_eigenvalues(blocks):
    # The eigenvalues in the blocks' order of modes, which phi0 follows.
    return np.concatenate([b.eigenvalues for b in blocks])


def dense_V(blocks):
    # The n x n complex V of unit eigenvectors, columns in the blocks' order
    # of modes, rebuilt column by column from each block's real form.
    n = sum(b.rows.size for b in blocks)
    V = np.zeros((n, n), dtype=complex)
    j = 0
    for b in blocks:
        for k, value in enumerate(b.eigenvalues):
            if value.imag > 0:
                V[b.rows, j] = (b.vectors[:, k] + 1j * b.vectors[:, k + 1]) / math.sqrt(2)
            elif value.imag < 0:
                V[b.rows, j] = V[b.rows, j - 1].conjugate()
            else:
                V[b.rows, j] = b.vectors[:, k]
            j += 1
    return V


def blockwise_HV(H, blocks):
    # H V from H[:, rows] X per block in real arithmetic, then a pair's
    # columns x, y as (x + iy)/sqrt2 and its conjugate.
    columns = []
    for b in blocks:
        HX = H[:, b.rows] @ b.vectors
        for k, value in enumerate(b.eigenvalues):
            if value.imag > 0:
                columns.append((HX[:, k] + 1j * HX[:, k + 1]) * math.sqrt(0.5))
            elif value.imag < 0:
                columns.append(columns[-1].conjugate())
            else:
                columns.append(HX[:, k].astype(complex))
    HV = np.column_stack(columns)
    assert np.abs(HV - H @ dense_V(blocks)).max() <= 1e-15 * np.abs(H).sum(axis=1).max()
    return HV


def complex_phi0(blocks, h0):
    # The complex phi0 = V^-1 h0 = T X^-1 h0, in the blocks' order of modes:
    # a pair's entries (y1 -+ i y2)/sqrt2 of the real y = X^-1 h0.
    y = initial_eigenfunctions(blocks, h0)
    phi0 = y.astype(complex)
    upper = np.flatnonzero(mode_eigenvalues(blocks).imag > 0)
    phi0[upper] = (y[upper] - 1j * y[upper + 1]) * math.sqrt(0.5)
    phi0[upper + 1] = phi0[upper].conjugate()
    return phi0


def dense_Vinv(blocks):
    # V^-1 column by column: phi0 of each unit vector.
    n = sum(b.rows.size for b in blocks)
    return np.column_stack([complex_phi0(blocks, e) for e in np.eye(n)])


def one_shot(H, blocks, h0, times):
    # H V diag(exp(lambda t)) V^-1 h0 in complex arithmetic, every mode at
    # every time at once; its imaginary part is what a real initial state
    # leaves at roundoff.
    modes = np.exp(np.multiply.outer(mode_eigenvalues(blocks), times))
    return blockwise_HV(H, blocks) @ (modes * complex_phi0(blocks, h0)[:, None])


def test_diagonal_matrix_decomposition():
    K = np.diag([1.0, 2.0, 3.0])
    lam, blocks, diag = eigendecompose(K)
    assert lam == pytest.approx([3.0, 2.0, 1.0])  # sorted by descending real part
    # Three 1 x 1 blocks in the order of K, each vector +-1.
    assert [b.rows.tolist() for b in blocks] == [[0], [1], [2]]
    V = dense_V(blocks)
    assert np.abs(np.abs(V) - np.eye(3)).max() <= 1e-14
    assert np.abs(K @ V - V * mode_eigenvalues(blocks)).max() <= 1e-14
    assert diag.eigenresidual <= 1e-8 * (1 + 3.0)
    assert diag.eigencondition == pytest.approx(1.0, abs=1e-12)


def test_rotation_block_eigenvalues():
    lam, blocks, _ = eigendecompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert lam == pytest.approx([1j, -1j], abs=1e-14)
    assert np.abs(dense_V(blocks) @ dense_Vinv(blocks) - np.eye(2)).max() <= 1e-12


def test_harmonic_spectrum_is_integer_imaginary():
    basis = build_basis(3, 2)
    K = assemble_koopman(basis, HARMONIC)
    lam, _, diag = eigendecompose(K)
    assert np.abs(lam.real).max() <= 1e-8
    target = {0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0}
    for v in lam:
        assert min(abs(v.imag - t) for t in target) <= 1e-8
    assert diag.eigenresidual <= 1e-8 * (1 + np.abs(K).max())


def test_eigenvalue_sort_and_conjugate_pairing():
    rng = np.random.default_rng(29)
    for _ in range(10):
        K = rng.normal(size=(6, 6))
        lam, blocks, diag = eigendecompose(K)
        keys = [(-v.real, -v.imag) for v in lam]
        assert keys == sorted(keys)
        V = dense_V(blocks)
        residual = np.abs(K @ V - V * mode_eigenvalues(blocks)).max()
        assert residual <= 1e-8 * (1 + np.abs(K).max())
        assert np.abs(V @ dense_Vinv(blocks) - np.eye(6)).max() <= 1e-8 * diag.eigencondition
        # Real matrix: spectrum closed under conjugation.
        unpaired = list(lam[np.abs(lam.imag) > 1e-9])
        for v in lam:
            if v.imag > 1e-9:
                assert min(abs(u - v.conjugate()) for u in unpaired) <= 1e-9


def test_eigendecompose_is_deterministic():
    K = np.array([[0.0, 1.0, 0.2], [-1.0, 0.0, 0.0], [0.1, 0.0, -0.5]])
    lam1, blocks1, diag1 = eigendecompose(K)
    lam2, blocks2, diag2 = eigendecompose(K.copy())
    assert lam1.tobytes() == lam2.tobytes()
    assert diag1 == diag2
    for b1, b2 in zip(blocks1, blocks2, strict=True):
        for field in ("rows", "eigenvalues", "vectors"):
            assert getattr(b1, field).tobytes() == getattr(b2, field).tobytes()


@pytest.mark.parametrize(
    "values",
    [[1j, 2.0, -1j], [-1j, 1j, 2.0], [1j, -1j + 1e-16, 2.0], [2.0, 1j]],
    ids=["apart", "lower-first", "inexact", "no-partner"],
)
def test_eigendecompose_refuses_pairs_out_of_place(monkeypatch, values):
    # The real form relies on LAPACK's layout: each pair adjacent, upper
    # first, exactly conjugate.  Anything else is refused, not guessed at.
    values = np.array(values, dtype=complex)
    monkeypatch.setattr(np.linalg, "eig", lambda a: (values, np.eye(values.size, dtype=complex)))
    with pytest.raises(NonFiniteError, match="unpaired"):
        eigendecompose(np.ones((values.size, values.size)))


def test_eigenresidual_is_the_complex_residual_of_the_vectors_eig_returns(monkeypatch):
    # With eig's vectors moved off the eigenvectors the residual is far above
    # roundoff: the real-form residual must be max |K v - lambda v| over the
    # complex columns, to roundoff relative to it, for pairs and real ones.
    rng = np.random.default_rng(61)
    K = rng.normal(size=(7, 7))
    values, vectors = np.linalg.eig(K)
    upper = np.flatnonzero(values.imag > 0)
    assert upper.size and (values.imag == 0).any()
    for pair_error, real_error in ((1e-3, 1e-6), (1e-6, 1e-3)):
        error = np.where(values.imag == 0, real_error, pair_error)
        moved = vectors + error * rng.normal(size=vectors.shape)
        moved[:, upper + 1] = moved[:, upper].conjugate()
        monkeypatch.setattr(np.linalg, "eig", lambda a, moved=moved: (values, moved))
        expected = np.abs(K @ moved - moved * values).max()
        assert eigendecompose(K)[2].eigenresidual == pytest.approx(expected, rel=1e-12)


def test_jordan_block_raises_near_defective():
    K = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-14]])
    with pytest.raises(NearDefectiveError):
        eigendecompose(K)


def block_labels(V):
    # The block of each column: the label of its largest entry's row.
    return np.argmax(np.abs(V), axis=0)


def test_permuted_block_diagonal_matrix_decomposes_per_block():
    rng = np.random.default_rng(53)
    sizes = (5, 1, 7, 3)
    n = sum(sizes)
    block = np.zeros((n, n))
    label = np.repeat(np.arange(len(sizes)), sizes)
    for b in range(len(sizes)):
        rows = np.flatnonzero(label == b)
        block[np.ix_(rows, rows)] = rng.normal(size=(rows.size, rows.size))
    perm = rng.permutation(n)
    K = block[np.ix_(perm, perm)]
    label = label[perm]
    lam, blocks, diag = eigendecompose(K)

    assert diag.n_blocks == len(sizes)
    remaining = list(np.linalg.eigvals(K))
    for v in lam:
        k = int(np.argmin(np.abs(np.array(remaining) - v)))
        assert abs(remaining.pop(k) - v) <= 1e-12
    # Each block's rows are the rows of one block K was built from.
    assert sorted(b.rows.tolist() for b in blocks) == sorted(
        np.flatnonzero(label == b).tolist() for b in range(len(sizes))
    )
    V, Vinv = dense_V(blocks), dense_Vinv(blocks)
    column_block = label[block_labels(V)]
    off_block = label[:, None] != column_block[None, :]
    assert (V[off_block] == 0).all()
    assert (Vinv.T[off_block] == 0).all()
    assert diag.eigencondition == pytest.approx(np.linalg.cond(V), rel=1e-12)
    assert np.abs(K @ V - V * mode_eigenvalues(blocks)).max() <= diag.eigenresidual * (1 + 1e-12)
    assert np.abs(V @ Vinv - np.eye(n)).max() <= 1e-12 * diag.eigencondition


def real_form_cases(rng):
    # Random real matrices of size 1..40 with only real eigenvalues, only
    # conjugate pairs, both, and one pair repeated (to roundoff) throughout;
    # then K of random fields with m = 1..4 and Duffing's K at c=8, whose
    # pairs repeat to 1e-8.
    for n in range(1, 41):
        S = rng.normal(size=(n, n))
        yield S @ np.diag(rng.normal(size=n)) @ np.linalg.inv(S)
        yield rng.normal(size=(n, n))
        if n % 2 == 0:
            D = np.zeros((n, n))
            for k in range(0, n, 2):
                a, b = rng.normal(), rng.uniform(0.5, 2.0)
                D[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
            yield S @ D @ np.linalg.inv(S)
            Q = np.linalg.qr(S)[0]
            yield Q @ np.kron(np.eye(n // 2), D[:2, :2]) @ Q.T
    for m, c in [(1, 8), (2, 6), (3, 4), (4, 3)]:
        for _ in range(3):
            vf = VectorField(m, tuple(random_poly(rng, m, 3, 4) for _ in range(m)))
            yield assemble_koopman(build_basis(c, m), vf)
    yield assemble_koopman(build_basis(8, 2), DUFFING)


def test_real_form_matches_the_complex_eigendecomposition():
    # Against np.linalg.eig's complex, unit-column V, block by block:
    # eigenvalues bit for bit, singular values and phi0 = V^-1 h0 to
    # 1e-12 cond, the residual at roundoff.  A refused K must have a
    # complex V as ill-conditioned.  Each pair is adjacent and exactly
    # conjugate, as LAPACK lays it out.
    rng = np.random.default_rng(59)
    eps = np.finfo(float).eps
    decomposed = 0
    for K in real_form_cases(rng):
        n = K.shape[0]
        try:
            lam, blocks, diag = eigendecompose(K)
        except NearDefectiveError:
            s = np.linalg.svd(np.linalg.eig(K)[1], compute_uv=False)
            assert s[-1] <= 1e-12 * s[0]
            continue
        decomposed += 1
        cond = diag.eigencondition
        V, values, residual, column = np.zeros((n, n), dtype=complex), [], 0.0, 0
        for b in blocks:
            block = K[np.ix_(b.rows, b.rows)]
            w, Vb = np.linalg.eig(block)
            w, Vb = w.astype(complex), Vb / np.linalg.norm(Vb, axis=0)
            assert w.tobytes() == b.eigenvalues.tobytes()
            upper = np.flatnonzero(w.imag > 0)
            assert np.array_equal(np.flatnonzero(w.imag < 0), upper + 1)
            assert (w[upper + 1] == w[upper].conjugate()).all()
            s = np.linalg.svd(Vb, compute_uv=False)
            assert np.abs(np.linalg.svd(b.vectors, compute_uv=False) - s).max() <= (
                1e-12 * cond * s.max()
            )
            residual = max(residual, np.abs(block @ Vb - Vb * w).max())
            V[np.ix_(b.rows, np.arange(column, column + b.rows.size))] = Vb
            values.append(w)
            column += b.rows.size
        values = np.concatenate(values)
        assert lam.tobytes() == values[np.lexsort((-values.imag, -values.real))].tobytes()
        assert cond == pytest.approx(np.linalg.cond(V), rel=1e-12 * cond)
        h0 = rng.normal(size=n)
        expected = np.linalg.solve(V, h0)
        error = np.abs(complex_phi0(blocks, h0) - expected).max()
        assert error <= 1e-12 * cond * np.abs(expected).max()
        roundoff = n * eps * (np.abs(K).max() + np.abs(lam).max())
        assert abs(diag.eigenresidual - residual) <= roundoff
    assert decomposed >= 125  # of 133


def test_eigendecompose_input_validation():
    with pytest.raises(ValueError):
        eigendecompose(np.ones((2, 3)))
    with pytest.raises(NonFiniteError, match="^K contains non-finite entries$"):
        eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# propagation

def identity_blocks(eigenvalues):
    # One block whose eigenvectors are the unit vectors (real eigenvalues),
    # or whose real form is the identity (pairs).
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    n = eigenvalues.size
    return (EigenBlock(np.arange(n), eigenvalues, np.eye(n)),)


def test_initial_eigenfunctions_identity_eigenvectors():
    h0 = np.array([1.0, 2.0, 3.0])
    for eigenvalues in ([1.0, 2.0, 3.0], [1j, -1j, 2.0]):
        y = initial_eigenfunctions(identity_blocks(eigenvalues), h0)
        assert y.dtype == np.float64 and y == pytest.approx(h0)
    # The complex phi0's pair entries are (y1 -+ i y2)/sqrt2 of y = X^-1 h0.
    phi0 = complex_phi0(identity_blocks([1j, -1j, 2.0]), h0)
    assert phi0 == pytest.approx([(1 - 2j) / math.sqrt(2), (1 + 2j) / math.sqrt(2), 3.0])


def test_initial_eigenfunctions_round_trip():
    basis = build_basis(3, 2)
    K = assemble_koopman(basis, DUFFING)
    _, blocks, _ = eigendecompose(K)
    h0 = evaluate_basis(basis, (1.0, 0.0))
    y = initial_eigenfunctions(blocks, h0)
    start = 0
    for b in blocks:
        assert np.abs(b.vectors @ y[start:start + b.rows.size] - h0[b.rows]).max() <= 1e-10
        start += b.rows.size
    assert np.abs(dense_V(blocks) @ complex_phi0(blocks, h0) - h0).max() <= 1e-10


def test_initial_eigenfunctions_shape_check():
    with pytest.raises(ValueError):
        initial_eigenfunctions(identity_blocks([1.0, 2.0, 3.0]), np.ones(2))


def test_initial_eigenfunctions_refuses_a_complex_h0():
    blocks = identity_blocks([1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        with pytest.raises(ValueError, match="h0 must be real"):
            initial_eigenfunctions(blocks, np.ones(3) + 1e-3j)


def test_propagation_at_time_zero_reconstructs_state():
    basis = build_basis(3, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    rng = np.random.default_rng(41)
    for _ in range(100):
        x0 = rng.uniform(-1.0, 1.0, size=2)
        h0 = evaluate_basis(basis, x0)
        phi0 = initial_eigenfunctions(model.blocks, h0)
        traj = propagate(model, phi0, np.array([0.0]))
        assert np.abs(traj.values[:, 0] - x0).max() <= 1e-9


def test_harmonic_trajectory_is_cosine():
    times = np.linspace(0.0, 10.0, 100)
    for c in range(1, 6):
        basis = build_basis(c, 2)
        model = build_model(basis, HARMONIC, IDENTITY_QP)
        h0 = evaluate_basis(basis, (1.0, 0.0))
        traj = propagate(model, initial_eigenfunctions(model.blocks, h0), times)
        assert np.abs(traj.values[0] - np.cos(times)).max() <= 1e-8
        assert np.abs(traj.values[1] + np.sin(times)).max() <= 1e-8
        imag = np.abs(one_shot(model.H, model.blocks, h0, times).imag).max()
        assert imag <= 1e-8 * max(1.0, np.abs(traj.values).max())


def test_linear_exactness_random_stable_systems():
    rng = np.random.default_rng(37)
    times = np.linspace(0.0, 5.0, 50)
    tried = 0
    while tried < 5:
        A = rng.normal(size=(2, 2))
        if np.linalg.eigvals(A).real.max() > -0.05:
            continue  # want a comfortably stable system
        tried += 1
        vf = VectorField(
            2,
            tuple(
                canonicalize([(A[j, 0], (1, 0)), (A[j, 1], (0, 1))], 2)
                for j in range(2)
            ),
        )
        x0 = rng.uniform(-0.5, 0.5, size=2)
        lamA, W = np.linalg.eig(A)
        closed = np.real(
            W @ (np.exp(np.multiply.outer(lamA, times)) * np.linalg.solve(W, x0)[:, None])
        )
        for c in (1, 3):
            basis = build_basis(c, 2)
            model = build_model(basis, vf, IDENTITY_QP)
            phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, x0))
            traj = propagate(model, phi0, times)
            assert np.abs(traj.values - closed).max() <= 1e-7


def test_duffing_against_rk4():
    basis = build_basis(3, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    times = np.linspace(0.0, 10.0, 100)
    h0 = evaluate_basis(basis, (1.0, 0.0))
    traj = propagate(model, initial_eigenfunctions(model.blocks, h0), times)
    ref = rk4_integrate(DUFFING, (1.0, 0.0), times, 1e-4)
    assert np.abs(traj.values[0] - ref[0]).max() <= 1e-2
    assert np.abs(one_shot(model.H, model.blocks, h0, times).imag).max() <= 1e-8


def test_short_time_oracle_agreement_small_epsilon():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.01)
    basis = build_basis(5, 2)
    model = build_model(basis, vf, IDENTITY_QP)
    times = np.linspace(0.0, 1.0, 50)
    phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, (1.0, 0.0)))
    traj = propagate(model, phi0, times)
    ref = rk4_integrate(vf, (1.0, 0.0), times, 1e-4)
    assert np.abs(traj.values - ref).max() <= 1e-4


def test_propagate_times_validation():
    basis = build_basis(1, 2)
    model = build_model(basis, HARMONIC, IDENTITY_QP)
    phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, (0.5, 0.0)))
    with pytest.raises(ValueError):
        propagate(model, phi0, np.array([]))
    with pytest.raises(ValueError):
        propagate(model, phi0, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        propagate(model, phi0, np.array([0.0, np.inf]))
    # Later blocks are propagated from the first, so the grid must be even.
    times = np.linspace(0.0, 10.0, 3 * _TIME_BLOCK)
    propagate(model, phi0, times)
    times[2 * _TIME_BLOCK + 5] += 1e-9
    with pytest.raises(ValueError, match="evenly spaced"):
        propagate(model, phi0, times)
    with pytest.raises(ValueError, match="evenly spaced"):
        propagate(model, phi0, np.geomspace(1.0, 10.0, _TIME_BLOCK + 2))


def test_propagate_overflow_guard():
    H = np.array([[1.0]])
    phi0 = np.array([1.0])
    with pytest.raises(OverflowError):
        propagate_observables(H, identity_blocks([800.0]), phi0, np.array([1.0]))
    # Just below the guard is fine.
    traj = propagate_observables(H, identity_blocks([640.0]), phi0, np.array([0.5]))
    assert np.isfinite(traj.values).all()


def test_overflow_guard_with_negative_times():
    blocks = identity_blocks([0.5, -800.0])
    phi0 = np.array([1.0, 1.0])
    # Re(lambda) t = 800 at t = -1; the guard covers the mode H does not reach.
    with pytest.raises(OverflowError):
        propagate_observables(np.array([[1.0, 0.0]]), blocks, phi0, np.array([-1.0, 0.0]))
    traj = propagate_observables(
        np.array([[1.0, 0.0]]), blocks, phi0, np.array([-0.5, 0.5])
    )
    assert traj.n_modes_propagated == 1
    assert traj.values[0] == pytest.approx(np.exp([-0.25, 0.25]), rel=1e-15)
    # Re(lambda) t stays at 400 on both ends of this grid, but a later block
    # is propagated by exp(lambda (t - t_0)), and 400 * 2 = 800.
    phi0 = np.ones(1)
    times = np.linspace(-1.0, 1.0, 2 * _TIME_BLOCK)
    with pytest.raises(OverflowError):
        propagate_observables(np.ones((1, 1)), identity_blocks([400.0]), phi0, times)
    traj = propagate_observables(np.ones((1, 1)), identity_blocks([200.0]), phi0, times)
    assert np.isfinite(traj.values).all()


def test_the_num_steps_cap_grid_stays_within_the_bound():
    # 10^6 times to t = 1000, block by block against the one-shot formula:
    # roundoff in the offsets grows with t, and the bound grows with
    # |lambda| t alike.
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    HV = blockwise_HV(model.H, model.blocks)
    r = np.flatnonzero(HV.any(axis=0))
    eigenvalues = mode_eigenvalues(model.blocks)[r]
    times = np.linspace(0.0, 1000.0, MAX_NUM_STEPS)
    rel = _relative_bound(eigenvalues, times)
    h0 = evaluate_basis(basis, (0.6, -0.3))
    phi0 = complex_phi0(model.blocks, h0)
    traj = propagate(model, initial_eigenfunctions(model.blocks, h0), times)
    worst = 0.0
    for start in range(0, MAX_NUM_STEPS, _TIME_BLOCK):
        block = slice(start, start + _TIME_BLOCK)
        terms = np.exp(np.multiply.outer(eigenvalues, times[block])) * phi0[r, None]
        expected = HV[:, r] @ terms
        slack = rel.max() * (np.abs(HV[:, r]) @ np.abs(terms))
        # The real values, and the imaginary part they leave out.
        error = np.maximum(np.abs(traj.values[:, block] - expected.real), np.abs(expected.imag))
        worst = max(worst, (error / (1e-15 * np.abs(expected).max() + slack)).max())
    print(f"worst error at the num_steps cap: {worst:.3f} of the bound")
    assert worst <= 1.0


def test_propagation_matches_every_mode_explicitly():
    # Duffing c=8: the identity observables reach 20 of the 45 modes.
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    h0 = evaluate_basis(basis, (0.6, -0.3))
    times = np.linspace(0.0, 20.0, 200)
    traj = propagate(model, initial_eigenfunctions(model.blocks, h0), times)
    modes = np.exp(np.multiply.outer(mode_eigenvalues(model.blocks), times))
    modes *= complex_phi0(model.blocks, h0)[:, None]
    explicit = model.H @ dense_V(model.blocks) @ modes
    assert traj.n_modes_propagated == 20
    assert np.abs(traj.values - explicit.real).max() <= 1e-13


def test_unreached_rows_propagate_zeros():
    basis = build_basis(4, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    H = state_H = np.zeros((2, basis.n))
    phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, (0.6, -0.3)))
    traj = propagate_observables(
        np.vstack((H, state_H)), model.blocks, phi0, np.linspace(0.0, 5.0, 40)
    )
    assert traj.n_modes_propagated == 0
    assert (traj.values == 0).all()


def _relative_bound(eigenvalues, times):
    # How far a later block's exponentials may move from np.exp, relative,
    # per mode: the grid check admits a mismatch between a later block's
    # offsets and the first block's that costs up to this much.
    eps = np.finfo(float).eps
    return 4 * eps * (1 + np.abs(eigenvalues)[:, None] * np.abs(times[[0, -1]]).max())


def _check_against_one_shot(H, blocks, h0, times):
    # The blocked, grouped propagation from the real y = X^-1 h0 against the
    # complex formula from phi0 = V^-1 h0, evaluated in one piece.  The
    # first block is the same sum, regrouped, to roundoff.  A later block
    # scales the grouped coefficients by one exponential per distinct
    # exponent, which moves each term by up to `_relative_bound`, so its
    # values may move by that bound at the largest |lambda| times
    # sum_i |HV_i exp_i phi0_i|.  The formula's imaginary part, which the
    # real path never forms, stays within the same bound of 0.  Returns the
    # number of times in each block.
    eigenvalues = mode_eigenvalues(blocks)
    HV = blockwise_HV(H, blocks)
    r = np.flatnonzero(HV.any(axis=0))
    phi0 = complex_phi0(blocks, h0)
    terms = np.exp(np.multiply.outer(eigenvalues[r], times)) * phi0[r, None]
    expected = HV[:, r] @ terms
    y = initial_eigenfunctions(blocks, h0)
    sizes = [block.stop - block.start for block, *_ in _evaluate_rows(H, blocks, y, times)]
    traj = propagate_observables(H, blocks, y, times)
    assert traj.n_modes_propagated == r.size
    slack = _relative_bound(eigenvalues[r], times).max() * (np.abs(HV[:, r]) @ np.abs(terms))
    slack[:, : sizes[0]] = 0.0
    roundoff = 1e-15 * np.abs(expected).max()
    error = np.abs(traj.values - expected.real)
    assert (error <= roundoff + slack).all()
    assert np.abs(expected.imag).max() <= roundoff + slack.max()
    return sizes


def test_duffing_propagation_matches_the_one_shot_formula():
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    h0 = evaluate_basis(basis, (0.6, -0.3))
    times = np.linspace(0.0, 40.0, 40_000)
    sizes = _check_against_one_shot(model.H, model.blocks, h0, times)
    assert sizes == [_TIME_BLOCK] * (40_000 // _TIME_BLOCK) + [40_000 % _TIME_BLOCK]


# A last block of one time joins the block before it.
@pytest.mark.parametrize(
    "nt, sizes",
    [
        (_TIME_BLOCK - 1, [_TIME_BLOCK - 1]),
        (_TIME_BLOCK, [_TIME_BLOCK]),
        (_TIME_BLOCK + 1, [_TIME_BLOCK + 1]),
        (2 * _TIME_BLOCK + 1, [_TIME_BLOCK, _TIME_BLOCK + 1]),
    ],
    ids=["B-1", "B", "B+1", "2B+1"],  # B = _TIME_BLOCK
)
def test_block_diagonal_propagation_matches_the_one_shot_formula(nt, sizes):
    # Rotation-scaling 2 x 2 blocks (conjugate pairs), one of them twice
    # (an exactly repeated pair), and a 1 x 1 block (a real eigenvalue).
    rng = np.random.default_rng(nt)
    blocks = []
    for _ in range(3):
        a, b = rng.uniform(-0.5, 0.1), rng.uniform(0.5, 3.0)
        blocks.append(np.array([[a, b], [-b, a]]))
    blocks += [blocks[0], np.array([[rng.uniform(-0.5, 0.1)]])]
    n = sum(len(block) for block in blocks)
    K = np.zeros((n, n))
    start = 0
    for block in blocks:
        K[start:start + len(block), start:start + len(block)] = block
        start += len(block)
    eigenvalues, eigenblocks, _ = eigendecompose(K)
    assert np.unique(eigenvalues).size < n and (eigenvalues.imag == 0).any()
    h0 = rng.standard_normal(n)
    times = np.linspace(-2.0, 5.0, nt)
    H = rng.standard_normal((3, n))
    assert _check_against_one_shot(H, eigenblocks, h0, times) == sizes


@pytest.mark.parametrize(
    "H",
    [np.array([[1.0, 0.0, 1.0]]), np.array([[0.0, 1.0, 1.0]]), np.array([[0.0, 2.0, 0.0]])],
    ids=["x-column", "y-column", "y-column-alone"],
)
def test_a_pair_reached_through_one_real_column_matches_the_one_shot_formula(H):
    # With X = I, H reaches the pair 1 +- 2i through only one of its real
    # columns: the pair's coefficient is still formed from both of its
    # coordinates, and both of its modes count as reached.
    blocks = identity_blocks([0.1 + 2j, 0.1 - 2j, -0.4])
    h0 = np.array([0.7, -1.3, 0.5])
    times = np.linspace(-3.0, 3.0, 301)
    y = initial_eigenfunctions(blocks, h0)
    eigenvalues = mode_eigenvalues(blocks)
    reached = np.array([True, True, bool(H[0, 2])])
    distinct, S0 = _grouped_coefficients(eigenvalues, H, y, reached)
    assert np.array_equal(distinct, eigenvalues[[0, 2] if H[0, 2] else [0]])
    expected = one_shot(H, blocks, h0, times)
    grouped = (S0 @ np.exp(np.multiply.outer(distinct, times))).real
    assert np.abs(grouped - expected.real).max() <= 1e-15 * np.abs(expected).max()
    traj = propagate_observables(H, blocks, y, times)
    assert traj.n_modes_propagated == reached.sum()
    assert np.abs(traj.values - expected.real).max() <= 1e-15 * np.abs(expected).max()


@pytest.mark.parametrize(
    "case", ["phi0-too-long", "phi0-of-one-entry", "phi0-complex", "H-too-narrow", "H-complex"]
)
def test_propagation_refuses_phi0_or_H_that_do_not_fit_the_blocks(case):
    # Duffing c=3, n = 10: phi0 must be the real y = X^-1 h0 of shape (10,),
    # and H must be real with 10 columns; nothing is dropped or broadcast.
    basis = build_basis(3, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, (0.6, -0.3)))
    H, times = model.H, np.linspace(0.0, 1.0, 5)
    match = {"phi0-complex": "phi0 must be real", "H-too-narrow": "H has shape",
             "H-complex": "H must be real"}.get(case, "phi0 has")
    if case == "phi0-too-long":
        phi0 = np.append(phi0, 1.0)
    elif case == "phi0-of-one-entry":
        phi0 = phi0[:1]
    elif case == "phi0-complex":
        phi0 = phi0 + 0j
    elif case == "H-complex":
        H = H + 1e-3j
    else:
        H = H[:, :-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        with pytest.raises(ValueError, match=match):
            propagate_observables(H, model.blocks, phi0, times)
        if H is model.H:
            with pytest.raises(ValueError, match=match):
                propagate(model, phi0, times)


def _dense_eig_one_shot(K, H, h0, times):
    # Re[H W diag(exp(mu t)) W^-1 h0] from one np.linalg.eig of the whole
    # dense K: no sparsity blocks, no real form, no grouping, and every
    # exponential from np.exp (in slices of times, to bound the memory).
    mu, W = np.linalg.eig(K)
    HW, coefficients = H @ W, np.linalg.solve(W, h0)
    out = np.empty((H.shape[0], times.size))
    for start in range(0, times.size, 4096):
        part = slice(start, start + 4096)
        modes = np.exp(np.multiply.outer(mu, times[part])) * coefficients[:, None]
        out[:, part] = (HW @ modes).real
    return out


def _seed_one_state(m):
    # The benchmark's seed-1 initial state (perfbench/workloads.py): a phase
    # on a fixed-radius orbit.
    theta = np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, size=2)
    if m == 4:
        r = 0.45
        return (r * math.cos(theta[0]), r * math.sin(theta[0]),
                r * math.cos(theta[1]), r * math.sqrt(2.0) * math.sin(theta[1]))
    return (0.9 * math.cos(theta[0]), 0.9 * math.sin(theta[0]))


@pytest.mark.parametrize(
    "vf, c, x0, t_final, nt",
    [
        (DUFFING, 10, _seed_one_state(2), 2.0, 100),  # sweep-duffing, its top order
        (QUADRATIC_4D, 5, _seed_one_state(4), 5.0, 100),  # solve-4d-quadratic
        (DUFFING, 8, _seed_one_state(2), 40.0, 40_000),  # solve-long-duffing
        (TWIN_OSCILLATORS, 3, (0.4, -0.2, 0.1, 0.3), 8.0, 2 * _TIME_BLOCK + 1),
        (QUADRATIC_4D, 4, (0.3, 0.1, -0.2, 0.2), 6.0, 3 * _TIME_BLOCK + 37),
    ],
    ids=["sweep-duffing", "solve-4d-quadratic", "solve-long-duffing", "repeated-eigenvalues",
         "ragged-last-block"],
)
def test_propagation_matches_a_dense_eig_one_shot(vf, c, x0, t_final, nt):
    # The workloads' seed-1 configs, a field with exactly repeated
    # eigenvalues and a grid whose last block is partial, against the
    # textbook formula, on the state coordinates.
    basis = build_basis(c, vf.m)
    model = build_model(basis, vf, ObservableSet.identity(tuple(f"y{k}" for k in range(vf.m))))
    h0 = evaluate_basis(basis, x0)
    times = np.linspace(0.0, t_final, nt)
    traj = propagate(model, initial_eigenfunctions(model.blocks, h0), times)
    expected = _dense_eig_one_shot(model.K, model.H, h0, times)
    error = np.abs(traj.values - expected).max()
    print(f"largest difference from the dense one-shot formula: {error:.2e}")
    assert error <= 1e-13


def test_exactly_repeated_eigenvalues_of_a_field_are_grouped():
    # The twin oscillators' exactly repeated modes share one exponential each.
    basis = build_basis(3, 4)
    observables = ObservableSet(
        ("x1", "x2", "energy"),
        (
            variable(4, 0),
            variable(4, 2),
            canonicalize([(0.5, (2, 0, 0, 0)), (0.5, (0, 1, 0, 0)), (0.5, (0, 0, 0, 2))], 4),
        ),
    )
    model = build_model(basis, TWIN_OSCILLATORS, observables)
    eigenvalues = mode_eigenvalues(model.blocks)
    HV = blockwise_HV(model.H, model.blocks)
    r = np.flatnonzero(HV.any(axis=0))
    HX = np.hstack([model.H[:, b.rows] @ b.vectors for b in model.blocks])
    reached = HV.any(axis=0)
    distinct, _ = _grouped_coefficients(eigenvalues, HX, np.ones(basis.n), reached)
    upper = eigenvalues[r][eigenvalues[r].imag >= 0]
    assert np.unique(upper).size == distinct.size < upper.size
    h0 = evaluate_basis(basis, (0.4, -0.2, 0.1, 0.3))
    times = np.linspace(0.0, 8.0, 2 * _TIME_BLOCK + 1)
    assert _check_against_one_shot(model.H, model.blocks, h0, times) == [
        _TIME_BLOCK, _TIME_BLOCK + 1
    ]


def test_propagation_memory_does_not_grow_with_the_whole_grid():
    # Duffing c=8 over 40 000 times with the state rows, as in a solve: the
    # result holds 1.5 MiB; a complex array of all rows at every time would
    # add 2.4 MiB and a reached-modes x times array 12 MiB.
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    all_H = np.vstack((model.H, observable_matrix(basis, IDENTITY_QP)))
    phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, (0.6, -0.3)))
    times = np.linspace(0.0, 40.0, 40_000)
    tracemalloc.start()
    try:
        propagate_observables(all_H, model.blocks, phi0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_eigen_layer_memory_holds_no_dense_complex_matrix():
    # The two quadratically coupled oscillators at c=8 (n = 495, blocks of
    # 255 and 240), as a solve runs them: eigendecomposition, phi0 and the
    # first block of 100 times with the state rows.  This peaks at 3.7 MiB,
    # and one n x n complex array is 3.7 MiB more: a dense V for H V reads
    # 6.8 MiB, and dense V and Vinv read 12.6 MiB.
    basis = build_basis(8, 4)
    K = assemble_koopman(basis, QUADRATIC_4D)
    H = observable_matrix(basis, ObservableSet.identity(("x1", "v1", "x2", "v2")))
    all_H = np.vstack((H, H))
    h0 = evaluate_basis(basis, (0.3, 0.1, -0.2, 0.2))
    tracemalloc.start()
    try:
        _, blocks, diag = eigendecompose(K)
        phi0 = initial_eigenfunctions(blocks, h0)
        next(_evaluate_rows(all_H, blocks, phi0, np.linspace(0.0, 5.0, 100)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.n == 495 and diag.n_blocks == 2
    assert peak <= 5.5 * 2**20


def test_propagation_at_the_num_steps_cap_holds_no_complex_output():
    # The same solve at 10^6 times: the real result holds 31 MiB; a complex
    # array of all rows at every time would add 61 MiB.
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    all_H = np.vstack((model.H, observable_matrix(basis, IDENTITY_QP)))
    phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, (0.6, -0.3)))
    times = np.linspace(0.0, 1000.0, MAX_NUM_STEPS)
    tracemalloc.start()
    try:
        trajectory = propagate_observables(all_H, model.blocks, phi0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"propagation at the num_steps cap peaked at {peak / 2**20:.1f} MiB")
    assert peak <= 48 * 2**20
    assert trajectory.values.shape == (4, MAX_NUM_STEPS)


# ---------------------------------------------------------------------------
# skewness diagnostic

def test_skewness_of_rotation_is_zero():
    assert skewness_diagnostic(np.array([[0.0, 1.0], [-1.0, 0.0]])) == 0.0


def test_skewness_of_identity_is_two():
    assert skewness_diagnostic(np.eye(2)) == pytest.approx(2.0)


def test_skewness_is_the_plain_formula_bit_for_bit():
    # Wherever ||K + K^T|| / max(1, ||K||) is finite, the power-of-two
    # scaling changes no bit of it, near the top of the float range too:
    # each K is also taken scaled to max|K| = 4e153.
    rng = np.random.default_rng(31)
    large = 0
    for _ in range(300):
        n = int(rng.integers(1, 61))
        K = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (n, n))
        K[rng.random((n, n)) < 0.3] = 0.0
        cases = [K]
        if K.any():
            cases.append(K * (4e153 / np.abs(K).max()))
        for K in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                plain = float(np.linalg.norm(K + K.T) / max(1.0, np.linalg.norm(K)))
            if math.isfinite(plain):
                assert skewness_diagnostic(K) == plain
                large += np.abs(K).max() > 1e150
    assert large >= 50
    for c in range(11):
        K = assemble_koopman(build_basis(c, 2), DUFFING)
        plain = float(np.linalg.norm(K + K.T) / max(1.0, np.linalg.norm(K)))
        assert skewness_diagnostic(K) == plain


def test_skewness_of_a_K_whose_norm_overflows_is_finite():
    # ||K||_F overflows above about 1e154; the skewness stays 2 for a
    # diagonal K and 0 for a skew-symmetric one.
    big = np.diag([1e308, -1e308, 1e200])
    assert skewness_diagnostic(big) == pytest.approx(2.0)
    assert skewness_diagnostic(np.array([[0.0, 1e308], [-1e308, 0.0]])) == 0.0


def test_duffing_skewness_is_finite_nonzero():
    basis = build_basis(3, 2)
    K = assemble_koopman(basis, DUFFING)
    s = skewness_diagnostic(K)
    assert math.isfinite(s)
    assert s > 0.0
    # eigendecompose reports the same number in its diagnostics.
    assert eigendecompose(K)[2].skewness == s


# ---------------------------------------------------------------------------
# operator assembly against the monomial reference

def random_poly(rng, m, degree, terms):
    # `terms` monomials, each of a random total degree 0..degree.
    exps = [rng.multinomial(rng.integers(0, degree + 1), [1 / m] * m) for _ in range(terms)]
    return canonicalize([(rng.normal(), tuple(int(v) for v in e)) for e in exps], m)


@pytest.mark.parametrize("m, c", [(1, 6), (2, 6), (3, 5), (4, 4)])
def test_operator_assembly_matches_monomial_reference(m, c):
    rng = np.random.default_rng(100 + m)
    basis = build_basis(c, m)
    funcs = [basis_as_polynomial(basis, k) for k in range(basis.n)]
    vf = VectorField(m, tuple(random_poly(rng, m, 3, 4) for _ in range(m)))
    K = assemble_koopman(basis, vf)
    derivatives = [total_derivative(basis, i, vf) for i in range(basis.n)]
    K_ref = np.array([[box_inner_product(d, f) for f in funcs] for d in derivatives])
    assert np.abs(K - K_ref).max() <= 1e-12
    observables = ObservableSet(
        ("g0", "g1"), tuple(random_poly(rng, m, c, 5) for _ in range(2))
    )
    H = observable_matrix(basis, observables)
    H_ref = np.array([[box_inner_product(g, f) for f in funcs] for g in observables.polys])
    assert np.abs(H - H_ref).max() <= 1e-12


def _affine_substitute_oracle(p, center, half_width):
    # p(center + half_width y) in y: the full binomial expansion, every axis,
    # every weight, zeros included.
    out = []
    for t in p.terms:
        expansion = [(t.coef, ())]
        for c_k, h_k, e in zip(center, half_width, t.exp):
            binomial = [math.comb(e, j) * c_k ** (e - j) * h_k**j for j in range(e + 1)]
            expansion = [
                (coef * w, exps + (j,))
                for coef, exps in expansion
                for j, w in enumerate(binomial)
            ]
        out.extend(expansion)
    return canonicalize(out, p.m)


def _quadrature(a, b):
    # Gauss-Legendre quadrature of <a, b> on the unit box, exact for their degrees.
    return gauss_legendre_inner_product(a, b, (a.total_degree + b.total_degree) // 2 + 1)


def test_assembly_on_a_shifted_box_matches_quadrature_of_the_expanded_polynomials():
    # On the box center +- half_width, K and H are the unit-box projections of
    # g_j(y) = f_j(center + half_width y) / half_width_j and of each
    # observable at center + half_width y, expanded binomially.
    rng = np.random.default_rng(2029)
    worst = 0.0
    for m in (1, 2, 3):
        for c in range(1, 5):
            center = tuple(float(v) for v in rng.uniform(-1.0, 1.0, m))
            half_width = tuple(float(v) for v in rng.uniform(0.5, 3.0, m))
            vf = VectorField(m, tuple(random_poly(rng, m, 3, 3) for _ in range(m)))
            observables = ObservableSet(
                ("g0", "g1"), tuple(random_poly(rng, m, c, 3) for _ in range(2))
            )
            basis = build_basis(c, m, center, half_width)
            unit = build_basis(c, m)
            expanded = VectorField(m, tuple(
                canonicalize(
                    [(t.coef / half_width[j], t.exp)
                     for t in _affine_substitute_oracle(f, center, half_width).terms],
                    m,
                )
                for j, f in enumerate(vf.components)
            ))
            funcs = [basis_as_polynomial(unit, k) for k in range(unit.n)]
            derivatives = [total_derivative(unit, i, expanded) for i in range(unit.n)]
            g = [_affine_substitute_oracle(p, center, half_width) for p in observables.polys]
            K_ref = np.array([[_quadrature(d, f) for f in funcs] for d in derivatives])
            H_ref = np.array([[_quadrature(gi, f) for f in funcs] for gi in g])
            worst = max(
                worst,
                np.abs(assemble_koopman(basis, vf) - K_ref).max(),
                np.abs(observable_matrix(basis, observables) - H_ref).max(),
            )
    assert worst <= 1e-12


def test_assembly_equals_the_two_dimensional_gather_bit_for_bit():
    # The plain Galerkin sum, each factor taken with one np.ix_ gather and
    # multiplied in axis order, term by term: K must match it exactly.
    rng = np.random.default_rng(7)
    m, c = 3, 4
    basis = build_basis(c, m)
    vf = VectorField(m, tuple(random_poly(rng, m, 3, 6) for _ in range(m)))
    size = c + vf.max_degree + 1
    J, D = jacobi_matrix(size), derivative_matrix(size)
    powers = [np.eye(size)]
    for _ in range(vf.max_degree):
        powers.append(powers[-1] @ J)
    orders = basis.orders
    K = np.zeros((basis.n, basis.n))
    for j, fj in enumerate(vf.components):
        for term in fj.terms:
            out = None
            for a, e in enumerate(term.exp):
                M = D @ powers[e] if a == j else powers[e]
                factor = M[np.ix_(orders[:, a], orders[:, a])]
                out = factor if out is None else out * factor
            K += term.coef * out
    assert assemble_koopman(basis, vf).tobytes() == K.tobytes()


def test_linear_fields_are_exactly_degree_triangular():
    rng = np.random.default_rng(43)
    for m, c in [(2, 4), (3, 3)]:
        basis = build_basis(c, m)
        degrees = basis.orders.sum(axis=1)
        above = degrees[None, :] > degrees[:, None]
        for _ in range(3):
            A, b = rng.normal(size=(m, m)), rng.normal(size=m)
            unit = [tuple(int(a == k) for a in range(m)) for k in range(m)]
            vf = VectorField(
                m,
                tuple(
                    canonicalize([(b[j], (0,) * m)] + list(zip(A[j], unit)), m)
                    for j in range(m)
                ),
            )
            K = assemble_koopman(basis, vf)
            assert (K[above] == 0.0).all()


def test_duffing_parity_blocks_are_exact_zeros():
    for c in (3, 8, 12):
        basis = build_basis(c, 2)
        parity = basis.orders.sum(axis=1) % 2
        K = assemble_koopman(basis, DUFFING)
        assert (K[parity[:, None] != parity[None, :]] == 0.0).all()
        assert build_model(basis, DUFFING, IDENTITY_QP).diagnostics.n_blocks == 2


def test_field_of_max_degree_assembles():
    basis = build_basis(3, 2)
    top = VectorField(
        2,
        (
            canonicalize([(1.0, (MAX_POLY_DEGREE, 0)), (0.5, (0, 1))], 2),
            canonicalize([(-1.0, (1, MAX_POLY_DEGREE - 1))], 2),
        ),
    )
    K = assemble_koopman(basis, top)
    funcs = [basis_as_polynomial(basis, k) for k in range(basis.n)]
    derivatives = [total_derivative(basis, i, top) for i in range(basis.n)]
    K_ref = np.array([[box_inner_product(d, f) for f in funcs] for d in derivatives])
    assert np.abs(K - K_ref).max() <= 1e-12


def test_state_rows_share_the_observable_pass():
    basis = build_basis(4, 2)
    observables = ObservableSet(
        ("energy",), (canonicalize([(0.5, (2, 0)), (0.5, (0, 2))], 2),)
    )
    model = build_model(basis, DUFFING, observables)
    state_H = observable_matrix(basis, IDENTITY_QP)
    phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, (0.6, -0.3)))
    times = np.linspace(0.0, 5.0, 40)
    plain = propagate(model, phi0, times)
    both = propagate_observables(np.vstack((model.H, state_H)), model.blocks, phi0, times)
    states = propagate_observables(state_H, model.blocks, phi0, times)
    assert np.abs(both.values[:1] - plain.values).max() <= 1e-15
    assert np.abs(both.values[1:] - states.values).max() <= 1e-15
    # On a rotation K, L = (cos t, -sin t) from (1, 0): a state row beside
    # an observable row that reaches no mode.
    _, blocks, _ = eigendecompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert blocks[0].eigenvalues[0] == pytest.approx(1j, abs=1e-15)
    H, state_H = np.zeros((1, 2)), np.array([[1.0, 0.0]])
    y = initial_eigenfunctions(blocks, np.array([1.0, 0.0]))
    traj = propagate_observables(np.vstack((H, state_H)), blocks, y, times)
    assert (traj.values[0] == 0).all()
    assert np.abs(traj.values[1] - np.cos(times)).max() <= 1e-15
