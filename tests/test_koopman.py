"""Koopman matrix assembly, eigendecomposition, analytic propagation."""

import math
import tracemalloc

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
    _mode_exponentials,
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

def test_diagonal_matrix_decomposition():
    K = np.diag([1.0, 2.0, 3.0])
    lam, V, Vinv, diag = eigendecompose(K)
    assert lam == pytest.approx([3.0, 2.0, 1.0])  # sorted by descending real part
    # Columns are standard basis vectors, permuted to follow the sort.
    assert np.abs(np.abs(V) - np.eye(3)[:, ::-1]).max() <= 1e-14
    assert np.abs(K @ V - V * lam[None, :]).max() <= 1e-14
    assert diag.eigenresidual <= 1e-8 * (1 + 3.0)
    assert diag.eigencondition == pytest.approx(1.0, abs=1e-12)


def test_rotation_block_eigenvalues():
    lam, V, Vinv, _ = eigendecompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert lam == pytest.approx([1j, -1j], abs=1e-14)
    assert np.abs(V @ Vinv - np.eye(2)).max() <= 1e-12


def test_harmonic_spectrum_is_integer_imaginary():
    basis = build_basis(3, 2)
    K = assemble_koopman(basis, HARMONIC)
    lam, V, Vinv, diag = eigendecompose(K)
    assert np.abs(lam.real).max() <= 1e-8
    target = {0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0}
    for v in lam:
        assert min(abs(v.imag - t) for t in target) <= 1e-8
    assert diag.eigenresidual <= 1e-8 * (1 + np.abs(K).max())


def test_eigenvalue_sort_and_conjugate_pairing():
    rng = np.random.default_rng(29)
    for _ in range(10):
        K = rng.normal(size=(6, 6))
        lam, V, Vinv, diag = eigendecompose(K)
        keys = [(-v.real, -v.imag) for v in lam]
        assert keys == sorted(keys)
        residual = np.abs(K @ V - V * lam[None, :]).max()
        assert residual <= 1e-8 * (1 + np.abs(K).max())
        assert np.abs(V @ Vinv - np.eye(6)).max() <= 1e-8 * diag.eigencondition
        # Real matrix: spectrum closed under conjugation.
        unpaired = list(lam[np.abs(lam.imag) > 1e-9])
        for v in lam:
            if v.imag > 1e-9:
                assert min(abs(u - v.conjugate()) for u in unpaired) <= 1e-9


def test_eigendecompose_deterministic_phase():
    K = np.array([[0.0, 1.0, 0.2], [-1.0, 0.0, 0.0], [0.1, 0.0, -0.5]])
    lam1, V1, _, _ = eigendecompose(K)
    lam2, V2, _, _ = eigendecompose(K.copy())
    assert (lam1 == lam2).all()
    assert (V1 == V2).all()
    for j in range(3):
        col = V1[:, j]
        pivot = col[np.abs(col) > 1e-12][0]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0


def test_jordan_block_raises_near_defective():
    K = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-14]])
    with pytest.raises(NearDefectiveError):
        eigendecompose(K)


def test_phase_matches_per_column_reference():
    # The per-column normalization the vectorized one replaced, applied to
    # the raw eigenvectors in sorted order.
    rng = np.random.default_rng(31)
    K = rng.normal(size=(8, 8))
    K[0] = 0.0  # a column whose first entry is zero moves the pivot down
    lam, V, _, _ = eigendecompose(K)
    raw_lam, raw = np.linalg.eig(K)
    raw = raw[:, np.lexsort((-raw_lam.imag, -raw_lam.real))].astype(complex)
    for j in range(raw.shape[1]):
        column = raw[:, j] / np.linalg.norm(raw[:, j])
        pivot = column[np.argmax(np.abs(column) > 1e-12)]
        raw[:, j] = column * (pivot.conjugate() / abs(pivot))
    assert np.abs(V - raw).max() <= 1e-15


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
    lam, V, Vinv, diag = eigendecompose(K)

    assert diag.n_blocks == len(sizes)
    remaining = list(np.linalg.eigvals(K))
    for v in lam:
        k = int(np.argmin(np.abs(np.array(remaining) - v)))
        assert abs(remaining.pop(k) - v) <= 1e-12
    column_block = label[block_labels(V)]
    off_block = label[:, None] != column_block[None, :]
    assert (V[off_block] == 0).all()
    assert (Vinv.T[off_block] == 0).all()
    assert diag.eigencondition == pytest.approx(np.linalg.cond(V), rel=1e-12)
    assert np.abs(K @ V - V * lam[None, :]).max() <= diag.eigenresidual * (1 + 1e-12)
    assert np.abs(V @ Vinv - np.eye(n)).max() <= 1e-12 * diag.eigencondition


def test_eigendecompose_input_validation():
    with pytest.raises(ValueError):
        eigendecompose(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# propagation

def test_initial_eigenfunctions_identity_eigenvectors():
    h0 = np.array([1.0, 2.0, 3.0])
    phi0 = initial_eigenfunctions(np.eye(3, dtype=complex), h0)
    assert phi0 == pytest.approx(h0)


def test_initial_eigenfunctions_round_trip():
    basis = build_basis(3, 2)
    K = assemble_koopman(basis, DUFFING)
    _, V, Vinv, _ = eigendecompose(K)
    h0 = evaluate_basis(basis, (1.0, 0.0))
    phi0 = initial_eigenfunctions(Vinv, h0)
    assert np.abs(V @ phi0 - h0).max() <= 1e-10


def test_initial_eigenfunctions_shape_check():
    with pytest.raises(ValueError):
        initial_eigenfunctions(np.eye(3, dtype=complex), np.ones(2))


def test_propagation_at_time_zero_reconstructs_state():
    basis = build_basis(3, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    rng = np.random.default_rng(41)
    for _ in range(100):
        x0 = rng.uniform(-1.0, 1.0, size=2)
        h0 = evaluate_basis(basis, x0)
        phi0 = initial_eigenfunctions(model.Vinv, h0)
        traj = propagate(model, phi0, np.array([0.0]))
        assert np.abs(traj.values[:, 0] - x0).max() <= 1e-9


def test_harmonic_trajectory_is_cosine():
    times = np.linspace(0.0, 10.0, 100)
    for c in range(1, 6):
        basis = build_basis(c, 2)
        model = build_model(basis, HARMONIC, IDENTITY_QP)
        phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (1.0, 0.0)))
        traj = propagate(model, phi0, times)
        assert np.abs(traj.values[0] - np.cos(times)).max() <= 1e-8
        assert np.abs(traj.values[1] + np.sin(times)).max() <= 1e-8
        assert traj.max_imag <= 1e-8 * max(1.0, np.abs(traj.values).max())


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
            phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, x0))
            traj = propagate(model, phi0, times)
            assert np.abs(traj.values - closed).max() <= 1e-7


def test_duffing_against_rk4():
    basis = build_basis(3, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    times = np.linspace(0.0, 10.0, 100)
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (1.0, 0.0)))
    traj = propagate(model, phi0, times)
    ref = rk4_integrate(DUFFING, (1.0, 0.0), times, 1e-4)
    assert np.abs(traj.values[0] - ref[0]).max() <= 1e-2
    assert traj.max_imag <= 1e-8


def test_short_time_oracle_agreement_small_epsilon():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.01)
    basis = build_basis(5, 2)
    model = build_model(basis, vf, IDENTITY_QP)
    times = np.linspace(0.0, 1.0, 50)
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (1.0, 0.0)))
    traj = propagate(model, phi0, times)
    ref = rk4_integrate(vf, (1.0, 0.0), times, 1e-4)
    assert np.abs(traj.values - ref).max() <= 1e-4


def test_propagate_times_validation():
    basis = build_basis(1, 2)
    model = build_model(basis, HARMONIC, IDENTITY_QP)
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (0.5, 0.0)))
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
    lam = np.array([800.0 + 0.0j])
    V = np.array([[1.0 + 0.0j]])
    phi0 = np.array([1.0 + 0.0j])
    with pytest.raises(OverflowError):
        propagate_observables(H, lam, V, phi0, np.array([1.0]))
    # Just below the guard is fine.
    traj = propagate_observables(H, lam * 0.8, V, phi0, np.array([0.5]))
    assert np.isfinite(traj.values).all()


def test_overflow_guard_with_negative_times():
    lam = np.array([0.5 + 0.0j, -800.0 + 0.0j])
    V = np.eye(2, dtype=complex)
    phi0 = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    # Re(lambda) t = 800 at t = -1; the guard covers the mode H does not reach.
    with pytest.raises(OverflowError):
        propagate_observables(np.array([[1.0, 0.0]]), lam, V, phi0, np.array([-1.0, 0.0]))
    traj = propagate_observables(
        np.array([[1.0, 0.0]]), lam, V, phi0, np.array([-0.5, 0.5])
    )
    assert traj.n_modes_propagated == 1
    assert traj.values[0] == pytest.approx(np.exp([-0.25, 0.25]), rel=1e-15)
    # Re(lambda) t stays at 400 on both ends of this grid, but a later block
    # is propagated by exp(lambda (t - t_0)), and 400 * 2 = 800.
    lam, V, phi0 = np.array([400.0 + 0.0j]), np.eye(1, dtype=complex), np.ones(1)
    times = np.linspace(-1.0, 1.0, 2 * _TIME_BLOCK)
    with pytest.raises(OverflowError):
        propagate_observables(np.ones((1, 1)), lam, V, phi0, times)
    traj = propagate_observables(np.ones((1, 1)), lam / 2, V, phi0, times)
    assert np.isfinite(traj.values).all()


def test_the_num_steps_cap_grid_stays_within_the_bound():
    # 10^6 times to t = 1000, block by block against np.exp: roundoff in the
    # offsets grows with t, and the bound grows with |lambda| t alike.
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    HV = model.H @ model.V
    r = np.flatnonzero(HV.any(axis=0))
    eigenvalues = model.eigenvalues[r]
    times = np.linspace(0.0, 1000.0, MAX_NUM_STEPS)
    rel = _relative_bound(eigenvalues, times)
    worst = 0.0
    for block, modes in _mode_exponentials(eigenvalues, np.ones(r.size), times):
        exps = np.exp(np.multiply.outer(eigenvalues, times[block]))
        worst = max(worst, (np.abs(modes - exps) / (rel * np.abs(exps))).max())
    assert worst <= 1.0
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (0.6, -0.3)))
    traj = propagate(model, phi0, times)
    for start in range(0, MAX_NUM_STEPS, 50 * _TIME_BLOCK):
        block = slice(start, start + _TIME_BLOCK)
        terms = np.exp(np.multiply.outer(eigenvalues, times[block])) * phi0[r, None]
        expected = HV[:, r] @ terms
        slack = rel.max() * (np.abs(HV[:, r]) @ np.abs(terms))
        error = np.abs(traj.values[:, block] - expected.real)
        assert (error <= 1e-15 * np.abs(expected).max() + slack).all()


def test_propagation_matches_every_mode_explicitly():
    # Duffing c=8: the identity observables reach 20 of the 45 modes.
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (0.6, -0.3)))
    times = np.linspace(0.0, 20.0, 200)
    traj = propagate(model, phi0, times)
    modes = np.exp(np.multiply.outer(model.eigenvalues, times)) * phi0[:, None]
    explicit = model.H @ model.V @ modes
    assert traj.n_modes_propagated == 20
    assert np.abs(traj.values - explicit.real).max() <= 1e-13


def test_unreached_rows_propagate_zeros():
    basis = build_basis(4, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    H = state_H = np.zeros((2, basis.n))
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (0.6, -0.3)))
    traj = propagate_observables(
        np.vstack((H, state_H)), model.eigenvalues, model.V, phi0, np.linspace(0.0, 5.0, 40),
        imag_rows=len(H),
    )
    assert traj.n_modes_propagated == 0
    assert traj.max_imag == 0.0
    assert (traj.values == 0).all()


def _relative_bound(eigenvalues, times):
    # How far a later block's exponentials may move from np.exp, relative,
    # per mode: the grid check admits a mismatch between a later block's
    # offsets and the first block's that costs up to this much.
    eps = np.finfo(float).eps
    return 4 * eps * (1 + np.abs(eigenvalues)[:, None] * np.abs(times[[0, -1]]).max())


def _check_against_one_shot(H, eigenvalues, V, phi0, times):
    # The blocked, paired propagation against the formula evaluated in one
    # piece.  The first block holds the same exponentials exactly and the
    # same values to matmul roundoff.  A later block is the first block times
    # one exponential per mode, so its exponentials are within
    # `_relative_bound` of the one-shot ones, and its values within that
    # bound at the largest |lambda| times sum_i |HV_i exp_i phi0_i|.
    # Returns the number of times in each block.
    HV = H @ V
    r = np.flatnonzero(HV.any(axis=0))
    exps = np.exp(np.multiply.outer(eigenvalues[r], times))
    terms = exps * phi0[r, None]
    expected = HV[:, r] @ terms
    # The buffer of a later block is reused, so each block is copied.
    blocks = [
        (block, modes.copy())
        for block, modes in _mode_exponentials(eigenvalues[r], np.ones(r.size), times)
    ]
    modes = np.hstack([modes for _, modes in blocks])
    first = blocks[0][0]
    rel = _relative_bound(eigenvalues[r], times)
    assert np.array_equal(modes[:, first], exps[:, first])
    later = slice(first.stop, None)
    assert (np.abs(modes - exps)[:, later] <= rel * np.abs(exps[:, later])).all()
    traj = propagate_observables(H, eigenvalues, V, phi0, times)
    assert traj.n_modes_propagated == r.size
    slack = rel.max() * (np.abs(HV[:, r]) @ np.abs(terms))
    slack[:, first] = 0.0
    error = np.abs(traj.values - expected.real)
    assert (error <= 1e-15 * np.abs(expected).max() + slack).all()
    assert abs(traj.max_imag - np.abs(expected.imag).max()) <= slack.max()
    return [block.stop - block.start for block, _ in blocks]


def test_duffing_propagation_matches_the_one_shot_formula():
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (0.6, -0.3)))
    times = np.linspace(0.0, 40.0, 40_000)
    sizes = _check_against_one_shot(model.H, model.eigenvalues, model.V, phi0, times)
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
    eigenvalues, V, Vinv, _ = eigendecompose(K)
    assert np.unique(eigenvalues).size < n and (eigenvalues.imag == 0).any()
    phi0 = Vinv @ rng.standard_normal(n)
    times = np.linspace(-2.0, 5.0, nt)
    H = rng.standard_normal((3, n))
    assert _check_against_one_shot(H, eigenvalues, V, phi0, times) == sizes


@pytest.mark.parametrize(
    "H, eigenvalues",
    [
        # -2i has no partner in the spectrum, and 0.4 is real.
        (np.array([[1.0, 1.0, 1.0]]), np.array([1j, -2j, 0.4])),
        # Only the lower half of the pair is reached.
        (np.array([[0.0, 1.0, 1.0]]), np.array([1j, -1j, -0.4])),
    ],
)
def test_unpaired_eigenvalues_match_the_one_shot_formula(H, eigenvalues):
    phi0 = np.array([1.0 + 0.5j, 0.3 - 1.0j, -0.7 + 0.2j])
    times = np.linspace(-3.0, 3.0, 301)
    _check_against_one_shot(H, eigenvalues, np.eye(3, dtype=complex), phi0, times)


def test_propagation_memory_does_not_grow_with_the_whole_grid():
    # Duffing c=8 over 40 000 times with the state rows, as in a solve: the
    # result holds 1.5 MiB; a complex array of all rows at every time would
    # add 2.4 MiB and a reached-modes x times array 12 MiB.
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    all_H = np.vstack((model.H, observable_matrix(basis, IDENTITY_QP)))
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (0.6, -0.3)))
    times = np.linspace(0.0, 40.0, 40_000)
    tracemalloc.start()
    try:
        propagate_observables(
            all_H, model.eigenvalues, model.V, phi0, times, imag_rows=len(model.H)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_propagation_at_the_num_steps_cap_holds_no_complex_output():
    # The same solve at 10^6 times: the real result holds 31 MiB; a complex
    # array of all rows at every time would add 61 MiB.
    basis = build_basis(8, 2)
    model = build_model(basis, DUFFING, IDENTITY_QP)
    all_H = np.vstack((model.H, observable_matrix(basis, IDENTITY_QP)))
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (0.6, -0.3)))
    times = np.linspace(0.0, 1000.0, MAX_NUM_STEPS)
    tracemalloc.start()
    try:
        trajectory = propagate_observables(
            all_H, model.eigenvalues, model.V, phi0, times, imag_rows=len(model.H)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20
    assert trajectory.values.shape == (4, MAX_NUM_STEPS)
    assert 0.0 < trajectory.max_imag <= 1e-12


# ---------------------------------------------------------------------------
# skewness diagnostic

def test_skewness_of_rotation_is_zero():
    assert skewness_diagnostic(np.array([[0.0, 1.0], [-1.0, 0.0]])) == 0.0


def test_skewness_of_identity_is_two():
    assert skewness_diagnostic(np.eye(2)) == pytest.approx(2.0)


def test_duffing_skewness_is_finite_nonzero():
    basis = build_basis(3, 2)
    K = assemble_koopman(basis, DUFFING)
    s = skewness_diagnostic(K)
    assert math.isfinite(s)
    assert s > 0.0
    # eigendecompose reports the same number in its diagnostics.
    assert eigendecompose(K)[3].skewness == s


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
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (0.6, -0.3)))
    times = np.linspace(0.0, 5.0, 40)
    plain = propagate(model, phi0, times)
    both = propagate_observables(
        np.vstack((model.H, state_H)), model.eigenvalues, model.V, phi0, times,
        imag_rows=len(model.H),
    )
    states = propagate_observables(state_H, model.eigenvalues, model.V, phi0, times)
    assert np.abs(both.values[:1] - plain.values).max() <= 1e-15
    assert np.abs(both.values[1:] - states.values).max() <= 1e-15
    assert both.max_imag == pytest.approx(plain.max_imag, abs=1e-16)
    # max_imag covers the observable rows only: here the state row is e^{it}.
    H, state_H = np.zeros((1, 2)), np.array([[1.0, 0.0]])
    traj = propagate_observables(
        np.vstack((H, state_H)), np.array([1j, -1j]), np.eye(2, dtype=complex),
        np.array([1.0 + 0j, 0j]), times, imag_rows=len(H),
    )
    assert traj.max_imag == 0.0
    assert np.abs(traj.values[1] - np.cos(times)).max() <= 1e-15
