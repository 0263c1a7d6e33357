"""Acceptance gate: one test per shipped guarantee.

Each test prints its measured margin, so a failure report carries the
number that broke the contract, and `pytest -v` gives one pass/fail line
per criterion.
"""

import json
import time

import numpy as np
import pytest

from legkoop import invariants
from legkoop.basis import build_basis, evaluate_basis
from legkoop.cli import main
from legkoop.dynamics import ObservableSet, duffing_vector_field
from legkoop.invariants import GOLDEN_INDICES, basis_as_polynomial, legendre_coefficients
from legkoop.koopman import build_model, initial_eigenfunctions, propagate
from legkoop.refinteg import rk4_integrate

DESK_CONFIG = {
    "name": "duffing",
    "states": ["q", "p"],
    "dynamics": [
        {"terms": [{"coef": 1.0, "exp": [0, 1]}]},
        {"terms": [{"coef": -1.0, "exp": [1, 0]}, {"coef": -0.001, "exp": [3, 0]}]},
    ],
    "initial_state": [1.0, 0.0],
    "order": 3,
    "t_final": 10.0,
    "num_steps": 100,
}


def test_criterion_1_basis_fixtures_order_3():
    started = time.perf_counter()
    basis = build_basis(3, 2)
    assert tuple(map(tuple, basis.orders.tolist())) == GOLDEN_INDICES
    assert basis.n == 10
    assert legendre_coefficients(basis.c)[2].tolist() == pytest.approx([-0.5, 0.0, 1.5, 0.0])
    assert legendre_coefficients(basis.c)[3].tolist() == pytest.approx([0.0, -1.5, 0.0, 2.5])
    mlp_dev = invariants.golden_deviation(basis)
    assert mlp_dev <= 5e-4
    L8 = {t.exp: t.coef for t in basis_as_polynomial(basis, 8).terms}
    assert set(L8) == {(1, 0), (1, 2)}
    assert L8[(1, 0)] == pytest.approx(-0.968, abs=5e-4)
    assert L8[(1, 2)] == pytest.approx(2.905, abs=5e-4)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden tables, max deviation {mlp_dev:.2e}, {elapsed:.2f}s")


def test_criterion_2_orthonormality_through_order_8():
    started = time.perf_counter()
    worst = invariants.orthonormality_error()
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 5.0
    print(f"PASS criterion 2: max |Gram - I| = {worst:.2e} (n up to 45), {elapsed:.2f}s")


def test_criterion_3_koopman_matches_quadrature():
    worst = invariants.koopman_quadrature_error()
    assert worst <= 1e-10
    print(f"PASS criterion 3: max |K - quadrature| = {worst:.2e}")


def test_criterion_4_linear_exactness_harmonic_oscillator():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    observables = ObservableSet.identity(("q", "p"))
    times = np.linspace(0.0, 10.0, 100)
    exact = np.vstack([np.cos(times), -np.sin(times)])
    worst_traj, worst_real = 0.0, 0.0
    for c in range(1, 6):
        basis = build_basis(c, 2)
        model = build_model(basis, vf, observables)
        worst_real = max(worst_real, float(np.abs(model.eigenvalues.real).max()))
        phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (1.0, 0.0)))
        traj = propagate(model, phi0, times)
        worst_traj = max(worst_traj, float(np.abs(traj.values - exact).max()))
    assert worst_traj <= 1e-8
    assert worst_real <= 1e-8
    print(
        f"PASS criterion 4: max |(q,p) - (cos,-sin)| = {worst_traj:.2e}, "
        f"max |Re(lambda)| = {worst_real:.2e} over c=1..5"
    )


def test_criterion_5_duffing_desk_run():
    started = time.perf_counter()
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
    basis = build_basis(3, 2)
    model = build_model(basis, vf, ObservableSet.identity(("q", "p")))
    times = np.linspace(0.0, 10.0, 100)
    phi0 = initial_eigenfunctions(model.Vinv, evaluate_basis(basis, (1.0, 0.0)))
    traj = propagate(model, phi0, times)
    reference = rk4_integrate(vf, (1.0, 0.0), times, 1e-4)
    elapsed = time.perf_counter() - started
    err = float(np.abs(traj.values[0] - reference[0]).max())
    assert err <= 1e-2
    assert traj.max_imag <= 1e-8
    assert elapsed < 10.0
    print(
        f"PASS criterion 5: max |q_KO - q_RK4| = {err:.2e}, "
        f"max_imag = {traj.max_imag:.2e}, {elapsed:.2f}s"
    )


def test_criterion_6_error_depends_on_order(tmp_path):
    config = tmp_path / "duffing.json"
    config.write_text(json.dumps(DESK_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", str(config), "--orders", "1..7", "--rk-step", "1e-3",
         "--out-dir", str(out)]
    )
    assert code == 0
    lines = (out / "duffing_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[:4] == ["order", "n", "status", "max_err_q"]
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(c) for c in range(1, 8)]
    errors = {int(r[0]): float(r[3]) for r in rows if r[2] == "ok"}
    assert set(errors) == set(range(1, 8))
    assert min(errors.values()) <= errors[1]
    print(
        f"PASS criterion 6: sweep table emitted; err(c=1) = {errors[1]:.2e}, "
        f"best = {min(errors.values()):.2e} at c={min(errors, key=errors.get)}"
    )


def test_criterion_7_time_zero_reconstruction():
    worst = invariants.reconstruction_error()
    assert worst <= 1e-9
    print(f"PASS criterion 7: worst t=0 reconstruction error {worst:.2e}")


def test_criterion_8_rk4_fourth_order_convergence():
    ratios = invariants.rk4_halving_ratios()
    assert ratios[0] >= 12.0
    assert ratios[1] >= 12.0
    print(f"PASS criterion 8: halving ratios {ratios[0]:.1f}, {ratios[1]:.1f}")


def test_criterion_9_deterministic_artifacts(tmp_path):
    config = tmp_path / "duffing.json"
    config.write_text(json.dumps(DESK_CONFIG), encoding="utf-8")
    for run in ("a", "b"):
        assert main(
            ["solve", "--config", str(config), "--out-dir", str(tmp_path / run)]
        ) == 0
    first = (tmp_path / "a" / "duffing_trajectory.csv").read_bytes()
    second = (tmp_path / "b" / "duffing_trajectory.csv").read_bytes()
    assert first == second
    print(f"PASS criterion 9: trajectory CSV byte-identical ({len(first)} bytes)")
