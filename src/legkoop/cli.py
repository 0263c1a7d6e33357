"""Command-line front end: solve one system, sweep basis orders, self-validate.

Exit codes: 0 success, 1 I/O failure, 2 config error, 3 near-defective
Koopman matrix, 4 numeric failure (divergence/overflow), 5 validation
suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .basis import basis_as_polynomial, build_basis, evaluate_basis
from .dynamics import (
    ObservableSet,
    SystemSpec,
    duffing_vector_field,
    parse_system_config,
    rescale_to_unit_box,
)
from .errors import NearDefectiveError, NonFiniteError, SchemaError, ValidationError
from .koopman import (
    KoopmanModel,
    ModelDiagnostics,
    Trajectory,
    assemble_koopman,
    eigendecompose,
    initial_eigenfunctions,
    observable_matrix,
    propagate,
    propagate_observables,
    skewness_diagnostic,
    total_derivative,
)
from .polyalg import affine_substitute, box_inner_product, evaluate
from .refinteg import ReferenceTrajectory, gauss_legendre_inner_product, rk4_integrate

__all__ = [
    "DEFAULT_RK_STEP",
    "RunSummary",
    "run_solve",
    "run_sweep",
    "run_validate",
    "main",
]

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NEAR_DEFECTIVE = 3
EXIT_NUMERIC = 4
EXIT_CHECK_FAILED = 5

DEFAULT_RK_STEP = 1e-4

# Slack on the unit-box exit check: a boundary start reconstructs to
# |y| = 1 +/- reconstruction error, which is not a departure.
_BOX_EXIT_SLACK = 1e-9


# ---------------------------------------------------------------------------
# solve pipeline

@dataclass
class SolveResult:
    spec: SystemSpec
    model: KoopmanModel
    times: np.ndarray
    trajectory: Trajectory
    first_box_exit: Optional[float]
    reference: Optional[ReferenceTrajectory]
    reference_values: Optional[np.ndarray]
    observable_errors: Optional[dict]
    timings: dict


@dataclass(frozen=True)
class RunSummary:
    """Everything the summary JSON reports about one solve."""

    system: str
    m: int
    c: int
    n: int
    eigenvalues: tuple[complex, ...]
    eigenresidual: float
    eigencondition: float
    skewness: float
    max_imag: float
    observable_errors: Optional[dict]
    first_box_exit_time: Optional[float]
    timings: dict

    def to_json_dict(self) -> dict:
        return {
            "system": self.system,
            "m": self.m,
            "c": self.c,
            "n": self.n,
            "eigenvalues": [[float(v.real), float(v.imag)] for v in self.eigenvalues],
            "eigenresidual": self.eigenresidual,
            "eigencondition": self.eigencondition,
            "skewness": self.skewness,
            "max_imag": self.max_imag,
            "observable_errors": self.observable_errors,
            "first_box_exit_time": self.first_box_exit_time,
            "timings": self.timings,
        }


def _solve_spec(
    spec: SystemSpec,
    *,
    rk_step: float = DEFAULT_RK_STEP,
    with_reference: bool = False,
    reference: Optional[ReferenceTrajectory] = None,
) -> SolveResult:
    timings: dict = {}
    started = time.perf_counter()

    mark = time.perf_counter()
    basis = build_basis(spec.order, len(spec.states))
    timings["basis"] = time.perf_counter() - mark

    center, half_width = spec.domain_center, spec.domain_half_width
    unit_vf = rescale_to_unit_box(spec.vf, center, half_width)
    observables = spec.observable_set()
    unit_observables = ObservableSet(
        observables.names,
        tuple(affine_substitute(p, center, half_width) for p in observables.polys),
    )

    mark = time.perf_counter()
    K = assemble_koopman(basis, unit_vf)
    H = observable_matrix(basis, unit_observables)
    # Track the (rescaled) state itself to flag departure from the unit box,
    # where the Galerkin projection stops being optimal.  Its rows ride along
    # in the observables' propagation pass.
    state_H = None
    if spec.order >= 1:
        box_observables = ObservableSet.identity(tuple(f"y{k}" for k in range(basis.m)))
        state_H = observable_matrix(basis, box_observables)
    timings["assemble"] = time.perf_counter() - mark

    mark = time.perf_counter()
    eigenvalues, V, Vinv, eig = eigendecompose(K)
    timings["eigen"] = time.perf_counter() - mark
    model = KoopmanModel(
        basis=basis,
        K=K,
        H=H,
        observable_names=tuple(observables.names),
        eigenvalues=eigenvalues,
        V=V,
        Vinv=Vinv,
        diagnostics=ModelDiagnostics(
            eigenresidual=eig.eigenresidual,
            eigencondition=eig.eigencondition,
            skewness=skewness_diagnostic(K),
        ),
        state_H=state_H,
    )

    mark = time.perf_counter()
    y0 = tuple(
        (x - c) / h for x, c, h in zip(spec.initial_state, center, half_width)
    )
    h0 = evaluate_basis(basis, y0)
    phi0 = initial_eigenfunctions(Vinv, h0)
    times = np.linspace(0.0, spec.t_final, spec.num_steps)
    trajectory = propagate(model, phi0, times)

    first_exit: Optional[float] = None
    if trajectory.states is not None:
        outside = np.abs(trajectory.states).max(axis=0) > 1.0 + _BOX_EXIT_SLACK
        if outside.any():
            first_exit = float(times[int(np.argmax(outside))])
    timings["propagate"] = time.perf_counter() - mark

    reference_values = None
    observable_errors = None
    if with_reference:
        mark = time.perf_counter()
        if reference is None:
            reference = rk4_integrate(spec.vf, spec.initial_state, times, rk_step)
        reference_values = np.empty_like(trajectory.values)
        for i, g in enumerate(observables.polys):
            for k in range(times.size):
                reference_values[i, k] = evaluate(g, reference.states[:, k])
        observable_errors = {}
        for i, name in enumerate(observables.names):
            diff = np.abs(trajectory.values[i] - reference_values[i])
            observable_errors[name] = {
                "max": float(diff.max()),
                "rms": float(np.sqrt(np.mean(diff**2))),
            }
        timings["reference"] = time.perf_counter() - mark
    else:
        reference = None

    timings["total"] = time.perf_counter() - started
    return SolveResult(
        spec=spec,
        model=model,
        times=times,
        trajectory=trajectory,
        first_box_exit=first_exit,
        reference=reference,
        reference_values=reference_values,
        observable_errors=observable_errors,
        timings=timings,
    )


def _summarize(result: SolveResult) -> RunSummary:
    model = result.model
    return RunSummary(
        system=result.spec.name,
        m=model.basis.m,
        c=model.basis.c,
        n=model.basis.n,
        eigenvalues=tuple(complex(v) for v in model.eigenvalues),
        eigenresidual=model.diagnostics.eigenresidual,
        eigencondition=model.diagnostics.eigencondition,
        skewness=model.diagnostics.skewness,
        max_imag=result.trajectory.max_imag,
        observable_errors=result.observable_errors,
        first_box_exit_time=result.first_box_exit,
        timings=result.timings,
    )


def _format_value(x: float) -> str:
    # repr of a Python float is the shortest decimal that round-trips.
    return repr(float(x))


def _write_trajectory_csv(path: Path, result: SolveResult) -> None:
    names = result.model.observable_names
    header = ["t"] + list(names)
    columns = [result.times] + [result.trajectory.values[i] for i in range(len(names))]
    if result.reference_values is not None:
        header += [f"{name}_ref" for name in names]
        columns += [result.reference_values[i] for i in range(len(names))]
        header += [f"{name}_err" for name in names]
        columns += [
            np.abs(result.trajectory.values[i] - result.reference_values[i])
            for i in range(len(names))
        ]
    lines = [",".join(header)]
    for k in range(result.times.size):
        lines.append(",".join(_format_value(col[k]) for col in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_solve(
    config_path,
    *,
    reference: bool = False,
    rk_step: float = DEFAULT_RK_STEP,
    out_dir="out",
) -> int:
    """Solve one configured system; write trajectory CSV and summary JSON."""
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        spec = parse_system_config(text)
    except (SchemaError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = _solve_spec(spec, rk_step=rk_step, with_reference=reference)
    except NearDefectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEAR_DEFECTIVE
    except (NonFiniteError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    summary = _summarize(result)
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{spec.name}_trajectory.csv"
        _write_trajectory_csv(csv_path, result)
        json_path = out / f"{spec.name}_summary.json"
        json_path.write_text(
            json.dumps(summary.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    if result.first_box_exit is not None:
        print(
            f"warning: trajectory leaves the unit box at t = {result.first_box_exit:g}; "
            "the projection is only optimal inside it",
            file=sys.stderr,
        )
    diag = result.model.diagnostics
    print(
        f"{spec.name}: m={summary.m} c={summary.c} n={summary.n}  "
        f"skewness={diag.skewness:.3e}  eigencondition={diag.eigencondition:.3e}  "
        f"max_imag={summary.max_imag:.3e}"
    )
    if result.observable_errors is not None:
        worst = max(err["max"] for err in result.observable_errors.values())
        print(f"max observable error vs RK4(step={rk_step:g}): {worst:.3e}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def run_sweep(
    config_path,
    orders: Sequence[int],
    *,
    rk_step: float = DEFAULT_RK_STEP,
    out_dir="out",
) -> int:
    """Solve at several orders against a single RK4 reference."""
    orders = list(orders)
    if not orders:
        print("error: no orders requested", file=sys.stderr)
        return EXIT_CONFIG
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        spec = parse_system_config(text)
    except (SchemaError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    times = np.linspace(0.0, spec.t_final, spec.num_steps)
    try:
        reference = rk4_integrate(spec.vf, spec.initial_state, times, rk_step)
    except NonFiniteError as exc:
        print(f"numeric failure in RK4 reference: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    names = spec.observable_set().names
    rows = []
    for order in orders:
        started = time.perf_counter()
        try:
            order_spec = replace(spec, order=order)
            result = _solve_spec(
                order_spec, rk_step=rk_step, with_reference=True, reference=reference
            )
        except (ValidationError, NearDefectiveError, NonFiniteError, OverflowError) as exc:
            rows.append(
                {
                    "order": order,
                    "n": math.comb(order + len(spec.states), len(spec.states)),
                    "status": f"failed: {exc}",
                    "errors": None,
                    "eigenresidual": None,
                    "wall_time_s": time.perf_counter() - started,
                }
            )
            continue
        rows.append(
            {
                "order": order,
                "n": result.model.basis.n,
                "status": "ok",
                "errors": {
                    name: result.observable_errors[name]["max"] for name in names
                },
                "eigenresidual": result.model.diagnostics.eigenresidual,
                "wall_time_s": time.perf_counter() - started,
            }
        )

    err_headers = [f"max_err_{name}" for name in names]
    header = ["order", "n", "status"] + err_headers + ["eigenresidual", "wall_time_s"]
    csv_lines = [",".join(header)]
    table = [header]
    for row in rows:
        errs = (
            [_format_value(row["errors"][name]) for name in names]
            if row["errors"] is not None
            else [""] * len(names)
        )
        resid = _format_value(row["eigenresidual"]) if row["eigenresidual"] is not None else ""
        csv_lines.append(
            ",".join(
                [str(row["order"]), str(row["n"]), row["status"].replace(",", ";")]
                + errs
                + [resid, _format_value(row["wall_time_s"])]
            )
        )
        display_errs = (
            [f"{row['errors'][name]:.3e}" for name in names]
            if row["errors"] is not None
            else ["-"] * len(names)
        )
        display_resid = f"{row['eigenresidual']:.1e}" if row["eigenresidual"] is not None else "-"
        table.append(
            [str(row["order"]), str(row["n"]), row["status"]]
            + display_errs
            + [display_resid, f"{row['wall_time_s']:.2f}"]
        )

    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{spec.name}_sweep.csv"
        csv_path.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate: cross-module invariants with frozen expected values

# Hand-checked basis fixtures for order 3, two variables (entries rounded to
# three decimals; the exact values are products of sqrt((2i+1)/2)-scaled
# Legendre coefficients).
_EXPECTED_INDICES_C3_M2 = (
    (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3),
)
_EXPECTED_LPC_ROWS = {
    2: (-0.5, 0.0, 1.5, 0.0),
    3: (0.0, -1.5, 0.0, 2.5),
}
_EXPECTED_MLP_C3_M2 = np.array(
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


def _check_golden_tables():
    basis = build_basis(3, 2)
    if basis.indices.rows != _EXPECTED_INDICES_C3_M2 or basis.n != 10:
        return False, "multi-index enumeration drifted"
    for row, expected in _EXPECTED_LPC_ROWS.items():
        if not np.allclose(basis.tables.LPC[row], expected, atol=1e-12):
            return False, f"Legendre coefficient row {row} drifted"
    worst = float(np.abs(basis.MLP - _EXPECTED_MLP_C3_M2).max())
    if worst > 5e-4:
        return False, f"basis matrix differs from golden values by {worst:.2e}"
    func = basis_as_polynomial(basis, 8)
    coefs = {t.exp: t.coef for t in func.terms}
    if set(coefs) != {(1, 0), (1, 2)}:
        return False, "basis function 8 has unexpected monomials"
    if abs(coefs[(1, 0)] + 0.968) > 5e-4 or abs(coefs[(1, 2)] - 2.905) > 5e-4:
        return False, "basis function 8 coefficients drifted"
    return True, f"max golden deviation {worst:.2e}"


def _check_orthonormality():
    worst = 0.0
    for c in range(1, 9):
        basis = build_basis(c, 2)
        funcs = [basis_as_polynomial(basis, i) for i in range(basis.n)]
        for i in range(basis.n):
            for k in range(basis.n):
                g = box_inner_product(funcs[i], funcs[k])
                worst = max(worst, abs(g - (1.0 if i == k else 0.0)))
    return worst <= 1e-12, f"max |Gram - I| = {worst:.2e} over orders 1..8"


def _check_koopman_vs_quadrature():
    basis = build_basis(3, 2)
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
    K = assemble_koopman(basis, vf)
    funcs = [basis_as_polynomial(basis, k) for k in range(basis.n)]
    worst = 0.0
    for i in range(basis.n):
        flow_derivative = total_derivative(basis, i, vf)
        for k in range(basis.n):
            nodes = (flow_derivative.total_degree + funcs[k].total_degree) // 2 + 1
            q = gauss_legendre_inner_product(flow_derivative, funcs[k], nodes)
            worst = max(worst, abs(K[i, k] - q))
    return worst <= 1e-10, f"max |K - quadrature| = {worst:.2e}"


def _check_degree_triangularity():
    basis = build_basis(3, 2)
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)  # linear dynamics
    K = assemble_koopman(basis, vf)
    degrees = [sum(row) for row in basis.indices.rows]
    worst = 0.0
    for i in range(basis.n):
        for k in range(basis.n):
            if degrees[k] > degrees[i]:
                worst = max(worst, abs(K[i, k]))
    return worst <= 1e-12, f"max |K[i,k]| with deg_k > deg_i = {worst:.2e}"


def _check_t0_reconstruction():
    basis = build_basis(3, 2)
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
    observables = ObservableSet.identity(("q", "p"))
    K = assemble_koopman(basis, vf)
    H = observable_matrix(basis, observables)
    eigenvalues, V, Vinv, _ = eigendecompose(K)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        x0 = rng.uniform(-1.0, 1.0, size=2)
        h0 = evaluate_basis(basis, x0)
        phi0 = initial_eigenfunctions(Vinv, h0)
        traj = propagate_observables(H, eigenvalues, V, phi0, np.array([0.0]))
        worst = max(worst, float(np.abs(traj.values[:, 0] - x0).max()))
    return worst <= 1e-9, f"worst |g(0) - g(x0)| = {worst:.2e} over 100 states"


def _check_rk4_order():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    times = np.array([10.0])
    exact = np.array([math.cos(10.0), -math.sin(10.0)])
    errors = []
    for step in (1e-2, 5e-3, 2.5e-3):
        traj = rk4_integrate(vf, (1.0, 0.0), times, step)
        errors.append(float(np.abs(traj.states[:, 0] - exact).max()))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(r >= 12.0 for r in ratios)
    return ok, f"halving ratios {ratios[0]:.1f}, {ratios[1]:.1f} (>= 12 expected)"


def run_validate() -> int:
    """Run the cross-module invariant suite and report pass/fail per check."""
    checks = [
        ("golden basis tables (c=3, m=2)", _check_golden_tables),
        ("basis orthonormality (orders 1..8)", _check_orthonormality),
        ("Koopman matrix vs quadrature (Duffing, c=3)", _check_koopman_vs_quadrature),
        ("degree triangularity for linear dynamics", _check_degree_triangularity),
        ("t=0 reconstruction (100 random states)", _check_t0_reconstruction),
        ("RK4 step-halving order", _check_rk4_order),
    ]
    all_ok = True
    for name, check in checks:
        ok, detail = check()
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} - {name}: {detail}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing

def _orders_argument(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'A..B' or comma-separated integers, got {text!r}"
        ) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="legkoop",
        description="Solve polynomial ODEs spectrally via a Legendre-Galerkin "
        "Koopman matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one system and write its artifacts")
    solve.add_argument("--config", required=True, help="JSON system description")
    solve.add_argument(
        "--reference",
        action="store_true",
        help="also integrate with RK4 and report per-observable errors",
    )
    solve.add_argument("--rk-step", type=float, default=DEFAULT_RK_STEP)
    solve.add_argument("--out-dir", default="out")

    sweep = sub.add_parser("sweep", help="solve at several orders against one RK4 reference")
    sweep.add_argument("--config", required=True, help="JSON system description")
    sweep.add_argument(
        "--orders", required=True, type=_orders_argument, help="range 'A..B' or list '1,3,5'"
    )
    sweep.add_argument("--rk-step", type=float, default=DEFAULT_RK_STEP)
    sweep.add_argument("--out-dir", default="out")

    sub.add_parser("validate", help="run the cross-module invariant suite")

    args = parser.parse_args(argv)
    if args.command == "solve":
        return run_solve(
            args.config,
            reference=args.reference,
            rk_step=args.rk_step,
            out_dir=args.out_dir,
        )
    if args.command == "sweep":
        return run_sweep(
            args.config, args.orders, rk_step=args.rk_step, out_dir=args.out_dir
        )
    return run_validate()


if __name__ == "__main__":
    sys.exit(main())
