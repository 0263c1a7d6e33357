"""Seeded workload configurations and the correctness gate for their outputs.

Each workload is one `legkoop` command on one generated system.  The seed
varies only the initial state (a phase angle on a fixed-radius orbit), never
the basis order, the orders swept or the time grid, so the work done per run
is the same for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# The benchmark's own RK4 reference takes steps of at most this size, which
# divide every output interval exactly; solve-long-duffing's grid (spacing
# just above 1e-3) takes one step per interval.  Its error is at most about
# 1.5e-12 on every workload, far below the tolerances below.
REFERENCE_MAX_STEP = 1.25e-3

# Sweep orders at and above this one are at roundoff level (about 1e-13 on
# the Duffing sweep), so they are gated, not reported.
SWEEP_GATE_ORDER = 7


@dataclass(frozen=True)
class Size:
    """The parts of a workload that set how much work one run does."""

    order: int
    t_final: float
    num_steps: int
    orders: Optional[str] = None  # sweep only: the `--orders` argument
    # Largest admissible absolute error: per trajectory value against the
    # benchmark's RK4 reference (solve, and the sweep's top-order solve), or
    # per order >= SWEEP_GATE_ORDER as the sweep reports it against its own
    # RK4 reference (sweep).
    tolerance: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "solve" or "sweep"
    full: Size
    quick: Size


_DUFFING_DYNAMICS = [
    {"terms": [{"coef": 1.0, "exp": [0, 1]}]},
    {"terms": [{"coef": -1.0, "exp": [1, 0]}, {"coef": -0.001, "exp": [3, 0]}]},
]

# Two oscillators (frequencies 1 and sqrt 2) with light damping and quadratic
# coupling; the quadratic terms break the odd symmetry of Duffing.
_QUADRATIC_4D_DYNAMICS = [
    {"terms": [{"coef": 1.0, "exp": [0, 1, 0, 0]}]},
    {
        "terms": [
            {"coef": -1.0, "exp": [1, 0, 0, 0]},
            {"coef": -0.02, "exp": [0, 1, 0, 0]},
            {"coef": 0.1, "exp": [1, 0, 1, 0]},
        ]
    },
    {"terms": [{"coef": 1.0, "exp": [0, 0, 0, 1]}]},
    {
        "terms": [
            {"coef": -2.0, "exp": [0, 0, 1, 0]},
            {"coef": -0.02, "exp": [0, 0, 0, 1]},
            {"coef": 0.1, "exp": [2, 0, 0, 0]},
        ]
    },
]

# Why each workload exists, and which layer it loads, is recorded in the
# "why" of BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-duffing",
            command="sweep",
            full=Size(order=3, t_final=2.0, num_steps=100, orders="1..10", tolerance=1e-10),
            quick=Size(order=3, t_final=1.0, num_steps=10, orders="1..7", tolerance=1e-10),
        ),
        Workload(
            name="solve-4d-quadratic",
            command="solve",
            full=Size(order=5, t_final=5.0, num_steps=100, tolerance=1e-5),
            quick=Size(order=3, t_final=0.5, num_steps=10, tolerance=1e-3),
        ),
        Workload(
            name="solve-long-duffing",
            command="solve",
            full=Size(order=8, t_final=40.0, num_steps=40_000, tolerance=1e-6),
            quick=Size(order=4, t_final=2.0, num_steps=2000, tolerance=1e-4),
        ),
    )
}


def size_of(workload: Workload, quick: bool) -> Size:
    return workload.quick if quick else workload.full


def _initial_state(workload: Workload, seed: int) -> list[float]:
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=2)
    if workload.name == "solve-4d-quadratic":
        # Radius 0.45 per oscillator in energy-normalized coordinates; the
        # damped orbit stays well inside the unit box.
        r = 0.45
        return [
            r * math.cos(theta[0]),
            r * math.sin(theta[0]),
            r * math.cos(theta[1]),
            r * math.sqrt(2.0) * math.sin(theta[1]),
        ]
    # Duffing conserves q^2/2 + p^2/2 + 0.00025 q^4, so radius 0.9 keeps the
    # orbit inside the unit box for all time.
    return [0.9 * math.cos(theta[0]), 0.9 * math.sin(theta[0])]


def make_config(workload: Workload, seed: int, quick: bool = False) -> dict:
    """The JSON system description for one seed of one workload."""
    size = size_of(workload, quick)
    if workload.name == "solve-4d-quadratic":
        name, states, dynamics = "quad4", ["x1", "v1", "x2", "v2"], _QUADRATIC_4D_DYNAMICS
    else:
        name, states, dynamics = "duffing", ["q", "p"], _DUFFING_DYNAMICS
    return {
        "name": name,
        "states": states,
        "dynamics": dynamics,
        "initial_state": _initial_state(workload, seed),
        "order": size.order,
        "t_final": size.t_final,
        "num_steps": size.num_steps,
    }


def cli_args(workload: Workload, config_path: Path, out_dir: Path, quick: bool = False) -> list:
    """Arguments for `legkoop.cli.main` that run the workload once."""
    args = [workload.command, "--config", str(config_path), "--out-dir", str(out_dir)]
    if workload.command == "sweep":
        args += ["--orders", size_of(workload, quick).orders]
    return args


def output_paths(workload: Workload, config: dict, out_dir: Path) -> list[Path]:
    """Files one run writes; the runner deletes them before each run."""
    name = config["name"]
    if workload.command == "sweep":
        return [out_dir / f"{name}_sweep.csv"]
    return [out_dir / f"{name}_trajectory.csv", out_dir / f"{name}_summary.json"]


def output_times(config: dict) -> np.ndarray:
    return np.linspace(0.0, config["t_final"], config["num_steps"])


def _vector_field(dynamics: list) -> Callable[[list], list]:
    """f(x) evaluated straight from the config's polynomial terms.

    The benchmark's reference does not go through the library's parser or
    integrator, so a defect there cannot hide by moving both sides of the
    gate the same way.
    """
    components = [
        [(term["coef"], [(i, e) for i, e in enumerate(term["exp"]) if e]) for term in c["terms"]]
        for c in dynamics
    ]

    def f(x: list) -> list:
        out = []
        for terms in components:
            total = 0.0
            for coef, powers in terms:
                for i, e in powers:
                    coef *= x[i] ** e
                total += coef
            out.append(total)
        return out

    return f


def reference_states(config: dict) -> np.ndarray:
    """RK4 states (m x num_steps) on the output grid, from the config alone.

    Each output interval is split into equal steps of at most
    REFERENCE_MAX_STEP.  Raises ValueError when the orbit leaves the unit
    box: such a seed would not be a valid workload.
    """
    f = _vector_field(config["dynamics"])
    times = output_times(config)
    x = [float(v) for v in config["initial_state"]]
    states = [x]
    for t0, t1 in zip(times[:-1], times[1:]):
        substeps = math.ceil((t1 - t0) / REFERENCE_MAX_STEP)
        h = float(t1 - t0) / substeps
        for _ in range(substeps):
            k1 = f(x)
            k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
            k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
            k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
            x = [
                xi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
            ]
        states.append(x)
    states = np.array(states).T
    reach = float(np.abs(states).max())
    if not reach <= 1.0:
        raise ValueError(f"reference orbit leaves the unit box (max |x| = {reach:.3f})")
    return states


@dataclass(frozen=True)
class Check:
    ok: bool
    max_err: Optional[float]  # solve: worst error against the reference
    detail: str


def _parse_csv(path: Path) -> tuple[list[str], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path.name} is empty")
    return lines[0].split(","), lines[1:]


def _check_solve(tolerance: float, config: dict, out_dir: Path, reference: np.ndarray) -> Check:
    name, states = config["name"], config["states"]
    csv_path = out_dir / f"{name}_trajectory.csv"
    with open(csv_path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
    if header != ["t"] + states:
        return Check(False, None, f"trajectory header {header}")
    values = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2).T
    if values.shape != (len(states) + 1, config["num_steps"]):
        return Check(False, None, f"trajectory shape {values.shape}")
    if not np.isfinite(values).all():
        return Check(False, None, "non-finite trajectory values")
    if np.abs(values[0] - output_times(config)).max() > 1e-12 * config["t_final"]:
        return Check(False, None, "time column differs from the configured grid")
    max_err = float(np.abs(values[1:] - reference).max())
    if not max_err <= tolerance:
        return Check(False, max_err, f"max error {max_err:.3e} > tolerance {tolerance:.0e}")

    summary = json.loads((out_dir / f"{name}_summary.json").read_text(encoding="utf-8"))
    m, c = len(states), config["order"]
    if (summary["m"], summary["c"], summary["n"]) != (m, c, math.comb(c + m, m)):
        return Check(False, max_err, f"summary sizes {summary['m'], summary['c'], summary['n']}")
    if summary["first_box_exit_time"] is not None:
        return Check(False, max_err, f"box exit at t = {summary['first_box_exit_time']}")
    return Check(True, max_err, "ok")


def _check_sweep(size: Size, config: dict, out_dir: Path) -> Check:
    header, rows = _parse_csv(out_dir / f"{config['name']}_sweep.csv")
    err_columns = [f"max_err_{s}" for s in config["states"]]
    if header[:3] != ["order", "n", "status"] or header[3:-2] != err_columns:
        return Check(False, None, f"sweep header {header}")
    lo, hi = (int(v) for v in size.orders.split(".."))
    if len(rows) != hi - lo + 1:
        return Check(False, None, f"{len(rows)} sweep rows, expected {hi - lo + 1}")
    m = len(config["states"])
    for expected_order, row in zip(range(lo, hi + 1), rows):
        cells = row.split(",")
        order, n, status = int(cells[0]), int(cells[1]), cells[2]
        if status != "ok":
            return Check(False, None, f"order {order}: status {status!r}")
        if (order, n) != (expected_order, math.comb(order + m, m)):
            return Check(False, None, f"row for order {order} has n = {n}")
        errors = [float(v) for v in cells[3 : 3 + m]]
        if not all(math.isfinite(e) for e in errors):
            return Check(False, None, f"order {order}: non-finite error")
        if order >= SWEEP_GATE_ORDER and max(errors) > size.tolerance:
            return Check(
                False, None, f"order {order}: error {max(errors):.3e} > {size.tolerance:.0e}"
            )
    return Check(True, None, "ok")


def top_order_config(workload: Workload, config: dict, quick: bool = False) -> dict:
    """The sweep's system at its highest order, for one `solve` gated against
    the benchmark's own reference: the sweep's CSV holds only the errors the
    program reports against its own RK4 reference."""
    top = int(size_of(workload, quick).orders.split("..")[1])
    return dict(config, order=top)


def _guarded(check, *args) -> Check:
    """Missing or unparsable output files fail the run."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Check(False, None, f"unreadable outputs: {exc}")


def check_solve_outputs(tolerance: float, config: dict, out_dir: Path, reference) -> Check:
    """Gate one `solve` run's outputs against the reference states."""
    return _guarded(_check_solve, tolerance, config, out_dir, reference)


def check_outputs(
    workload: Workload, config: dict, out_dir: Path, reference: np.ndarray, quick: bool = False
) -> Check:
    """Gate one run's outputs."""
    size = size_of(workload, quick)
    if workload.command == "sweep":
        return _guarded(_check_sweep, size, config, out_dir)
    return check_solve_outputs(size.tolerance, config, out_dir, reference)
