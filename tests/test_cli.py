"""Command-line interface: artifacts, exit codes, determinism."""

import errno
import itertools
import json
import math
import os
import pickle
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from legkoop import invariants
import legkoop.cli as cli
import legkoop.refinteg as refinteg
import legkoop.reprtext as reprtext
from legkoop.basis import MAX_BASIS_SIZE, MAX_DIMENSION, MAX_ORDER, build_basis, evaluate_basis
from legkoop.cli import _reference_values, main
from legkoop.dynamics import (
    MAX_NAME_BYTES,
    MAX_NUM_STEPS,
    MAX_OUTPUT_VALUES,
    ObservableSet,
    VectorField,
    parse_system_config,
)
from legkoop.errors import NonFiniteError
from legkoop.koopman import (
    _TIME_BLOCK,
    assemble_koopman,
    build_model,
    eigendecompose,
    initial_eigenfunctions,
    observable_matrix,
    propagate_observables,
)
from legkoop.polyalg import canonicalize, evaluate
from legkoop.refinteg import rk4_integrate

DUFFING = {
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

# Duffing at order 8 with 40 monomial observables of degree 1 to 8: rows of
# 41 CSV values, 121 with --reference, so that each block of rows is split
# over several chunks of the CSV writer.
WIDE = {
    **DUFFING,
    "name": "wide",
    "initial_state": [0.5, 0.0],
    "order": 8,
    "observables": [
        {"name": f"q{a}p{d - a}", "terms": [{"coef": 1.0, "exp": [a, d - a]}]}
        for d in range(1, 9)
        for a in range(d, -1, -1)
    ][:40],
}


# The tree `legkoop` is imported from, for the CLI run in a fresh process.
_SRC = str(Path(cli.__file__).resolve().parents[1])


def write_config(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(autouse=True)
def no_child_left():
    # Every RK4 reference process a test starts is reaped by the time it
    # ends, whatever the command did.
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


# ---------------------------------------------------------------------------
# solve

def test_solve_writes_trajectory_and_summary(tmp_path):
    config = write_config(tmp_path, DUFFING)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 0

    header, rows = read_csv(out / "duffing_trajectory.csv")
    assert header == ["t", "q", "p"]
    assert rows.shape == (100, 3)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 10.0
    assert rows[0, 1] == pytest.approx(1.0, abs=1e-9)

    summary = json.loads((out / "duffing_summary.json").read_text())
    assert summary["system"] == "duffing"
    assert (summary["m"], summary["c"], summary["n"]) == (2, 3, 10)
    assert len(summary["eigenvalues"]) == 10
    assert summary["max_imag"] <= 1e-8
    assert summary["eigenresidual"] <= 1e-8 * (1 + 10)
    assert summary["first_box_exit_time"] is None
    assert summary["observable_errors"] is None
    assert summary["timings"]["total"] > 0


# Two oscillators with light damping and quadratic coupling.
QUADRATIC_4D = {
    "name": "quad4",
    "states": ["x1", "v1", "x2", "v2"],
    "dynamics": [
        {"terms": [{"coef": 1.0, "exp": [0, 1, 0, 0]}]},
        {"terms": [{"coef": -1.0, "exp": [1, 0, 0, 0]}, {"coef": -0.02, "exp": [0, 1, 0, 0]},
                   {"coef": 0.1, "exp": [1, 0, 1, 0]}]},
        {"terms": [{"coef": 1.0, "exp": [0, 0, 0, 1]}]},
        {"terms": [{"coef": -2.0, "exp": [0, 0, 1, 0]}, {"coef": -0.02, "exp": [0, 0, 0, 1]},
                   {"coef": 0.1, "exp": [2, 0, 0, 0]}]},
    ],
    "initial_state": [0.3, 0.1, -0.2, 0.2],
    "order": 5,
    "t_final": 5.0,
    "num_steps": 100,
}


@pytest.mark.parametrize(
    "doc", [{**DUFFING, "order": 8}, QUADRATIC_4D], ids=["duffing-c8", "quadratic-4d"]
)
def test_a_real_initial_state_drops_no_imaginary_part(tmp_path, doc):
    # A real initial state's conjugate pairs cancel exactly in the imaginary
    # part, so the summary reports no roundoff there.
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 0
    summary = json.loads((out / f"{doc['name']}_summary.json").read_text())
    assert summary["n_modes_propagated"] > 0
    assert summary["max_imag"] == 0.0


def test_solve_with_reference_appends_error_columns(tmp_path):
    config = write_config(tmp_path, DUFFING)
    out = tmp_path / "out"
    code = main(
        ["solve", "--config", config, "--reference", "--rk-step", "1e-3",
         "--out-dir", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out / "duffing_trajectory.csv")
    assert header == ["t", "q", "p", "q_ref", "p_ref", "q_err", "p_err"]
    assert rows.shape == (100, 7)

    summary = json.loads((out / "duffing_summary.json").read_text())
    errors = summary["observable_errors"]
    assert errors["q"]["max"] <= 1e-2
    # The summary's max error is the max over the CSV error columns.
    assert errors["q"]["max"] == pytest.approx(rows[:, 5].max(), abs=1e-15)
    assert errors["p"]["max"] == pytest.approx(rows[:, 6].max(), abs=1e-15)
    assert errors["q"]["rms"] <= errors["q"]["max"]


def test_solve_repeated_runs_byte_identical(tmp_path):
    config = write_config(tmp_path, DUFFING)
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "duffing_trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "duffing_trajectory.csv").read_bytes()
    assert csv_a == csv_b
    sum_a = json.loads((tmp_path / "a" / "duffing_summary.json").read_text())
    sum_b = json.loads((tmp_path / "b" / "duffing_summary.json").read_text())
    del sum_a["timings"], sum_b["timings"]
    assert sum_a == sum_b


def eager_solve(spec, rk_step=None, edit=None):
    """The trajectory CSV and the summary (without timings) of a solve, from
    whole arrays: the observables and the states propagated at every time
    in one pass, the box-exit check over every state at once and the errors
    over every time at once.  `edit`, if given, changes the observable
    values in place first."""
    basis = build_basis(spec.order, len(spec.states))
    model = build_model(basis, spec.unit_vf, spec.unit_observables)
    state_H = observable_matrix(basis, ObservableSet.identity(spec.states))
    box = zip(spec.initial_state, spec.domain_center, spec.domain_half_width)
    phi0 = initial_eigenfunctions(model.blocks, evaluate_basis(basis, [(x - c) / h for x, c, h in box]))
    times = np.linspace(0.0, spec.t_final, spec.num_steps)
    n_obs = len(model.H)
    trajectory = propagate_observables(np.vstack((model.H, state_H)), model.blocks, phi0, times)
    values = trajectory.values[:n_obs].copy()
    if edit is not None:
        edit(values)
    outside = np.abs(trajectory.values[n_obs:]).max(axis=0) > 1.0 + 1e-9
    first_exit = float(times[np.argmax(outside)]) if outside.any() else None

    names = spec.observables.names
    header, columns, errors = ["t", *names], [times, *values], None
    if rk_step is not None:
        reference = _reference_values(spec, times, rk_step)
        diff = np.abs(values - reference)
        header += [f"{name}_ref" for name in names] + [f"{name}_err" for name in names]
        columns += [*reference, *diff]
        errors = {
            name: {"max": float(d.max()), "rms": float(np.sqrt(np.mean(d**2)))}
            for name, d in zip(names, diff)
        }
    # `%r` of a float is its repr.
    line = ",".join(["%r"] * len(columns)) + "\n"
    body = line * times.size % tuple(np.column_stack(columns).ravel().tolist())
    result = cli.SolveResult(spec, model, trajectory.n_modes_propagated, first_exit, errors, {})
    summary = cli._summary_json(result)
    del summary["timings"]
    return (",".join(header) + "\n" + body).encode("utf-8"), json.loads(json.dumps(summary))


def solve_outputs(tmp_path, doc, rk_step=None):
    """Run `legkoop solve` on `doc`; its CSV bytes and summary without timings."""
    out = tmp_path / "out"
    args = ["solve", "--config", write_config(tmp_path, doc), "--out-dir", str(out)]
    if rk_step is not None:
        args += ["--reference", "--rk-step", repr(rk_step)]
    assert main(args) == 0
    summary = json.loads((out / f"{doc['name']}_summary.json").read_text())
    assert set(summary.pop("timings")) >= {"basis", "assemble", "eigen", "propagate", "total"}
    return (out / f"{doc['name']}_trajectory.csv").read_bytes(), summary


@pytest.mark.parametrize("rk_step", [None, 1e-3])
@pytest.mark.parametrize(
    "doc, rows",
    [
        (DUFFING, lambda chunk: _TIME_BLOCK - 1),
        (DUFFING, lambda chunk: _TIME_BLOCK),
        (DUFFING, lambda chunk: _TIME_BLOCK + 1),
        (DUFFING, lambda chunk: 2 * _TIME_BLOCK + 1),
        (DUFFING, lambda chunk: 2 * chunk - 1),
        (DUFFING, lambda chunk: 2 * chunk),
        (DUFFING, lambda chunk: 2 * chunk + 1),
        (WIDE, lambda chunk: _TIME_BLOCK + 1),
    ],
    # B = _TIME_BLOCK; C = the rows of a CSV chunk: 2048 of the three
    # columns t,q,p, 877 of the seven with --reference.
    ids=["B-1", "B", "B+1", "2B+1", "2C-1", "2C", "2C+1", "wide-B+1"],
)
def test_streamed_solve_matches_the_eager_oracle(tmp_path, doc, rows, rk_step):
    observables = len(parse_system_config(json.dumps(doc)).observables.names)
    columns = 1 + observables * (1 if rk_step is None else 3)
    doc = {**doc, "num_steps": rows(reprtext._CHUNK_VALUES // columns)}
    csv, summary = solve_outputs(tmp_path, doc, rk_step)
    assert (csv, summary) == eager_solve(parse_system_config(json.dumps(doc)), rk_step)


# q' = p, p' = -q from (0.5, 0): q = 0.5 cos t, p = -0.5 sin t.
TWO_STATE = {
    "name": "two_state",
    "states": ["q", "p"],
    "dynamics": [
        {"terms": [{"coef": 1.0, "exp": [0, 1]}]},
        {"terms": [{"coef": -1.0, "exp": [1, 0]}]},
    ],
    "initial_state": [0.5, 0.0],
    "order": 3,
    "t_final": 200.0,
    "num_steps": 200_000,
}

# q'' = -q - q': both states fall below 1e-4 for good near t = 17, so the
# CSV mixes values the vectorized formatter writes with values it leaves to
# repr.
DAMPED = {
    **TWO_STATE,
    "name": "damped",
    "dynamics": [
        {"terms": [{"coef": 1.0, "exp": [0, 1]}]},
        {"terms": [{"coef": -1.0, "exp": [1, 0]}, {"coef": -1.0, "exp": [0, 1]}]},
    ],
    "order": 1,
    "t_final": 40.0,
}


def _two_state_solution(t):
    return 0.5 * np.cos(t), -0.5 * np.sin(t)


def _damped_solution(t):
    w = math.sqrt(0.75)
    decay = np.exp(-t / 2)
    return decay * (0.5 * np.cos(w * t) + 0.25 / w * np.sin(w * t)), -0.5 / w * decay * np.sin(w * t)


@pytest.mark.parametrize(
    "doc, solution", [(TWO_STATE, _two_state_solution), (DAMPED, _damped_solution)],
    ids=["two-state", "damped"],
)
def test_a_solve_at_200000_times_writes_the_repr_of_the_exact_solution(tmp_path, doc, solution):
    # Every block after the first is propagated from the first block's
    # exponentials, and every chunk of the CSV is formatted on its own.
    csv, summary = solve_outputs(tmp_path, doc)
    assert (csv, summary) == eager_solve(parse_system_config(json.dumps(doc)))
    assert summary["max_imag"] == 0.0
    assert csv.count(b"\n") == 200_001
    cells = csv.split(b"\n", 1)[1].replace(b"\n", b",").split(b",")[:-1]
    t, q, p = np.array(cells, dtype=float).reshape(-1, 3).T
    q_exact, p_exact = solution(t)
    assert max(np.abs(q - q_exact).max(), np.abs(p - p_exact).max()) <= 1e-12
    small = np.maximum(np.abs(q), np.abs(p)) < 1e-4
    assert small.any() == (doc is DAMPED)


def test_the_long_solve_formats_its_rows_in_chunks_of_6144_values(tmp_path, monkeypatch):
    # 40 000 rows of t,q,p: nineteen chunks of 2048 rows, each two blocks of
    # propagation, and the 1088 rows left.
    sizes = []
    formatter = reprtext.repr_rows
    monkeypatch.setattr(reprtext, "repr_rows", lambda table: sizes.append(table.size) or formatter(table))
    doc = {**DUFFING, "order": 8, "t_final": 40.0, "num_steps": 40_000}
    solve_outputs(tmp_path, doc)
    assert sizes == [6144] * 19 + [3264]


def test_propagation_timing_leaves_out_the_csv(tmp_path, monkeypatch):
    # Five chunks of 2048 rows, each taking at least 20 ms to format.
    calls = []
    formatter = reprtext.repr_rows

    def slow(table):
        calls.append(table.size)
        time.sleep(0.02)
        return formatter(table)

    monkeypatch.setattr(reprtext, "repr_rows", slow)
    config = write_config(tmp_path, {**DUFFING, "num_steps": 5 * 2048})
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path)]) == 0
    timings = json.loads((tmp_path / "duffing_summary.json").read_text())["timings"]
    assert len(calls) == 5
    assert timings["propagate"] < 0.02
    assert timings["total"] >= 0.02 * len(calls)


def test_box_exit_first_seen_in_the_second_block(tmp_path, capsys):
    # From (0.99, 0.5) q crosses 1 near t = 0.022, which this grid puts in
    # its second block of times.
    doc = {
        **DUFFING, "initial_state": [0.99, 0.5], "t_final": 0.03, "num_steps": 2 * _TIME_BLOCK + 1
    }
    spec = parse_system_config(json.dumps(doc))
    _, expected = eager_solve(spec)
    exit_time = expected["first_box_exit_time"]
    times = np.linspace(0.0, spec.t_final, spec.num_steps)
    assert _TIME_BLOCK <= np.searchsorted(times, exit_time) < 2 * _TIME_BLOCK
    _, summary = solve_outputs(tmp_path, doc)
    assert summary["first_box_exit_time"] == exit_time
    assert f"leaves the unit box at t = {exit_time:g}" in capsys.readouterr().err


def test_trajectory_csv_is_the_repr_of_each_value(tmp_path, monkeypatch):
    # More rows than one block, ending in a partial block; with and without
    # the reference columns.  A -0.0 put into the first block and a 3.5e-7
    # put into the last one come out as such.
    doc = {**DUFFING, "num_steps": _TIME_BLOCK + 3}
    stream = cli._evaluate_rows

    def edit(values, first=True, last=True):
        if first:
            values[1, 0] = -0.0
        if last:
            values[0, -1] = 3.5e-7

    def injecting(*args, **kwargs):
        for block, values, n_modes in stream(*args, **kwargs):
            edit(values, block.start == 0, block.stop == doc["num_steps"])
            yield block, values, n_modes

    monkeypatch.setattr(cli, "_evaluate_rows", injecting)
    spec = parse_system_config(json.dumps(doc))
    for rk_step in (1e-3, None):
        csv, _ = solve_outputs(tmp_path, doc, rk_step)
        lines = csv.decode("utf-8").splitlines()
        assert len(lines) == _TIME_BLOCK + 4
        assert lines[1].split(",")[2] == "-0.0" and lines[-1].split(",")[1] == "3.5e-07"
        assert csv == eager_solve(spec, rk_step, edit)[0]


def test_trajectory_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # 40 000 rows of seven columns: the CSV text is 5.7 MB, a list of its
    # rows or lines some 30 MiB.  The streamed solve holds one block of rows,
    # besides the grid, the reference values and their errors (1.5 MiB).
    doc = {**DUFFING, "order": 8, "t_final": 40.0, "num_steps": 40_000}
    config = write_config(tmp_path, doc)
    solve = partial(cli.run_solve, config, reference=True, rk_step=1e-3, out_dir=str(tmp_path))
    assert solve() == 0  # first runs pay for lazy imports and caches
    tracemalloc.start()
    try:
        assert solve() == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_wide_rows_are_formatted_a_chunk_at_a_time(tmp_path):
    # 41 columns: a block of 1024 rows is some 42 000 values, whose formatting
    # took about 3.4 MiB of temporaries when a block went to repr_rows whole
    # (the solve peaked at 4.8 MiB).  A chunk is about 6144 values.
    config = write_config(tmp_path, {**WIDE, "num_steps": 3 * _TIME_BLOCK})
    solve = partial(cli.run_solve, config, out_dir=str(tmp_path))
    assert solve() == 0
    tracemalloc.start()
    try:
        assert solve() == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_solve_memory_does_not_grow_with_the_output_times(tmp_path):
    # Duffing c=8 at 10^4 and 2 * 10^5 times.  Besides the time grid itself
    # (8 bytes per time, 1.45 MiB more) the peak grows by less than 1 MiB;
    # whole arrays of the two observables and two states would add 5.8 MiB.
    peaks = []
    for nt in (10**4, 2 * 10**5):
        doc = {**DUFFING, "order": 8, "t_final": nt / 1000, "num_steps": nt}
        solve = partial(cli.run_solve, write_config(tmp_path, doc), out_dir=str(tmp_path))
        assert solve() == 0
        tracemalloc.start()
        try:
            assert solve() == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20 + 8 * (2 * 10**5 - 10**4)


@pytest.mark.parametrize("out_dir_exists", [False, True])
def test_numeric_failure_in_a_later_block_leaves_nothing_behind(
    tmp_path, monkeypatch, capsys, out_dir_exists
):
    stream = cli._evaluate_rows

    def failing(*args, **kwargs):
        blocks = stream(*args, **kwargs)
        yield next(blocks)
        raise NonFiniteError("propagation produced non-finite values")

    monkeypatch.setattr(cli, "_evaluate_rows", failing)
    config = write_config(tmp_path, {**DUFFING, "num_steps": 2 * _TIME_BLOCK + 1})
    out = tmp_path / "new" / "out"
    if out_dir_exists:
        out.mkdir(parents=True)
        (out / "kept.txt").write_text("kept", encoding="utf-8")
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 4
    assert "numeric failure: propagation produced non-finite values" in capsys.readouterr().err
    if out_dir_exists:
        assert [path.name for path in out.iterdir()] == ["kept.txt"]
    else:
        assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("order, modes", [(3, 6), (8, 20)])
def test_summary_reports_blocks_and_propagated_modes(tmp_path, order, modes):
    config = write_config(tmp_path, {**DUFFING, "order": order})
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "duffing_summary.json").read_text())
    assert set(summary) == {
        "system", "m", "c", "n", "n_blocks", "eigenvalues", "eigenresidual",
        "eigencondition", "skewness", "max_imag", "n_modes_propagated",
        "observable_errors", "first_box_exit_time", "timings",
    }
    assert summary["n_blocks"] == 2
    assert summary["n_modes_propagated"] == modes
    assert len(summary["eigenvalues"]) == summary["n"]


# The benchmark's 4-D field: two oscillators with damping and quadratic coupling.
QUAD4 = {
    "name": "quad4",
    "states": ["x1", "v1", "x2", "v2"],
    "dynamics": [
        {"terms": [{"coef": 1.0, "exp": [0, 1, 0, 0]}]},
        {"terms": [{"coef": -1.0, "exp": [1, 0, 0, 0]}, {"coef": -0.02, "exp": [0, 1, 0, 0]},
                   {"coef": 0.1, "exp": [1, 0, 1, 0]}]},
        {"terms": [{"coef": 1.0, "exp": [0, 0, 0, 1]}]},
        {"terms": [{"coef": -2.0, "exp": [0, 0, 1, 0]}, {"coef": -0.02, "exp": [0, 0, 0, 1]},
                   {"coef": 0.1, "exp": [2, 0, 0, 0]}]},
    ],
    "initial_state": [0.3, 0.1, -0.2, 0.2],
    "order": 5,
    "t_final": 5.0,
    "num_steps": 100,
}


@pytest.mark.parametrize("doc, flags", [
    (DUFFING, []),
    (QUAD4, []),
    # observable_errors set, one of its keys the name of a top-level key
    ({**DUFFING, "observables": [
        {"name": "eigenvalues", "terms": [{"coef": 1.0, "exp": [2, 0]}]},
        {"name": "q", "terms": [{"coef": 1.0, "exp": [1, 0]}]},
    ]}, ["--reference", "--rk-step", "1e-3"]),
    # first_box_exit_time set: x(t) = 0.5 exp(t)
    ({"name": "growth", "states": ["x"], "dynamics": [{"terms": [{"coef": 1.0, "exp": [1]}]}],
      "initial_state": [0.5], "order": 3, "t_final": 2.0, "num_steps": 50}, []),
    # a name with non-ASCII text, quotes, a line break and the key's own text
    ({**DUFFING, "name": '\u00e9\u4e2d "eigenvalues": null\n  "eigenvalues": null,'}, []),
], ids=["duffing", "quad4", "reference", "box-exit", "name"])
def test_the_summary_is_json_dumps_with_indent_2(tmp_path, monkeypatch, doc, flags):
    summaries = []
    summary_json = cli._summary_json

    def noting_summary(result):
        summaries.append(summary_json(result))
        return summaries[-1]

    monkeypatch.setattr(cli, "_summary_json", noting_summary)
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)] + flags) == 0
    [summary] = summaries
    written = (out / f"{doc['name']}_summary.json").read_bytes()
    assert written == (json.dumps(summary, indent=2) + "\n").encode("utf-8")
    assert len(summary["eigenvalues"]) == summary["n"]
    assert (summary["observable_errors"] is None) == ("--reference" not in flags)
    assert (summary["first_box_exit_time"] is None) == (doc["name"] != "growth")


def test_box_rows_are_the_identity_observables_bit_for_bit():
    cases = 0
    for m in range(1, MAX_DIMENSION + 1):
        for c in range(1, MAX_ORDER + 1):
            if math.comb(c + m, m) > MAX_BASIS_SIZE:
                break
            basis = build_basis(c, m)
            identity = ObservableSet.identity(tuple(f"y{k}" for k in range(m)))
            expected = observable_matrix(basis, identity)
            rows = cli._box_rows(basis)
            assert rows.shape == expected.shape and rows.dtype == expected.dtype
            # tobytes compares sign bits too: -0.0 differs from 0.0.
            assert rows.tobytes() == expected.tobytes(), (c, m)
            cases += 1
    assert cases == 63


def _same_bits(a, b):
    # tobytes compares sign bits too: -0.0 differs from 0.0.
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _nesting_polynomial(rng, m, degree):
    # 1-4 terms, each of a random total degree 0..degree.
    exps = [rng.multinomial(rng.integers(0, degree + 1), [1 / m] * m)
            for _ in range(rng.integers(1, 5))]
    return canonicalize([(float(rng.normal()), tuple(int(e) for e in exp)) for exp in exps], m)


def test_each_order_is_the_leading_block_of_a_higher_order_bit_for_bit():
    # A sweep assembles once, at its top order C, and solves each order
    # c <= C on the leading blocks: the basis rows, K, H, the box rows and
    # the basis at a point must equal those of order c, sign bits included.
    # Seeded random fields of degree <= 3, with observables of degree <= 3.
    top = {1: MAX_ORDER, 2: 10, 3: 7, 4: 5}
    cases = 0
    for seed in range(24):
        rng = np.random.default_rng(700 + seed)
        m = seed % 4 + 1
        vf = VectorField(m, tuple(_nesting_polynomial(rng, m, 3) for _ in range(m)))
        observables = [
            ObservableSet(("g",), (_nesting_polynomial(rng, m, degree),)) for degree in range(4)
        ]
        point = rng.uniform(-1.0, 1.0, size=m)
        big = build_basis(top[m], m)
        K = assemble_koopman(big, vf)
        H = [observable_matrix(big, g) for g in observables]
        box = cli._box_rows(big)
        values = evaluate_basis(big, point)
        for c in range(top[m] + 1):
            basis = build_basis(c, m)
            n = basis.n
            assert _same_bits(big.orders[:n], basis.orders), (seed, c)
            assert _same_bits(K[:n, :n], assemble_koopman(basis, vf)), (seed, c)
            for g, rows in zip(observables, H):
                if g.polys[0].total_degree <= c:
                    assert _same_bits(rows[:, :n], observable_matrix(basis, g)), (seed, c)
            if c >= 1:
                assert _same_bits(box[:, :n], cli._box_rows(basis)), (seed, c)
            assert _same_bits(values[:n], evaluate_basis(basis, point)), (seed, c)
            cases += 1
    assert cases == 6 * (13 + 11 + 8 + 6)


def test_a_sweep_row_is_the_row_of_that_order_swept_alone(tmp_path):
    # The sweep over 0..6 solves every order on the blocks of one assembly
    # at order 6; swept alone, an order is assembled at its own size.
    doc = {**DUFFING, "domain": {"center": [0.1, 0.0], "half_width": [1.5, 1.2]},
           "observables": [{"name": "q2", "terms": [{"coef": 1.0, "exp": [2, 0]},
                                                    {"coef": -0.5, "exp": [0, 1]}]}]}
    config = write_config(tmp_path, doc)
    args = ["sweep", "--config", config, "--rk-step", "1e-2"]
    assert main(args + ["--orders", "0..6", "--out-dir", str(tmp_path / "all")]) == 0
    rows = _sweep_rows_without_wall_time(tmp_path / "all")
    # Orders 0 and 1 cannot carry the degree-2 observable.
    assert [row.split(",")[2] == "ok" for row in rows[1:]] == [False] * 2 + [True] * 5
    for order in range(2, 7):
        out = tmp_path / f"order{order}"
        assert main(args + ["--orders", str(order), "--out-dir", str(out)]) == 0
        assert _sweep_rows_without_wall_time(out) == [rows[0], rows[1 + order]]


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--orders", "1..2"]])
def test_json_nested_too_deep_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main(command + ["--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: $: not valid JSON")


def test_solve_missing_config_is_io_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_solve_schema_error_names_path(tmp_path, capsys):
    config = write_config(tmp_path, {**DUFFING, "name": 7})
    assert main(["solve", "--config", config]) == 2
    assert "name" in capsys.readouterr().err


def test_solve_order_zero_identity_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {**DUFFING, "order": 0})
    assert main(["solve", "--config", config]) == 2
    assert "order 0" in capsys.readouterr().err


DUPLICATE_OBSERVABLES = {**DUFFING, "observables": [
    {"name": "a", "terms": [{"coef": 1.0, "exp": [1, 0]}]},
    {"name": "a", "terms": [{"coef": 1.0, "exp": [0, 1]}]},
]}


def test_solve_rejects_duplicate_observable_names(tmp_path, capsys):
    config = write_config(tmp_path, DUPLICATE_OBSERVABLES)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
    assert "'a' is used more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--orders", "1..2"]])
def test_a_name_outside_the_output_directory_is_refused(tmp_path, capsys, command):
    names = ["", ".", "..", "../escaped", str(tmp_path / "absolute"), "sub/dir", "a\0b"]
    for index, name in enumerate(names):
        config = write_config(tmp_path, {**DUFFING, "name": name}, name=f"c{index}.json")
        argv = command + ["--config", config, "--rk-step", "1e-2",
                          "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2, name
        assert capsys.readouterr().err.startswith("config error: name: ")
    # Nothing was written: tmp_path holds only the configs.
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"c{i}.json" for i in range(len(names))]


@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1..2"]])
def test_a_name_too_long_for_its_output_file_names_is_refused(tmp_path, capsys, command):
    # "<name>_trajectory.csv.tmp" must fit in 255 bytes: 236 for the name,
    # counted in UTF-8 ("é" takes two).
    assert MAX_NAME_BYTES == 236
    names = ["a" * 300, "a" * 237, "\u00e9" * 119]
    for index, name in enumerate(names):
        config = write_config(tmp_path, {**DUFFING, "name": name}, name=f"c{index}.json")
        argv = command + ["--config", config, "--rk-step", "1e-2",
                          "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2, len(name)
        assert capsys.readouterr().err.startswith(
            f"config error: name: {len(name.encode())} bytes in UTF-8 exceed the limit of 236"
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"c{i}.json" for i in range(len(names))]


@pytest.mark.parametrize("name", ["a" * 236, "\u00e9" * 118])
def test_a_name_at_the_byte_limit_is_written(tmp_path, name):
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, {**DUFFING, "name": name}),
                 "--out-dir", str(out)]) == 0
    assert (out / f"{name}_trajectory.csv").exists()
    assert len(f"{name}_trajectory.csv.tmp".encode()) == 255


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--orders", "1..2"]])
@pytest.mark.parametrize("name", ["x,y", 'x"', "line\nbreak", "cr\r", ""])
def test_a_state_or_observable_name_that_breaks_the_csv_is_refused(
    tmp_path, capsys, command, name
):
    observables = [{"name": "a", "terms": [{"coef": 1.0, "exp": [1, 0]}]},
                   {"name": name, "terms": [{"coef": 1.0, "exp": [0, 1]}]}]
    out = tmp_path / "out"
    for doc, field in [({**DUFFING, "states": [name, "p"]}, "states"),
                       ({**DUFFING, "observables": observables}, "observables")]:
        config = write_config(tmp_path, doc)
        argv = command + ["--config", config, "--rk-step", "1e-2", "--out-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: name {name!r} ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["solve"], ["solve", "--reference"], ["sweep", "--orders", "1..2"]]
)
@pytest.mark.parametrize(
    "names, repeated",
    [(["t", "t_ref"], "t"), (["q", "t"], "t"), (["g", "g_ref"], "g_ref"),
     (["g_err", "g"], "g_err")],
)
def test_an_observable_name_that_repeats_a_header_cell_is_refused(
    tmp_path, capsys, refused_rk4, command, names, repeated
):
    # The trajectory header is t, each name, each <name>_ref, each <name>_err:
    # every command refuses a name that would repeat one of its cells.
    observables = [{"name": name, "terms": [{"coef": 1.0, "exp": [1, 0]}]} for name in names]
    config = write_config(tmp_path, {**DUFFING, "observables": observables})
    out = tmp_path / "out"
    assert main(command + ["--config", config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: observables: name {repeated!r} is used more than once\n"
    assert not out.exists()
    assert refused_rk4() == []


@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1..2"]])
@pytest.mark.parametrize("field", ["name", "states", "observables"])
def test_a_name_that_is_not_utf8_text_is_refused(tmp_path, capsys, command, field):
    # A lone surrogate ("\udc80" in the JSON) has no UTF-8 form, so no file
    # name or CSV header cell can hold it.
    name = "q\udc80"
    observables = [{"name": name, "terms": [{"coef": 1.0, "exp": [1, 0]}]}]
    doc = {
        "name": {**DUFFING, "name": name},
        "states": {**DUFFING, "states": [name, "p"]},
        "observables": {**DUFFING, "observables": observables},
    }[field]
    out = tmp_path / "new" / "out"
    argv = command + ["--config", write_config(tmp_path, doc), "--rk-step", "1e-2",
                      "--out-dir", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: {field}: 'q\\udc80' is not valid UTF-8 text: it holds a lone surrogate\n"
    )
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["system.json"]


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--orders", "1..2"]])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "system.json"
    path.write_bytes(json.dumps({**DUFFING, "name": "duff\xffing"}, ensure_ascii=False)
                     .encode("latin-1"))
    out = tmp_path / "out"
    assert main(command + ["--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: $: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert not out.exists()


def fail_writes(monkeypatch, part):
    """Make each write to a file opened for writing whose name contains
    `part` fail as on a full disk."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        stream = real_open(self, mode, *args, **kwargs)
        if "w" in mode and part in self.name:
            def write(text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            stream.write = write
        return stream

    monkeypatch.setattr(Path, "open", open_)


@pytest.mark.parametrize(
    "command, part",
    [
        (["solve"], "_trajectory.csv"),
        (["solve"], "_summary.json"),
        (["solve", "--reference"], "_summary.json"),
        (["sweep", "--orders", "1..2"], "_sweep.csv"),
    ],
)
def test_a_failed_write_leaves_no_file_or_directory(tmp_path, monkeypatch, capsys, command, part):
    # Under a new nested --out-dir: the run removes what it made, the
    # directories included, whichever of its files could not be written.
    config = write_config(tmp_path, DUFFING)
    fail_writes(monkeypatch, part)
    out = tmp_path / "new" / "out"
    argv = command + ["--config", config, "--rk-step", "1e-2", "--out-dir", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot write outputs: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    )
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["system.json"]


def test_solve_near_defective_exit_code(tmp_path, capsys):
    drift = {
        "name": "drift",
        "states": ["x"],
        "dynamics": [{"terms": [{"coef": 1.0, "exp": [0]}]}],
        "initial_state": [0.0],
        "order": 2,
        "t_final": 1.0,
        "num_steps": 10,
    }
    config = write_config(tmp_path, drift)
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "out")]) == 3


def test_solve_overflow_exit_code(tmp_path, capsys):
    fast_growth = {
        "name": "growth",
        "states": ["x"],
        "dynamics": [{"terms": [{"coef": 100.0, "exp": [1]}]}],
        "initial_state": [0.5],
        "order": 3,
        "t_final": 10.0,
        "num_steps": 100,
    }
    for t_final in (10.0, 1e300):
        config = write_config(tmp_path, {**fast_growth, "t_final": t_final})
        assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "> 700.0; exp would overflow" in err
        # The growth is printed in scientific notation, never as 300 digits.
        assert err.count("\n") == 1 and len(err) <= 100


# K's entries at order 3 overflow the float range: 1e308 times the
# projection of d/dx x^3 onto the basis.
OVERFLOWING_K = {
    "name": "big",
    "states": ["x"],
    "dynamics": [{"terms": [{"coef": 1e308, "exp": [3]}]}],
    "initial_state": [0.0],
    "order": 3,
    "t_final": 1.0,
    "num_steps": 5,
}


@pytest.mark.parametrize("flags", [[], ["--reference"]])
def test_an_overflowing_K_is_a_numeric_failure(tmp_path, capsys, flags):
    out = tmp_path / "out"
    config = write_config(tmp_path, OVERFLOWING_K)
    assert main(["solve", "--config", config, "--out-dir", str(out)] + flags) == 4
    assert capsys.readouterr().err == "numeric failure: K contains non-finite entries\n"
    assert not out.exists()


@pytest.mark.parametrize("t_final", [1.0, 1e-306], ids=["exp overflows", "tiny t_final"])
def test_a_sweep_fails_the_orders_whose_K_overflows_and_runs_the_rest(tmp_path, capsys, t_final):
    # The sweep assembles once, at order 4, where K holds infinities; the
    # blocks of orders 1 and 2 are finite.  Over a short enough time order 1
    # solves.
    out = tmp_path / "out"
    config = write_config(tmp_path, {**OVERFLOWING_K, "t_final": t_final, "num_steps": 2})
    assert main(["sweep", "--config", config, "--orders", "0..4", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in (out / "big_sweep.csv").read_text().splitlines()[1:]]
    status = {row[0]: row[2] for row in rows}
    assert list(status) == ["0", "1", "2", "3", "4"]
    assert status["3"] == status["4"] == "failed: K contains non-finite entries"
    if t_final == 1.0:
        assert all(status[order].startswith("failed: Re(lambda)*t reaches ") for order in "12")
    else:
        assert status["1"] == "ok"


def test_solve_box_exit_warning(tmp_path, capsys):
    growth = {
        "name": "growth",
        "states": ["x"],
        "dynamics": [{"terms": [{"coef": 1.0, "exp": [1]}]}],
        "initial_state": [0.5],
        "order": 3,
        "t_final": 2.0,
        "num_steps": 50,
    }
    config = write_config(tmp_path, growth)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 0
    err = capsys.readouterr().err
    assert "leaves the unit box" in err
    summary = json.loads((out / "growth_summary.json").read_text())
    # x(t) = 0.5 exp(t) crosses 1 at ln 2 ~ 0.69; the grid point after that.
    assert summary["first_box_exit_time"] == pytest.approx(np.log(2.0), abs=0.05)


def test_solve_inside_box_has_no_warning(tmp_path, capsys):
    config = write_config(tmp_path, DUFFING)
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
    assert "unit box" not in capsys.readouterr().err


def test_solve_on_a_shifted_box_matches_rk4(tmp_path):
    # q' = p + 0.3, p' = -q circles (0, -0.3); the box is neither centred
    # there nor square, so both the field and the observables are rescaled.
    shifted = {
        "name": "shifted",
        "states": ["q", "p"],
        "dynamics": [
            {"terms": [{"coef": 1.0, "exp": [0, 1]}, {"coef": 0.3, "exp": [0, 0]}]},
            {"terms": [{"coef": -1.0, "exp": [1, 0]}]},
        ],
        "domain": {"center": [0.5, -0.2], "half_width": [2.0, 3.0]},
        "initial_state": [1.0, 0.5],
        "order": 2,
        "t_final": 5.0,
        "num_steps": 50,
        "observables": [
            {"name": "energy", "terms": [{"coef": 0.5, "exp": [2, 0]},
                                         {"coef": 0.5, "exp": [0, 2]}]},
            {"name": "q", "terms": [{"coef": 1.0, "exp": [1, 0]}]},
        ],
    }
    config = write_config(tmp_path, shifted)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--reference", "--out-dir", str(out)]) == 0
    errors = json.loads((out / "shifted_summary.json").read_text())["observable_errors"]
    assert max(err["max"] for err in errors.values()) <= 1e-10


def _x_field(terms, **config):
    return {"name": "x", "states": ["x"], "dynamics": [{"terms": terms}],
            "initial_state": [0.5], "order": 2, "t_final": 1.0, "num_steps": 5, **config}


_OVERFLOWING_TERMS = [{"coef": 1e308, "exp": [1]}, {"coef": 1e308, "exp": [1]}]
_OFF_CENTER = {"domain": {"center": [0.5], "half_width": [2.0]}}


@pytest.mark.parametrize("doc", [
    # like terms that sum to inf
    _x_field(_OVERFLOWING_TERMS),
    # x' = 1e308 x + 1e308, whose rescaled coefficient 2e308 overflows
    _x_field([{"coef": 1e308, "exp": [1]}, {"coef": 1e308, "exp": [0]}], **_OFF_CENTER),
    # the same two ways for an observable
    _x_field([{"coef": 1.0, "exp": [1]}], observables=[{"name": "g", "terms": _OVERFLOWING_TERMS}]),
    _x_field([{"coef": 1.0, "exp": [1]}], **_OFF_CENTER,
             observables=[{"name": "g", "terms": [{"coef": 1e308, "exp": [1]}]}]),
    # an integer beyond the float range
    _x_field([{"coef": 10**400, "exp": [1]}]),
])
def test_coefficients_beyond_the_float_range_are_config_errors(tmp_path, capsys, doc):
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--reference", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: ") and "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    # the center's square, 1e400, overflows
    _x_field([{"coef": 1.0, "exp": [2]}], initial_state=[1e200],
             domain={"center": [1e200], "half_width": [1e200]}),
    # x' = 1e300 x y^2: 1e300 * 1e100 overflows, then meets only weights
    # that underflow to 0.0 (1e-200 ** 2)
    {"name": "xy", "states": ["x", "y"],
     "dynamics": [{"terms": [{"coef": 1e300, "exp": [1, 2]}]},
                  {"terms": [{"coef": 1.0, "exp": [1, 0]}]}],
     "domain": {"center": [0.0, 0.0], "half_width": [1e100, 1e-200]},
     "initial_state": [0.0, 0.0], "order": 3, "t_final": 1.0, "num_steps": 5},
])
def test_an_overflowing_rescale_is_a_one_line_domain_error(tmp_path, capsys, doc):
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: domain: rescaling to the unit box fails: ")
    assert err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep

def test_sweep_table_and_csv(tmp_path, capsys):
    config = write_config(tmp_path, DUFFING)
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", config, "--orders", "1..7", "--rk-step", "1e-3",
         "--out-dir", str(out)]
    )
    assert code == 0
    lines = (out / "duffing_sweep.csv").read_text().splitlines()
    assert lines[0] == "order,n,status,max_err_q,max_err_p,eigenresidual,wall_time_s"
    assert len(lines) == 8
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(c) for c in range(1, 8)]
    assert all(r[2] == "ok" for r in rows)
    errs_q = [float(r[3]) for r in rows]
    assert min(errs_q) <= errs_q[0]
    # Output table is printed too.
    assert "order" in capsys.readouterr().out


def test_sweep_comma_list_orders(tmp_path):
    config = write_config(tmp_path, DUFFING)
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--orders", "1,3", "--rk-step", "1e-2",
                 "--out-dir", str(out)]) == 0
    lines = (out / "duffing_sweep.csv").read_text().splitlines()
    assert len(lines) == 3


def test_sweep_single_order_matches_solve_summary(tmp_path):
    config = write_config(tmp_path, DUFFING)
    assert main(["sweep", "--config", config, "--orders", "3", "--rk-step", "1e-3",
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert main(["solve", "--config", config, "--reference", "--rk-step", "1e-3",
                 "--out-dir", str(tmp_path / "r")]) == 0
    sweep_row = (tmp_path / "s" / "duffing_sweep.csv").read_text().splitlines()[1]
    summary = json.loads((tmp_path / "r" / "duffing_summary.json").read_text())
    assert float(sweep_row.split(",")[3]) == pytest.approx(
        summary["observable_errors"]["q"]["max"], abs=1e-15
    )


def test_sweep_linear_system_accurate_at_all_orders(tmp_path):
    harmonic = {**DUFFING, "name": "harmonic"}
    harmonic["dynamics"] = [
        {"terms": [{"coef": 1.0, "exp": [0, 1]}]},
        {"terms": [{"coef": -1.0, "exp": [1, 0]}]},
    ]
    config = write_config(tmp_path, harmonic)
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--orders", "1..4", "--rk-step", "1e-3",
                 "--out-dir", str(out)]) == 0
    lines = (out / "harmonic_sweep.csv").read_text().splitlines()[1:]
    for line in lines:
        parts = line.split(",")
        assert parts[2] == "ok"
        assert float(parts[3]) <= 1e-7
        assert float(parts[4]) <= 1e-7


def test_sweep_records_failed_orders_and_continues(tmp_path):
    doc = {**DUFFING, "observables": [
        {"name": "q3", "terms": [{"coef": 1.0, "exp": [3, 0]}]}
    ]}
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    # Order 2 cannot carry the cubic observable; orders 3..4 can.
    assert main(["sweep", "--config", config, "--orders", "2..4", "--rk-step", "1e-2",
                 "--out-dir", str(out)]) == 0
    lines = (out / "duffing_sweep.csv").read_text().splitlines()[1:]
    by_order = {line.split(",")[0]: line.split(",") for line in lines}
    assert by_order["2"][2].startswith("failed")
    assert by_order["3"][2] == "ok"
    assert by_order["4"][2] == "ok"


def test_sweep_failed_rows_have_empty_cells_and_ok_rows_keep_their_format(tmp_path, capsys):
    doc = {**DUFFING, "observables": [
        {"name": "q3", "terms": [{"coef": 1.0, "exp": [3, 0]}]}
    ]}
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--orders", "1..3", "--rk-step", "1e-2",
                 "--out-dir", str(out)]) == 0
    lines = (out / "duffing_sweep.csv").read_text().splitlines()
    assert lines[0] == "order,n,status,max_err_q3,eigenresidual,wall_time_s"
    csv_rows = [line.split(",") for line in lines[1:]]
    table_rows = [re.split(r"\s{2,}", line) for line in capsys.readouterr().out.splitlines()]
    assert table_rows[0] == lines[0].split(",")
    table_rows = table_rows[1:4]

    for order, csv_row, table_row in zip((1, 2), csv_rows, table_rows):
        status = f"failed: observables.q3: degree 3 exceeds order {order}"
        n = str((order + 1) * (order + 2) // 2)
        assert csv_row[:5] == [str(order), n, status, "", ""]
        assert table_row[:5] == [str(order), n, status, "-", "-"]

    # The top order's error and residual as `solve` reports them.
    solved = tmp_path / "solved"
    assert main(["solve", "--config", write_config(tmp_path, {**doc, "order": 3}, "order3.json"),
                 "--reference", "--rk-step", "1e-2", "--out-dir", str(solved)]) == 0
    summary = json.loads((solved / "duffing_summary.json").read_text())
    err = summary["observable_errors"]["q3"]["max"]
    resid = summary["eigenresidual"]
    assert csv_rows[2][:5] == ["3", "10", "ok", repr(err), repr(resid)]
    assert table_rows[2][:5] == ["3", "10", "ok", f"{err:.3e}", f"{resid:.1e}"]
    for csv_row, table_row in zip(csv_rows, table_rows):
        assert float(csv_row[5]) >= 0
        assert re.fullmatch(r"\d+\.\d\d", table_row[5])


def test_a_sweep_order_failing_in_a_later_block_is_that_orders_failed_row(
    tmp_path, monkeypatch
):
    stream = cli._evaluate_rows

    def failing_at_order_2(H, *args):
        blocks = stream(H, *args)
        yield next(blocks)
        if H.shape[1] == 6:  # the basis of order 2 in two states
            raise NonFiniteError("propagation produced non-finite values")
        yield from blocks

    monkeypatch.setattr(cli, "_evaluate_rows", failing_at_order_2)
    config = write_config(tmp_path, {**DUFFING, "num_steps": 2 * _TIME_BLOCK + 1})
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--orders", "1..3", "--rk-step", "1e-2",
                 "--out-dir", str(out)]) == 0
    rows = [line.split(",")[:3] for line in (out / "duffing_sweep.csv").read_text().splitlines()]
    assert rows[1:] == [
        ["1", "3", "ok"],
        ["2", "6", "failed: propagation produced non-finite values"],
        ["3", "10", "ok"],
    ]


def test_sweep_rejects_duplicate_observable_names(tmp_path, capsys):
    config = write_config(tmp_path, DUPLICATE_OBSERVABLES)
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--orders", "1..2", "--out-dir", str(out)]) == 2
    assert "'a' is used more than once" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_malformed_orders(tmp_path, capsys):
    config = write_config(tmp_path, DUFFING)
    with pytest.raises(SystemExit):
        main(["sweep", "--config", config, "--orders", "one..two"])


@pytest.mark.parametrize("orders", ["-3..1", "-3", "1,-2"])
def test_sweep_rejects_negative_orders(tmp_path, capsys, orders):
    config = write_config(tmp_path, DUFFING)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", config, f"--orders={orders}"])
    assert exc.value.code == 2
    assert "orders must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("orders", ["0..13", "13", "1,20"])
def test_sweep_refuses_orders_above_the_maximum(tmp_path, capsys, orders):
    config = write_config(tmp_path, DUFFING)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", config, f"--orders={orders}",
              "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"orders must be <= {MAX_ORDER}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_accepts_the_maximum_order(tmp_path):
    config = write_config(tmp_path, {**DUFFING, "t_final": 0.1})
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--orders", f"{MAX_ORDER - 1}..{MAX_ORDER}",
                 "--rk-step", "1e-2", "--out-dir", str(out)]) == 0
    lines = (out / "duffing_sweep.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:3] for line in lines] == [
        [str(MAX_ORDER - 1), "78", "ok"], [str(MAX_ORDER), "91", "ok"]
    ]


@pytest.mark.parametrize("step", ["0", "-1e-3", "nan", "inf", "abc"])
@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1"]])
def test_rk_step_must_be_finite_and_positive(tmp_path, capsys, command, step):
    config = write_config(tmp_path, DUFFING)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", config, f"--rk-step={step}",
                        "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "expected a finite step > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--orders", "1..2"]])
def test_a_subnormal_time_step_is_refused(tmp_path, capsys, command):
    out = tmp_path / "out"
    for t_final in (5e-324, sys.float_info.min * 98):
        config = write_config(tmp_path, {**DUFFING, "t_final": t_final})
        assert main(command + ["--config", config, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t_final: ") and err.count("\n") == 1
        assert not out.exists()
    # At the smallest normal step the grid is evenly spaced and the run works.
    doc = {**DUFFING, "t_final": sys.float_info.min * 99}
    assert main(command + ["--config", write_config(tmp_path, doc), "--out-dir", str(out)]) == 0


def _noting_calls(log, name, function):
    # `function`, which first appends `name` to the file `log`: the RK4
    # reference runs in a forked process, which shares files with the test
    # but not its memory.
    def noting(*args, **kwargs):
        with log.open("a", encoding="utf-8") as notes:
            notes.write(name + "\n")
        return function(*args, **kwargs)

    return noting


def _noted_calls(log):
    return log.read_text(encoding="utf-8").split() if log.exists() else []


def _refuse_rk4(*args, **kwargs):
    raise AssertionError("RK4 work started for a refused reference")


@pytest.fixture
def refused_rk4(tmp_path, monkeypatch):
    """`cli.rk4_integrate` made to raise; returns the calls made to it so far."""
    log = tmp_path / "rk4_calls"
    monkeypatch.setattr(cli, "rk4_integrate", _noting_calls(log, "rk4_integrate", _refuse_rk4))
    return partial(_noted_calls, log)


@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1..3"]])
def test_rk4_work_beyond_the_step_budget_is_refused(tmp_path, capsys, refused_rk4, command):
    config = write_config(tmp_path, {**DUFFING, "t_final": 1e5})
    out = tmp_path / "out"
    assert main(command + ["--config", config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "t_final" in err and "--rk-step" in err
    assert not out.exists()
    assert refused_rk4() == []
    # Just inside the limit the reference runs (and here meets the stub).
    step = repr(1.01 * 1e5 / cli.MAX_RK4_STEPS)
    with pytest.raises(AssertionError, match="RK4 work started"):
        main(command + ["--config", config, "--rk-step", step, "--out-dir", str(out)])
    assert refused_rk4() == ["rk4_integrate"]


@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1"]])
def test_rk4_budget_counts_the_terms_of_the_field(tmp_path, capsys, refused_rk4, command):
    # The default step's 1e6 steps are 1.2e8 step-terms.
    doc = _field_of_120_terms()
    doc["t_final"] = 100.0
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(command + ["--config", config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "120 terms" in err
    assert not out.exists()
    # A field without terms still takes steps: it counts as one term.
    doc["dynamics"] = [{"terms": []}] * 6
    config = write_config(tmp_path, doc)
    assert main(command + ["--config", config, "--rk-step", "1e-6", "--out-dir", str(out)]) == 2
    assert "on a field of 0 terms" in capsys.readouterr().err
    assert refused_rk4() == []


def _field_of_120_terms():
    # `_linear_6d` plus 19 distinct terms of degree 2..4 per component; at
    # order 1, K is not defective.
    exps = [e for e in itertools.product(range(5), repeat=6) if 2 <= sum(e) <= 4]
    doc = _linear_6d(1)
    for k, component in enumerate(doc["dynamics"]):
        component["terms"] += [
            {"coef": 0.01, "exp": list(e)} for e in exps[19 * k:19 * (k + 1)]
        ]
    return doc


@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1"]])
def test_rk4_budget_counts_a_step_per_output_interval(tmp_path, capsys, refused_rk4, command):
    # t_final / --rk-step is one step, but RK4 takes at least one step per
    # output interval: 3e5 intervals on 120 terms are 3.6e7 step-terms.
    doc = {**_field_of_120_terms(), "t_final": 1.0, "num_steps": 300_001}
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    args = command + ["--config", config, "--rk-step", "1.0", "--out-dir", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "3e+05 steps" in err and "num_steps" in err
    assert not out.exists()
    assert refused_rk4() == []
    # 2.5e5 intervals are just inside the limit: the reference runs.
    config = write_config(tmp_path, {**doc, "num_steps": 250_001})
    args = command + ["--config", config, "--rk-step", "1.0", "--out-dir", str(out)]
    with pytest.raises(AssertionError, match="RK4 work started"):
        main(args)
    assert refused_rk4() == ["rk4_integrate"]


@pytest.mark.parametrize(
    "t_final, num_steps, rk_step, steps",
    [
        (2.0, 5, 0.1, 20),  # an interval of 0.5: an exact multiple of the step
        (1.0, 5, 0.1, 12),  # 0.25: two full steps and a shorter one
        (1.0, 11, 0.5, 10),  # 0.1: the step is longer than the interval
        (10.0, 100, 1e-2, 1089),  # 0.10101...: ten full steps and a shorter one
        # Within the slack of ten steps, with a remainder of 5e-11 that is
        # still taken.
        (1.0, 2, 1.0 / (10.0 + 5e-10), 11),
    ],
)
def test_rk4_budget_counts_the_steps_the_reference_takes(
    monkeypatch, capsys, t_final, num_steps, rk_step, steps
):
    spec = parse_system_config(json.dumps({**DUFFING, "t_final": t_final, "num_steps": num_steps}))
    taken = []
    runner = refinteg._rk4_runner

    def counting_runner(vf):
        run = runner(vf)

        def counted(x, h, count):
            taken.append(count)
            return run(x, h, count)

        return counted

    monkeypatch.setattr(refinteg, "_rk4_runner", counting_runner)
    rk4_integrate(spec.vf, spec.initial_state, np.linspace(0.0, t_final, num_steps), rk_step)
    assert sum(taken) == steps
    # Duffing's field has 3 terms: the budget allows MAX_RK4_STEPS steps.
    monkeypatch.setattr(cli, "MAX_RK4_STEPS", steps)
    assert not cli._rk4_budget_exceeded(spec, rk_step)
    monkeypatch.setattr(cli, "MAX_RK4_STEPS", steps - 1)
    assert cli._rk4_budget_exceeded(spec, rk_step)
    assert f"takes {steps:.3g} steps" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1..3"]])
@pytest.mark.parametrize("t_final, step", [(10.0, "1e-320"), (1e308, None)])
def test_an_rk4_step_count_beyond_the_float_range_is_refused(
    tmp_path, capsys, refused_rk4, command, t_final, step
):
    # t_final / --rk-step overflows to inf: refused as over the budget.
    config = write_config(tmp_path, {**DUFFING, "t_final": t_final})
    out = tmp_path / "out"
    argv = command + ["--config", config, "--out-dir", str(out)]
    assert main(argv + (["--rk-step", step] if step else [])) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "takes inf steps" in err and "--rk-step" in err
    assert not out.exists()
    assert refused_rk4() == []


def test_solve_without_reference_ignores_the_step_budget(tmp_path, refused_rk4):
    config = write_config(tmp_path, {**DUFFING, "t_final": 1e5})
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
    assert refused_rk4() == []


def test_sweep_evaluates_the_shared_reference_once(tmp_path, monkeypatch):
    log = tmp_path / "calls"
    for name in ("_reference_values", "rk4_integrate"):
        monkeypatch.setattr(cli, name, _noting_calls(log, name, getattr(cli, name)))
    config = write_config(tmp_path, DUFFING)
    assert main(["sweep", "--config", config, "--orders", "1..4", "--rk-step", "1e-2",
                 "--out-dir", str(tmp_path / "out")]) == 0
    calls = _noted_calls(log)
    # One RK4 run and one evaluation of its observables, not one per order.
    assert calls == ["_reference_values", "rk4_integrate"]


# dx/dt = x^2 from 0.5 blows up at t = 2.  K is solvable at even orders, so
# the spectral solve succeeds and only the RK4 reference fails.
BLOW_UP = {
    "name": "blowup",
    "states": ["x"],
    "dynamics": [{"terms": [{"coef": 1.0, "exp": [2]}]}],
    "initial_state": [0.5],
    "order": 2,
    "t_final": 3.0,
    "num_steps": 50,
}


@pytest.mark.parametrize(
    "command, prefix",
    [(["solve", "--reference"], "numeric failure: "),
     (["sweep", "--orders", "1..4"], "numeric failure in RK4 reference: ")],
)
def test_a_diverging_reference_exits_4_and_writes_nothing(tmp_path, capsys, command, prefix):
    out = tmp_path / "out"
    args = command + ["--config", write_config(tmp_path, BLOW_UP), "--out-dir", str(out)]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith(prefix + "state diverged before t = 2.02") and err.count("\n") == 1
    assert not out.exists()


def test_a_failed_reference_stops_the_sweep_at_that_point(tmp_path, capsys, monkeypatch):
    def diverging(*args):
        raise NonFiniteError("stub divergence")

    solved = []
    solve = cli._solve_spec

    def solve_after_the_reference_ends(spec, **kwargs):
        # Let the reference process end (it has sent its error by then)
        # before the first order is solved, without reaping it.
        if not solved:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        solved.append(spec.order)
        return solve(spec, **kwargs)

    monkeypatch.setattr(cli, "_reference_values", diverging)
    monkeypatch.setattr(cli, "_solve_spec", solve_after_the_reference_ends)
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, DUFFING), "--orders", "1..5",
                 "--out-dir", str(out)]) == 4
    assert capsys.readouterr().err == "numeric failure in RK4 reference: stub divergence\n"
    assert solved == [1]
    assert not out.exists()


def test_solve_failures_beside_the_reference_surface_as_before(tmp_path, capsys, monkeypatch):
    # The exp-overflow check fails while the reference (which diverges too)
    # is still running.
    growth = {**BLOW_UP, "dynamics": [{"terms": [{"coef": 100.0, "exp": [1]}]}], "order": 3,
              "t_final": 10.0}
    out = tmp_path / "out"
    args = ["--config", write_config(tmp_path, growth), "--out-dir", str(out)]
    assert main(["solve", "--reference"] + args) == 4
    err = capsys.readouterr().err
    assert "> 700.0; exp would overflow" in err and err.count("\n") == 1
    assert not out.exists()

    # A solve that fails does not wait for a reference that would take 30 s.
    def broken(K):
        raise RuntimeError("stub eigen failure")

    def slow_reference(*args):
        time.sleep(30.0)
        return _reference_values(*args)

    monkeypatch.setattr(cli, "eigendecompose", broken)
    monkeypatch.setattr(cli, "_reference_values", slow_reference)
    args = ["--config", write_config(tmp_path, DUFFING), "--out-dir", str(out)]
    for command in (["solve", "--reference"], ["sweep", "--orders", "1..3"]):
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="stub eigen failure"):
            main(command + args)
        assert time.perf_counter() - started < 10.0
        assert not out.exists()
        # The reference process is gone before the next command starts.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_sweep_holds_at_most_max_output_values_for_the_reference(tmp_path, monkeypatch):
    # A reference that is never ready between orders: with room for the
    # values of two orders, the sweep waits for it after every second one.
    config = write_config(tmp_path, DUFFING)
    args = ["sweep", "--config", config, "--orders", "1..5", "--rk-step", "1e-2"]
    assert main(args + ["--out-dir", str(tmp_path / "ready")]) == 0

    held = []
    settle = cli._settle_errors

    def noting_held(waiting, reference_values):
        held.append(len(waiting))
        settle(waiting, reference_values)

    monkeypatch.setattr(cli._ReferenceRun, "ready", lambda self: False)
    monkeypatch.setattr(cli, "MAX_OUTPUT_VALUES", 2 * 2 * DUFFING["num_steps"] + 1)
    monkeypatch.setattr(cli, "_settle_errors", noting_held)
    assert main(args + ["--out-dir", str(tmp_path / "waiting")]) == 0
    assert held == [2, 2, 1]

    def without_wall_time(out):
        lines = (out / "duffing_sweep.csv").read_text(encoding="utf-8").splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert without_wall_time(tmp_path / "waiting") == without_wall_time(tmp_path / "ready")


needs_a_second_cpu = pytest.mark.skipif(
    cli._usable_cpus() < 2, reason="on one CPU the reference runs in this process"
)


def _duffing_reference():
    spec = parse_system_config(json.dumps(DUFFING))
    return cli._ReferenceRun(spec, np.linspace(0.0, spec.t_final, spec.num_steps), 1e-2)


def _exit_without_a_message(*args):
    os._exit(0)


def _dump_all_but_the_last_byte(obj, file, protocol=None):
    file.write(pickle.dumps(obj, protocol)[:-1])


@needs_a_second_cpu
@pytest.mark.parametrize("way", ["exit", "truncated"])
def test_a_reference_process_that_sends_no_whole_message_is_an_error(monkeypatch, way):
    if way == "exit":
        monkeypatch.setattr(cli, "_reference_values", _exit_without_a_message)
    else:
        monkeypatch.setattr(pickle, "dump", _dump_all_but_the_last_byte)
    with _duffing_reference() as reference:
        # Once the child has ended (left unreaped), the message is all there is.
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        assert reference.ready()
        with pytest.raises(RuntimeError, match="^the RK4 reference process ended without a result$"):
            reference.values()


class _NotUnpicklable(Exception):
    # It pickles, but unpickling calls __init__ with the message alone.
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _raise_not_unpicklable(*args):
    raise _NotUnpicklable("stub failure", "t = 1")


@needs_a_second_cpu
def test_a_reference_exception_that_does_not_unpickle_arrives_by_type_and_message(monkeypatch):
    monkeypatch.setattr(cli, "_reference_values", _raise_not_unpicklable)
    with _duffing_reference() as reference:
        with pytest.raises(RuntimeError) as raised:
            reference.values()
    assert type(raised.value) is RuntimeError
    assert str(raised.value) == "_NotUnpicklable: stub failure at t = 1"


def _patch_out_the_second_process(monkeypatch, way):
    if way == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.mark.parametrize("way", ["no fork", "one CPU"])
def test_without_a_second_process_the_reference_runs_in_this_one(tmp_path, monkeypatch, way):
    log = tmp_path / "pids"

    def noting_pid(*args):
        with log.open("a", encoding="utf-8") as notes:
            notes.write(f"{os.getpid()}\n")
        return _reference_values(*args)

    monkeypatch.setattr(cli, "_reference_values", noting_pid)
    config = write_config(tmp_path, DUFFING)
    commands = {
        "sweep": ["sweep", "--config", config, "--orders", "1..4", "--rk-step", "1e-2"],
        "solve": ["solve", "--config", config, "--reference", "--rk-step", "1e-2"],
    }

    def outputs(out_dir):
        sweep = (out_dir / "duffing_sweep.csv").read_text(encoding="utf-8").splitlines()
        trajectory = (out_dir / "duffing_trajectory.csv").read_bytes()
        return [line.rsplit(",", 1)[0] for line in sweep], trajectory

    for command in commands.values():
        assert main(command + ["--out-dir", str(tmp_path / "forked")]) == 0
    forked_pids = _noted_calls(log)
    log.unlink()
    _patch_out_the_second_process(monkeypatch, way)
    for command in commands.values():
        assert main(command + ["--out-dir", str(tmp_path / "here")]) == 0
    assert str(os.getpid()) not in forked_pids and len(forked_pids) == 2
    assert _noted_calls(log) == [str(os.getpid())] * 2
    assert outputs(tmp_path / "here") == outputs(tmp_path / "forked")


def _sweep_rows_without_wall_time(out_dir):
    lines = (out_dir / "duffing_sweep.csv").read_text(encoding="utf-8").splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


@needs_a_second_cpu
@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1..4"]])
def test_the_rk4_stepper_is_compiled_once_before_the_fork(tmp_path, monkeypatch, command):
    # The parent compiles it; the forked child, where the reference runs,
    # only runs it.
    compiles, references = tmp_path / "compiles", tmp_path / "references"
    runner = refinteg._rk4_runner

    def noting_compile(vf):
        with compiles.open("a", encoding="utf-8") as notes:
            notes.write(f"{os.getpid()}\n")
        return runner(vf)

    def noting_reference(*args):
        with references.open("a", encoding="utf-8") as notes:
            notes.write(f"{os.getpid()}\n")
        return _reference_values(*args)

    monkeypatch.setattr(refinteg, "_rk4_runner", noting_compile)
    monkeypatch.setattr(cli, "_reference_values", noting_reference)
    config = write_config(tmp_path, DUFFING)
    assert main(command + ["--config", config, "--rk-step", "1e-2",
                           "--out-dir", str(tmp_path / "out")]) == 0
    assert _noted_calls(compiles) == [str(os.getpid())]
    [child] = _noted_calls(references)
    assert child != str(os.getpid())


# Runs `legkoop.cli.main` on its arguments after the first, which names a
# file: the CLI's pid goes there first, then the pid of the process where
# the RK4 reference runs.
_CLI_NOTING_THE_REFERENCE_PID = """
import os, sys
import legkoop.cli as cli

def noting_pid(*args, reference_values=cli._reference_values):
    with open(sys.argv[1], "a", encoding="utf-8") as notes:
        notes.write(f"{os.getpid()}\\n")
    return reference_values(*args)

with open(sys.argv[1], "w", encoding="utf-8") as notes:
    notes.write(f"{os.getpid()}\\n")
cli._reference_values = noting_pid
sys.exit(cli.main(sys.argv[2:]))
"""


@needs_a_second_cpu
def test_a_sweep_pinned_to_one_cpu_runs_the_reference_in_process_with_the_same_csv(tmp_path):
    # The pinned child starts with an affinity mask of one CPU, as under
    # `taskset -c 0`.  The timeout fails the test, instead of hanging it, if
    # a reference process never ends.
    config = write_config(tmp_path, DUFFING)
    cpu = min(os.sched_getaffinity(0))
    runs = {}
    for name, pin in [("free", None), ("pinned", lambda: os.sched_setaffinity(0, {cpu}))]:
        log = tmp_path / f"{name}.pids"
        args = ["sweep", "--config", config, "--orders", "1..12", "--rk-step", "1e-2",
                "--out-dir", str(tmp_path / name)]
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_NOTING_THE_REFERENCE_PID, str(log), *args],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC},
            preexec_fn=pin, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[name] = _noted_calls(log), _sweep_rows_without_wall_time(tmp_path / name)
    (cli_pid, reference_pid), rows = runs["free"]
    assert reference_pid != cli_pid and len(rows) == 13
    (cli_pid, reference_pid), pinned_rows = runs["pinned"]
    assert reference_pid == cli_pid and pinned_rows == rows


def _soft_descriptor_limit():
    soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    return math.inf if soft == resource.RLIM_INFINITY else soft


@pytest.mark.skipif(_soft_descriptor_limit() < 1200, reason="fewer than 1200 descriptors allowed")
def test_a_sweep_whose_reference_pipe_is_above_descriptor_1023_works(tmp_path):
    # select() refuses descriptors >= 1024, which the reference's pipe gets
    # once more than a thousand are open.
    config = write_config(tmp_path, DUFFING)
    args = ["sweep", "--config", config, "--orders", "1..4", "--rk-step", "1e-2"]
    assert main(args + ["--out-dir", str(tmp_path / "few")]) == 0
    opened = []
    try:
        while True:
            read_end, write_end = os.pipe()
            if read_end >= 1024:
                # Freed for the sweep's own pipe, the lowest numbers free.
                os.close(read_end)
                os.close(write_end)
                break
            opened += [read_end, write_end]
        assert main(args + ["--out-dir", str(tmp_path / "many")]) == 0
    finally:
        for fd in opened:
            os.close(fd)
    assert _sweep_rows_without_wall_time(tmp_path / "many") == _sweep_rows_without_wall_time(
        tmp_path / "few"
    )


@needs_a_second_cpu
def test_a_reference_message_larger_than_the_pipe_buffer(tmp_path, monkeypatch):
    # 2 observables at 5000 times: about 80 kB of values, more than a pipe
    # holds (64 KiB on Linux), so the child stays in its write until
    # `values()` reads, and is not ready before.
    config = write_config(tmp_path, {**DUFFING, "num_steps": 5000})
    args = ["sweep", "--config", config, "--orders", "1..4", "--rk-step", "1e-2"]
    answers = []
    ready = cli._ReferenceRun.ready

    def noting_ready(self):
        answers.append(ready(self))
        return answers[-1]

    monkeypatch.setattr(cli._ReferenceRun, "ready", noting_ready)
    assert main(args + ["--out-dir", str(tmp_path / "forked")]) == 0
    assert answers == [False] * 4
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(args + ["--out-dir", str(tmp_path / "here")]) == 0
    assert _sweep_rows_without_wall_time(tmp_path / "forked") == _sweep_rows_without_wall_time(
        tmp_path / "here"
    )


@pytest.mark.parametrize("way", [None, "no fork"], ids=["forked", "no fork"])
def test_reference_timing_is_the_reference_run_not_the_wait(tmp_path, monkeypatch, way):
    # The reference takes 0.4 s and the solve 0.25 s besides: a forked
    # solve waits about 0.15 s for it, yet reports the reference's 0.4 s.
    def slow_reference(*args):
        time.sleep(0.4)
        return _reference_values(*args)

    def slow_eigen(K):
        time.sleep(0.25)
        return eigendecompose(K)

    monkeypatch.setattr(cli, "_reference_values", slow_reference)
    monkeypatch.setattr(cli, "eigendecompose", slow_eigen)
    if way:
        _patch_out_the_second_process(monkeypatch, way)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, DUFFING), "--reference",
                 "--rk-step", "1e-2", "--out-dir", str(out)]) == 0
    timings = json.loads((out / "duffing_summary.json").read_text())["timings"]
    assert set(timings) == {"basis", "assemble", "eigen", "propagate", "reference", "total"}
    assert timings["reference"] >= 0.4
    assert timings["total"] >= (0.4 if way is None else 0.65)


def test_reference_values_are_evaluate_at_each_time_bit_for_bit():
    # Powers 1..6, alone and in products, with several terms per observable:
    # numpy's array powers round differently from float ** at e >= 2 (about
    # 0.1% of values at e = 2, a few % at e >= 3), so a plain array version
    # would not pass.
    observables = [
        {"name": f"e{e}", "terms": [{"coef": 0.7, "exp": [e, 0]},
                                    {"coef": -1.3, "exp": [e - 1, 1]},
                                    {"coef": 0.25, "exp": [0, e]}]}
        for e in range(1, 7)
    ] + [{"name": "mixed", "terms": [{"coef": 3.0, "exp": [2, 3]}, {"coef": -0.5, "exp": [0, 0]},
                                     {"coef": 1e-3, "exp": [5, 1]}]}]
    doc = {**DUFFING, "order": 6, "t_final": 20.0, "num_steps": 3000,
           "observables": observables}
    spec = parse_system_config(json.dumps(doc))
    times = np.linspace(0.0, spec.t_final, spec.num_steps)
    got = _reference_values(spec, times, 1e-2)
    states = rk4_integrate(spec.vf, spec.initial_state, times, 1e-2)
    expected = np.array([[evaluate(g, states[:, k]) for k in range(times.size)]
                         for g in spec.observables.polys])
    assert got.tobytes() == expected.tobytes()


def test_reference_values_memory_does_not_grow_with_the_distinct_powers():
    # q^2..q^12 and p^2..p^12 in one observable at 20 000 times: keeping each
    # power's column would hold 22 * 160 kB = 3.4 MiB.  The reference states,
    # the output row and one product and one power column take 0.8 MiB.
    nt = 20_000
    terms = [{"coef": 1e-3, "exp": [e, 0]} for e in range(2, 13)]
    terms += [{"coef": 1e-3, "exp": [0, e]} for e in range(2, 13)]
    doc = {**DUFFING, "order": 12, "t_final": 20.0, "num_steps": nt,
           "observables": [{"name": "powers", "terms": terms}]}
    spec = parse_system_config(json.dumps(doc))
    times = np.linspace(0.0, spec.t_final, nt)
    tracemalloc.start()
    try:
        _reference_values(spec, times, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * nt


def _linear_6d(order):
    """dx_k/dt = x_{k+1} (cyclic) in six variables at the given order."""
    states = [f"x{k}" for k in range(6)]
    dynamics = [
        {"terms": [{"coef": 1.0, "exp": [int(j == (k + 1) % 6) for j in range(6)]}]}
        for k in range(6)
    ]
    return {"name": "linear6", "states": states, "dynamics": dynamics,
            "initial_state": [0.1] * 6, "order": order, "t_final": 0.1, "num_steps": 2}


def _refuse_oversize_assembly(monkeypatch):
    assemble = cli.assemble_koopman

    def guarded(basis, vf):
        if basis.n > MAX_BASIS_SIZE:
            raise AssertionError(f"assembly started for n = {basis.n}")
        return assemble(basis, vf)

    monkeypatch.setattr(cli, "assemble_koopman", guarded)


@pytest.mark.parametrize("order", [12, 8])
def test_solve_refuses_a_basis_above_the_size_cap(tmp_path, capsys, monkeypatch, order):
    _refuse_oversize_assembly(monkeypatch)
    config = write_config(tmp_path, _linear_6d(order))
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "order" in err and f"> {MAX_BASIS_SIZE}" in err
    assert not out.exists()


def test_solve_refuses_num_steps_above_the_cap(tmp_path, capsys):
    config = write_config(tmp_path, {**DUFFING, "num_steps": MAX_NUM_STEPS + 1})
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and err.startswith("config error: num_steps:")
    assert not out.exists()


def test_solve_refuses_output_above_the_budget(tmp_path, capsys):
    # Every monomial of degree <= 3 as an observable: 10 rows plus 2 states.
    observables = [
        {"name": f"g{a}{d - a}", "terms": [{"coef": 1.0, "exp": [a, d - a]}]}
        for d in range(4)
        for a in range(d + 1)
    ]
    num_steps = MAX_OUTPUT_VALUES // 12 + 1
    config = write_config(
        tmp_path, {**DUFFING, "observables": observables, "num_steps": num_steps}
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and err.startswith(f"config error: num_steps: {num_steps} ")
    assert f"limit of {MAX_OUTPUT_VALUES} values" in err
    assert not out.exists()


def test_sweep_records_a_basis_above_the_size_cap_as_failed(tmp_path, monkeypatch):
    _refuse_oversize_assembly(monkeypatch)
    config = write_config(tmp_path, _linear_6d(1))
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--orders", "8,1", "--rk-step", "1e-2",
                 "--out-dir", str(out)]) == 0
    lines = (out / "linear6_sweep.csv").read_text().splitlines()[1:]
    refused, solved = (line.split(",") for line in lines)
    assert refused[:3] == ["8", "3003", f"failed: order: 8 in 6 variables gives basis "
                                          f"size 3003 > {MAX_BASIS_SIZE}"]
    assert solved[:3] == ["1", "7", "ok"]


@pytest.mark.parametrize("order", [8, 13])
def test_sweep_ignores_the_config_order(tmp_path, order):
    # Order 8 in six variables is above the basis-size cap and 13 above
    # MAX_ORDER; the sweep solves the orders it was asked for.
    config = write_config(tmp_path, _linear_6d(order))
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--orders", "1..2", "--rk-step", "1e-2",
                 "--out-dir", str(out)]) == 0
    lines = (out / "linear6_sweep.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:3] for line in lines] == [["1", "7", "ok"], ["2", "28", "ok"]]


def _after_importing_the_cli(expression):
    # The printed value of `expression` after a fresh `import sys, legkoop.cli`.
    code = f"import sys, legkoop.cli; print({expression})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _loaded_by_importing_the_cli(prefix):
    # Modules whose names start with `prefix` after a fresh `import legkoop.cli`.
    return _after_importing_the_cli(f"sorted(m for m in sys.modules if m.startswith({prefix!r}))")


def test_importing_the_cli_does_not_load_numpy_polynomial():
    # The benchmark's setup_s times a fresh `import legkoop.cli`; loading
    # numpy.polynomial would add 1.5-2 ms to it.
    assert _loaded_by_importing_the_cli("numpy.polynomial") == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # The RK4 reference's second process is a bare os.fork: neither
    # multiprocessing nor concurrent.futures adds to the import.
    assert _loaded_by_importing_the_cli("multiprocessing") == "[]"
    assert _loaded_by_importing_the_cli("concurrent") == "[]"
    # `ready` polls the child with os.waitpid: no command loads select.
    assert _loaded_by_importing_the_cli("select") == "[]"


def test_importing_the_cli_does_not_load_the_invariant_suite():
    # Only `validate` needs legkoop.invariants, which imports it when run.
    assert _loaded_by_importing_the_cli("legkoop.invariants") == "[]"


def test_importing_the_cli_loads_no_monomial_or_quadrature_reference():
    # These are defined in legkoop.invariants alone, so no module that solve
    # and sweep load holds them, under their own name or as an import.
    names = (
        "legendre_coefficients", "normalize_legendre", "monomial_matrix",
        "basis_as_polynomial", "total_derivative", "gauss_legendre_nodes",
        "gauss_legendre_inner_product",
    )
    found = _after_importing_the_cli(
        f"[(m, n) for m in sorted(sys.modules) if m.partition('.')[0] == 'legkoop' "
        f"for n in {names!r} if hasattr(sys.modules[m], n)]"
    )
    assert found == "[]"


# ---------------------------------------------------------------------------
# fuzz

# Observable names drawn with repeats, the time column's `t`, and names that
# are another's `<name>_ref` or `<name>_err`.
_FUZZ_NAMES = ["g", "g", "g_ref", "g_err", "t", "h"]


def _fuzz_polynomial(rng, m, max_degree):
    terms = []
    for _ in range(rng.integers(0, 4)):
        exp = [0] * m
        for _ in range(rng.integers(0, max_degree + 1)):
            exp[rng.integers(m)] += 1
        terms.append({"coef": float(rng.normal()), "exp": exp})
    return terms


def _fuzz_config(rng):
    """A random config: m <= 3, order <= 6, up to 3 terms of degree <= 3 per
    component, Gaussian coefficients."""
    m = int(rng.integers(1, 4))
    order = int(rng.integers(0, 7))
    doc = {
        "name": "fuzz",
        "states": [f"x{k}" for k in range(m)],
        "dynamics": [{"terms": _fuzz_polynomial(rng, m, 3)} for _ in range(m)],
        "initial_state": [float(x) for x in rng.uniform(-0.5, 0.5, m)],
        "order": order,
        "t_final": 1e305 if rng.random() < 0.1 else float(rng.uniform(0.1, 2.0)),
        "num_steps": int(rng.integers(2, 40)),
    }
    if rng.random() < 0.7:
        doc["observables"] = [
            {"name": str(name), "terms": _fuzz_polynomial(rng, m, min(order, 3))}
            for name in rng.choice(_FUZZ_NAMES, size=rng.integers(1, 4))
        ]
    return doc


def test_random_configs_exit_cleanly_through_every_command(tmp_path):
    # Every run exits 0, 2, 3 or 4 without raising; a failed run leaves no
    # output directory, a solved trajectory's header cells are distinct and
    # its summary is laid out as `json.dumps(..., indent=2)` lays it out.
    rng = np.random.default_rng(20211)
    runs = itertools.count()
    for _ in range(120):
        doc = _fuzz_config(rng)
        config = write_config(tmp_path, doc)
        rk_step = "1e-2" if rng.random() < 0.8 else "1e-320"
        for command in (["solve"], ["solve", "--reference", "--rk-step", rk_step],
                        ["sweep", "--orders", "0..4", "--rk-step", rk_step]):
            out = tmp_path / f"out{next(runs)}"
            code = main(command + ["--config", config, "--out-dir", str(out)])
            assert code in (0, 2, 3, 4), (command, doc)
            assert code == 0 or not out.exists(), (command, doc)
            if code == 0 and command[0] == "solve":
                csv_text = (out / "fuzz_trajectory.csv").read_text(encoding="utf-8")
                header = csv_text.split("\n", 1)[0].split(",")
                assert len(set(header)) == len(header), (command, doc)
                text = (out / "fuzz_summary.json").read_text(encoding="utf-8")
                assert text == json.dumps(json.loads(text), indent=2) + "\n", (command, doc)


# ---------------------------------------------------------------------------
# validate

def test_validate_passes_and_prints_each_check(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_validate_fails_with_exit_5_naming_the_check(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "koopman_quadrature_error", lambda: 1e-3)
    assert main(["validate"]) == 5
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert len(lines) == 6
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL - Koopman matrix vs quadrature (Duffing, c=3): max |K - quadrature| = 1.00e-03"
    ]
