"""Command-line interface: artifacts, exit codes, determinism."""

import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from legkoop import invariants
import legkoop.cli as cli
from legkoop.basis import MAX_BASIS_SIZE
from legkoop.cli import _reference_values, _solve_spec, _write_trajectory_csv, main
from legkoop.dynamics import MAX_NUM_STEPS, parse_system_config

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


def write_config(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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


def test_trajectory_csv_is_the_repr_of_each_value(tmp_path):
    # More rows than one CSV block, ending in a partial block; with and
    # without the reference columns.
    doc = {**DUFFING, "num_steps": cli._CSV_BLOCK_ROWS + 3}
    spec = parse_system_config(json.dumps(doc))
    solved = _solve_spec(spec, reference=partial(_reference_values, spec, rk_step=1e-3))
    values = solved.trajectory.values.copy()
    values[1, 0] = -0.0
    values[0, -1] = 3.5e-7
    solved = replace(solved, trajectory=replace(solved.trajectory, values=values))
    path = tmp_path / "duffing_trajectory.csv"
    for reference in (solved.reference_values, None):
        result = replace(solved, reference_values=reference)
        _write_trajectory_csv(path, result)

        header = "t,q,p"
        columns = [result.times, *values]
        if reference is not None:
            header += ",q_ref,p_ref,q_err,p_err"
            columns += [*reference, *np.abs(values - reference)]
        lines = [header]
        lines += [
            ",".join(repr(float(col[k])) for col in columns) for k in range(len(result.times))
        ]
        assert len(lines) == cli._CSV_BLOCK_ROWS + 4
        assert lines[1].split(",")[2] == "-0.0" and lines[-1].split(",")[1] == "3.5e-07"
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_trajectory_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # 40 000 rows of seven columns: the CSV text is 5.7 MB, a list of its
    # rows or lines some 30 MiB; one block of rows stays near 1 MiB.
    doc = {**DUFFING, "order": 8, "t_final": 40.0, "num_steps": 40_000}
    result = _solve_spec(parse_system_config(json.dumps(doc)))
    result = replace(result, reference_values=result.trajectory.values + 1e-3)
    tracemalloc.start()
    try:
        _write_trajectory_csv(tmp_path / "duffing_trajectory.csv", result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


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
    config = write_config(tmp_path, fast_growth)
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "out")]) == 4
    assert "overflow" in capsys.readouterr().err


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

    spec = parse_system_config(json.dumps({**doc, "order": 3}))
    result = _solve_spec(spec, reference=partial(_reference_values, spec, rk_step=1e-2))
    err = result.observable_errors["q3"]["max"]
    resid = result.model.diagnostics.eigenresidual
    assert csv_rows[2][:5] == ["3", "10", "ok", repr(err), repr(resid)]
    assert table_rows[2][:5] == ["3", "10", "ok", f"{err:.3e}", f"{resid:.1e}"]
    for csv_row, table_row in zip(csv_rows, table_rows):
        assert float(csv_row[5]) >= 0
        assert re.fullmatch(r"\d+\.\d\d", table_row[5])


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


def _refuse_rk4(*args, **kwargs):
    raise AssertionError("RK4 work started for a refused reference")


@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1..3"]])
def test_rk4_work_beyond_the_step_budget_is_refused(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "rk4_integrate", _refuse_rk4)
    config = write_config(tmp_path, {**DUFFING, "t_final": 1e5})
    out = tmp_path / "out"
    assert main(command + ["--config", config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "t_final" in err and "--rk-step" in err
    assert not out.exists()
    # Just inside the limit the reference runs (and here meets the stub).
    step = repr(1.01 * 1e5 / cli.MAX_RK4_STEPS)
    with pytest.raises(AssertionError, match="RK4 work started"):
        main(command + ["--config", config, "--rk-step", step, "--out-dir", str(out)])


@pytest.mark.parametrize("command", [["solve", "--reference"], ["sweep", "--orders", "1"]])
def test_rk4_budget_counts_the_terms_of_the_field(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "rk4_integrate", _refuse_rk4)
    # 20 distinct terms of degree 1..4 per component: 120 terms, so the
    # default step's 1e6 steps are 1.2e8 step-terms.
    exps = [e for e in itertools.product(range(5), repeat=6) if 1 <= sum(e) <= 4]
    doc = _linear_6d(1)
    doc["t_final"] = 100.0
    doc["dynamics"] = [
        {"terms": [{"coef": 0.01, "exp": list(e)} for e in exps[20 * k:20 * (k + 1)]]}
        for k in range(6)
    ]
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


def test_solve_without_reference_ignores_the_step_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "rk4_integrate", _refuse_rk4)
    config = write_config(tmp_path, {**DUFFING, "t_final": 1e5})
    assert main(["solve", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0


def test_sweep_evaluates_the_shared_reference_once(tmp_path, monkeypatch):
    calls = []
    evaluate = cli.evaluate

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(cli, "evaluate", counted)
    config = write_config(tmp_path, DUFFING)
    assert main(["sweep", "--config", config, "--orders", "1..4", "--rk-step", "1e-2",
                 "--out-dir", str(tmp_path / "out")]) == 0
    # Two observables at 100 times, not once more per order.
    assert len(calls) == 2 * 100


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


def test_importing_the_cli_does_not_load_numpy_polynomial():
    # The benchmark's setup_s times a fresh `import legkoop.cli`; loading
    # numpy.polynomial would add 1.5-2 ms to it.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, legkoop.cli; print(sorted(m for m in sys.modules if 'numpy.polynomial' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
