"""Tests of the benchmark itself, on the tiny `--quick` sizes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import COMMAND_SPAN, Span, Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TEST_SEEDS = (1, 2, 3)
run.use_sources(ROOT)


def quick_bench(tmp_path, name, seed=1):
    return run.Bench(name, seed, True, ROOT, tmp_path)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(tmp_path, capsys, name, trace):
    argv = ["--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--quick"]
    assert run.main(argv, work_root=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    table = {line.split()[1]: line.split() for line in lines[1:-1] if line.startswith(name)}
    for metric in declared:
        row = table[metric["name"]]
        assert row[3] == metric["unit"] and int(row[4]) >= 1
    assert "failed_frac" in table
    # Unscaled medians and the calibration kernel are printed beside the scaled times.
    for unscaled in ("run_wall_s", "setup_wall_s", "kernel_s"):
        assert (unscaled in table) == (not trace)
    assert ("max_err" in table) == (workloads.WORKLOADS[name].command == "solve")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_sum_to_command_span(tmp_path, name):
    bench = quick_bench(tmp_path, name)
    tracer = Tracer()
    try:
        bench.timed_loop(0.0, tracer)
    finally:
        bench.close()
    assert not bench.failures
    runs = sorted({s.run for s in tracer.spans})
    assert len(runs) == run.MIN_RUNS
    for r in runs:
        command = [s for s in tracer.spans if s.run == r and s.name == COMMAND_SPAN]
        assert len(command) == 1
        selfs = tracer.self_times(r)
        assert all(v >= 0.0 for v in selfs.values())
        assert sum(selfs.values()) == pytest.approx(command[0].end - command[0].start, abs=1e-9)
        assert len(selfs) > 5  # every layer the command reaches shows up


def test_self_time_subtracts_nested_child_coverage():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "cli", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 2.0, 3.0, 1, 0),
        Span(3, "a", 5.0, 6.0, 0, 0),
        Span(4, "cli", 0.0, 1.0, None, 1),  # another run: not counted
    ]
    assert tracer.self_times(0) == pytest.approx({"cli": 6.0, "a": 3.0, "b": 1.0})


def test_instrumentation_restores_library_names(tmp_path):
    import legkoop.cli as cli
    import legkoop.koopman as koopman

    before = (cli.assemble_koopman, cli.propagate, koopman.box_inner_product)
    bench = quick_bench(tmp_path, "solve-4d-quadratic")
    try:
        bench.run_once(Tracer())
    finally:
        bench.close()
    assert (cli.assemble_koopman, cli.propagate, koopman.box_inner_product) == before


def test_peak_rss_excludes_the_benchmark_process(tmp_path):
    import numpy as np

    ballast = np.ones(25_000_000)  # 200 MB resident in this process
    bench = quick_bench(tmp_path, "solve-4d-quadratic")
    try:
        assert bench.peak_rss_mib() < 150.0
    finally:
        bench.close()
    assert ballast.sum() == 25_000_000


def test_perturbed_trajectory_counts_as_failure(tmp_path):
    bench = quick_bench(tmp_path, "solve-long-duffing")
    try:
        bench.run_once()
        assert not bench.failures
        csv_path = bench.outputs[0]
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        cells = lines[500].split(",")
        tolerance = workloads.size_of(bench.workload, True).tolerance
        cells[1] = repr(float(cells[1]) + 10 * tolerance)
        lines[500] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        bench.record(None)
        assert len(bench.failures) == 1 and "tolerance" in bench.failures[0]

        csv_path.unlink()
        bench.record(None)
        assert len(bench.failures) == 2 and "unreadable" in bench.failures[1]

        bench.record("exit 3")
        assert bench.failures[2] == "exit 3" and bench.attempted == 4
    finally:
        bench.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_misparsed_system_counts_as_failure(tmp_path, monkeypatch, name):
    # The reference does not go through the library's parser, so a parser
    # that mis-scales a term fails the gate; for the sweep, the top-order
    # solve made when the bench is set up catches it.
    import legkoop.cli as cli
    import legkoop.dynamics as dynamics

    parse = dynamics.parse_system_config

    def misparse(text):
        doc = json.loads(text)
        doc["dynamics"][1]["terms"][0]["coef"] *= 1.1
        return parse(json.dumps(doc))

    monkeypatch.setattr(dynamics, "parse_system_config", misparse)
    monkeypatch.setattr(cli, "parse_system_config", misparse)
    bench = quick_bench(tmp_path, name)
    try:
        if workloads.WORKLOADS[name].command == "solve":
            bench.run_once()
    finally:
        bench.close()
    assert bench.attempted == 1 and len(bench.failures) == 1
    assert "tolerance" in bench.failures[0]


def test_failed_sweep_order_counts_as_failure(tmp_path):
    bench = quick_bench(tmp_path, "sweep-duffing")
    try:
        bench.run_once()
        assert not bench.failures
        csv_path = bench.outputs[0]
        text = csv_path.read_text(encoding="utf-8")
        csv_path.write_text(text.replace(",ok,", ",failed: near-defective,", 1), encoding="utf-8")
        bench.record(None)
        assert bench.failures == ["order 1: status 'failed: near-defective'"]
    finally:
        bench.close()


@pytest.mark.parametrize("seed", TEST_SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_give_valid_configs(tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    full = workloads.make_config(workload, seed)
    assert all(abs(x) < 1.0 for x in full["initial_state"])
    # The seed moves only the initial state.
    other = workloads.make_config(workload, seed + 100)
    assert {k: v for k, v in full.items() if k != "initial_state"} == {
        k: v for k, v in other.items() if k != "initial_state"
    }
    assert full["initial_state"] != other["initial_state"]
    assert workloads.make_config(workload, seed) == full
    # Raises if the full-size orbit leaves the unit box.
    workloads.reference_states(full)

    # The quick run: no box exit, K not near-defective, error within tolerance.
    bench = quick_bench(tmp_path, name, seed)
    try:
        bench.run_once()
    finally:
        bench.close()
    assert bench.failures == []
    if workload.command == "solve":
        assert bench.max_errs[0] <= workloads.size_of(workload, True).tolerance
        summary = json.loads(bench.outputs[1].read_text(encoding="utf-8"))
        assert summary["first_box_exit_time"] is None
        assert math.isfinite(summary["eigencondition"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-long-duffing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "no legkoop sources" in proc.stderr
    assert '"metrics"' not in proc.stdout
