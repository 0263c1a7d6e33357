"""The legkoop benchmark: one workload, one closed loop, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload solve-long-duffing --seed 1 --seconds 20 --trace 0

The workload command (`legkoop.cli.main([...])`) runs in this process, one
call at a time, each starting after the previous one has finished; BLAS
runs one thread.  Every run's outputs are checked against an RK4 reference
that the benchmark computes once, outside the timed region (see
workloads.py).

--trace 0 reports the end-to-end metrics: `run_s` (median wall time of one
command, CSV and JSON writes included), `setup_s` (median wall time of a
fresh interpreter that imports `legkoop.cli` and parses the config) and
`peak_rss_mib` (peak resident memory of a fresh process that runs the
command once).  Each `run_s` and `setup_s` sample is scaled by the
calibration kernel timed right before it (see calibration.py), so that the
host's drifting speed cancels; the table also prints the unscaled medians.
--trace 1 alternates untraced and traced runs and reports
per-layer medians from spans and counters recorded around the library's
calls (see tracing.py), plus the tracing overhead; the spans are written to
perfbench/.work/.

The last line of standard output is the JSON result; the lines before it
are a table with one row per metric, including `max_err` and `failed_frac`,
which gate correctness and are not timing metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_RUNS = 3
# Untimed runs before the timed loop: the first runs in a process pay for
# lazy imports and for first-touch of freshly mapped memory.
WARMUP_S = 3.0
SETUP_SAMPLES = 25
QUICK_SETUP_SAMPLES = 2
CHILD_TIMEOUT_S = 120

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# Per-layer span self times (s), each with the span it is taken from.
LAYER_SPANS = {
    "koopman.assemble_K_s": "koopman.assemble_K",
    "koopman.assemble_H_s": "koopman.assemble_H",
    "koopman.eigen_s": "koopman.eigen",
    "koopman.propagate_s": "koopman.propagate",
    "koopman.box_exit_s": "koopman.box_exit",
    "basis.build_s": "basis.build",
    "refinteg.rk4_s": "refinteg.rk4",
    "dynamics.parse_s": "dynamics.parse",
    "cli.self_s": "cli",
}
# Per-layer counters, with their units.
LAYER_COUNTS = {
    "polyalg.inner_product_calls": "count",
    "polyalg.poly_mul_calls": "count",
    "polyalg.evaluate_calls": "count",
    "basis.build_calls": "count",
    "koopman.observable_matrix_calls": "count",
    "koopman.propagate_calls": "count",
    "refinteg.rk4_calls": "count",
    "koopman.basis_n": "count",
    "koopman.K_nnz": "count",
    "koopman.mode_exps": "count",
    "koopman.mode_bytes_computed": "B",
    "cli.csv_bytes": "B",
}
# Every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    tuple((name, "s") for name in LAYER_SPANS)
    + (("cli.command_s", "s"), ("trace.overhead_s", "s"))
    + tuple(LAYER_COUNTS.items())
)

SETUP_CODE = (
    "import pathlib, sys\n"
    "import legkoop.cli\n"
    "legkoop.cli.parse_system_config(pathlib.Path(sys.argv[1]).read_text(encoding='utf-8'))\n"
)
# The child prints its VmHWM (kB): the peak of its own address space.
# getrusage's ru_maxrss would not do, because Linux carries the peak RSS of
# the pre-exec image, here the benchmark process itself, across exec.
RSS_CODE = (
    "import sys\n"
    "from legkoop.cli import main\n"
    "try:\n"
    "    rc = main(sys.argv[1:])\n"
    "finally:\n"
    "    with open('/proc/self/status', encoding='ascii') as status:\n"
    "        print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    "sys.exit(rc)\n"
)


def single_thread_blas() -> None:
    """One thread per BLAS/OpenMP pool; call before numpy loads.

    On a few shared cores, a pool's extra threads would measure the
    scheduler rather than the program.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def use_sources(root: Path) -> Path:
    """Put the checkout's `src` first on sys.path, so legkoop is built from it."""
    src = root / "src"
    if not (src / "legkoop" / "__init__.py").is_file():
        raise SystemExit(f"error: no legkoop sources under {src}; run from a legkoop checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Bench:
    """One workload and seed: config, reference, and the runs made on it."""

    def __init__(self, workload_name: str, seed: int, quick: bool, root: Path, work_root: Path):
        import calibration
        import workloads

        self.kernel_s = calibration.kernel_s
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[workload_name]
        self.quick = quick
        self.src = use_sources(root)
        self.work_dir = work_root / f"{workload_name}-{seed}{'-quick' if quick else ''}"
        self.out_dir = self.work_dir / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config = workloads.make_config(self.workload, seed, quick)
        self.config_path = self.work_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        self.args = workloads.cli_args(self.workload, self.config_path, self.out_dir, quick)
        self.outputs = workloads.output_paths(self.workload, self.config, self.out_dir)
        self.reference = workloads.reference_states(self.config)
        self.size = workloads.size_of(self.workload, quick)
        self.attempted = 0
        self.failures: list[str] = []
        self.max_errs: list[float] = []
        self._sink = open(os.devnull, "w", encoding="utf-8")
        if self.workload.command == "sweep":
            self.check_top_order()

    def close(self) -> None:
        self._sink.close()

    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.src))

    def record(self, outcome) -> None:
        """Count one run; `outcome` is a nonzero exit code, an error or None."""
        self.attempted += 1
        if outcome is not None:
            self.failures.append(str(outcome))
            return
        check = self.workloads.check_outputs(
            self.workload, self.config, self.out_dir, self.reference, self.quick
        )
        if check.max_err is not None:
            self.max_errs.append(check.max_err)
        if not check.ok:
            self.failures.append(check.detail)

    def run_once(self, tracer=None) -> float:
        """One in-process command; returns its wall time and records the outcome."""
        from legkoop.cli import main
        from tracing import COMMAND_SPAN, instrument

        for path in self.outputs:
            path.unlink(missing_ok=True)
        gc.collect()
        traced = tracer is not None
        layers = instrument(tracer) if traced else contextlib.nullcontext()
        command = tracer.span(COMMAND_SPAN) if traced else contextlib.nullcontext()
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            with layers:
                started = time.perf_counter()
                try:
                    with command:
                        rc = main(self.args)
                    outcome = None if rc == 0 else f"exit {rc}"
                except Exception as exc:  # a crash is a failed run, not a benchmark error
                    outcome = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - started
        self.record(outcome)
        return elapsed

    def check_top_order(self) -> None:
        """One untimed `solve` at the sweep's top order, gated against the
        benchmark's reference; it counts as one attempted run."""
        from legkoop.cli import main

        config = self.workloads.top_order_config(self.workload, self.config, self.quick)
        config_path = self.work_dir / "top-order.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        out_dir = self.work_dir / "top-order"
        self.attempted += 1
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            try:
                rc = main(["solve", "--config", str(config_path), "--out-dir", str(out_dir)])
            except Exception as exc:
                self.failures.append(f"top-order solve: {type(exc).__name__}: {exc}")
                return
        if rc != 0:
            self.failures.append(f"top-order solve: exit {rc}")
            return
        check = self.workloads.check_solve_outputs(
            self.size.tolerance, config, out_dir, self.reference
        )
        if not check.ok:
            self.failures.append(f"top-order solve: {check.detail}")

    def setup_samples(self, count: int) -> tuple[list[float], list[float]]:
        """Wall times of fresh interpreters importing legkoop.cli and parsing,
        each with the calibration kernel's time just before it."""
        samples, kernels = [], []
        for _ in range(count):
            kernels.append(self.kernel_s())
            started = time.perf_counter()
            # No timeout: with one, the wait polls with sleeps of up to 50 ms,
            # which would quantize the sample.  Without, it blocks in waitpid.
            subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(self.config_path)],
                env=self.child_env(),
                check=True,
                stdout=subprocess.DEVNULL,
            )
            samples.append(time.perf_counter() - started)
        return samples, kernels

    def peak_rss_mib(self) -> float:
        """Peak RSS of a fresh process running the command once."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CODE, *self.args],
            env=self.child_env(),
            timeout=CHILD_TIMEOUT_S,
            capture_output=True,
            text=True,
        )
        self.record(None if proc.returncode == 0 else f"exit {proc.returncode}")
        return int(proc.stdout.strip().splitlines()[-1]) / 1024.0

    def warm_up(self) -> None:
        deadline = time.perf_counter() + WARMUP_S
        self.kernel_s()
        self.run_once()
        while time.perf_counter() < deadline:
            self.kernel_s()
            self.run_once()

    def timed_loop(self, seconds: float, tracer=None):
        """Closed loop for `seconds`; with a tracer, untraced and traced runs alternate.

        Each iteration first times the calibration kernel.  After MIN_RUNS
        iterations, an iteration starts only if one as long as the last still
        ends before the deadline, so a run ends near `seconds`.  Returns the
        untraced times, the traced times and the kernel times.
        """
        plain, traced, kernels = [], [], []
        deadline = time.perf_counter() + seconds
        last = 0.0
        while len(plain) < MIN_RUNS or time.perf_counter() + last < deadline:
            started = time.perf_counter()
            kernels.append(self.kernel_s())
            plain.append(self.run_once())
            if tracer is not None:
                tracer.run = len(traced)
                traced.append(self.run_once(tracer))
                csvs = [p for p in self.outputs if p.suffix == ".csv" and p.exists()]
                tracer.count("cli.csv_bytes", sum(p.stat().st_size for p in csvs))
            last = time.perf_counter() - started
        return plain, traced, kernels


def end_to_end(bench: Bench, seconds: float, quick: bool):
    """Metrics and their samples, plus unscaled samples for the table."""
    from calibration import scaled

    setup, setup_kernels = bench.setup_samples(QUICK_SETUP_SAMPLES if quick else SETUP_SAMPLES)
    rss = bench.peak_rss_mib()
    bench.warm_up()
    runs, _, kernels = bench.timed_loop(seconds)
    samples = {
        "run_s": list(map(scaled, runs, kernels)),
        "setup_s": list(map(scaled, setup, setup_kernels)),
        "peak_rss_mib": [rss],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    unscaled = {"run_wall_s": runs, "setup_wall_s": setup, "kernel_s": kernels + setup_kernels}
    return metrics, samples, unscaled


def per_layer(bench: Bench, seconds: float):
    from tracing import COMMAND_SPAN, Tracer

    tracer = Tracer()
    bench.warm_up()
    plain, traced, _ = bench.timed_loop(seconds, tracer)
    per_run = []
    for run in range(len(traced)):
        selfs = tracer.self_times(run)
        counts = tracer.counts[run]
        command = next(s for s in tracer.spans if s.run == run and s.name == COMMAND_SPAN)
        values = {metric: selfs.get(span, 0.0) for metric, span in LAYER_SPANS.items()}
        values["cli.command_s"] = command.end - command.start
        values.update({metric: counts.get(metric, 0) for metric in LAYER_COUNTS})
        per_run.append(values)
    samples = {name: [v[name] for v in per_run] for name in per_run[0]}
    # Counts repeat exactly from run to run; median_low keeps them integral.
    metrics = {
        name: (statistics.median_low if name in LAYER_COUNTS else statistics.median)(values)
        for name, values in samples.items()
    }
    # Each traced run follows an untraced one; their paired differences cancel
    # the slower drifts of the host's speed.
    samples["trace.overhead_s"] = [t - p for t, p in zip(traced, plain)]
    metrics["trace.overhead_s"] = statistics.median(samples["trace.overhead_s"])
    spans_path = bench.work_dir / "spans.json"
    spans_path.write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    return metrics, samples


def print_table(workload: str, metrics: dict, samples: dict, units: dict, bench: Bench, trace,
                unscaled: dict):
    rows = [("workload", "metric", "median", "unit", "n", "q1", "q3", "min", "max")]
    timings = [(name, value, units[name], samples[name]) for name, value in metrics.items()]
    timings += [(name, statistics.median(values), "s", values) for name, values in unscaled.items()]
    for name, value, unit, values in timings:
        q1, _, q3 = quartiles(values)
        rows.append(
            (workload, name, f"{value:.6g}", unit, str(len(values)),
             f"{q1:.6g}", f"{q3:.6g}", f"{min(values):.6g}", f"{max(values):.6g}")
        )
    if bench.max_errs:
        errs = bench.max_errs
        q1, median, q3 = quartiles(errs)
        rows.append(
            (workload, "max_err", f"{median:.3e}", "abs", str(len(errs)),
             f"{q1:.3e}", f"{q3:.3e}", f"{min(errs):.3e}", f"{max(errs):.3e}")
        )
    failed_frac = len(bench.failures) / bench.attempted
    rows.append((workload, "failed_frac", f"{failed_frac:.6g}", "1", str(bench.attempted),
                 "", "", "", ""))
    if trace:
        command = metrics["cli.command_s"]
        for metric, span in LAYER_SPANS.items():
            rows.append((workload, f"share.{span}", f"{metrics[metric] / command:.4f}", "1",
                         str(len(samples[metric])), "", "", "", ""))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for failure in bench.failures[:5]:
        print(f"failure: {failure}")


def main(argv=None, work_root: Path = HERE / ".work", root: Path = ROOT) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes, for the benchmark's tests"
    )
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, args.quick, root, work_root)
    try:
        if args.trace:
            metrics, samples = per_layer(bench, args.seconds)
            units, unscaled = dict(PER_LAYER), {}
        else:
            metrics, samples, unscaled = end_to_end(bench, args.seconds, args.quick)
            units = dict(END_TO_END)
        print_table(args.workload, metrics, samples, units, bench, bool(args.trace), unscaled)
    finally:
        bench.close()
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    single_thread_blas()
    sys.exit(main())
