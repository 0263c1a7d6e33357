"""Command-line front end: solve one system, sweep basis orders, self-validate.

Exit codes: 0 success, 1 I/O failure, 2 config error, 3 near-defective
Koopman matrix, 4 numeric failure (divergence/overflow), 5 validation
suite failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pickle
import sys
import time
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import refinteg
from .basis import MAX_ORDER, BasisSet, build_basis, evaluate_basis
from .dynamics import MAX_OUTPUT_VALUES, ObservableSet, SystemSpec, parse_system_config
from .errors import NearDefectiveError, NonFiniteError, SchemaError, ValidationError

# perfbench/tracing.py swaps parse_system_config, build_basis,
# assemble_koopman, observable_matrix, eigendecompose, propagate,
# propagate_observables, rk4_integrate and evaluate by name on this module,
# so each stays importable from it.  propagate and propagate_observables
# are not called here: solve streams the blocks of _evaluate_rows.
from .koopman import (  # noqa: F401
    KoopmanModel,
    _evaluate_rows,
    assemble_koopman,
    eigendecompose,
    initial_eigenfunctions,
    observable_matrix,
    propagate,
    propagate_observables,
)
from .polyalg import evaluate
from .refinteg import rk4_integrate, segment_steps
from .reprtext import RowWriter

__all__ = [
    "DEFAULT_RK_STEP",
    "MAX_RK4_STEPS",
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
# Most RK4 steps (about t_final / rk_step, at least one per output interval)
# a reference on Duffing's 3-term field may take; a field of N terms gets
# 3 * MAX_RK4_STEPS / N steps, because a step's cost grows with the terms.
# One step costs about 0.7-0.9 us on Duffing, 1.6 us on a 4-D field with 8
# terms and 25-33 us on 6-D fields with 120 terms of degree <= 3 (2-vCPU VM,
# Python 3.11.7), so this caps the reference at about 7-9 s on Duffing, 6 s
# on the 4-D field and 6-8 s on the 6-D ones.
MAX_RK4_STEPS = 10**7

# Slack on the unit-box exit check: a boundary start reconstructs to
# |y| = 1 +/- reconstruction error, which is not a departure.
_BOX_EXIT_SLACK = 1e-9


# ---------------------------------------------------------------------------
# solve pipeline

@dataclass
class SolveResult:
    spec: SystemSpec
    model: KoopmanModel
    n_modes_propagated: int
    first_box_exit: Optional[float]
    observable_errors: Optional[dict]
    timings: dict


def _reference_values(
    spec: SystemSpec, times: np.ndarray, rk_step: float, run=None
) -> np.ndarray:
    """Each observable (rows) at each time (columns) along the RK4 reference;
    `run` is the field's RK4 stepper, if it is built already."""
    states = rk4_integrate(spec.vf, spec.initial_state, times, rk_step, run=run)
    return np.array([evaluate(g, states) for g in spec.observables.polys])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _picklable(exc: BaseException) -> BaseException:
    """`exc` if it survives a pickle round trip, else a RuntimeError with its
    type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class _ReferenceRun:
    """`_reference_values(spec, times, rk_step, run)`, computed beside the solve.

    The RK4 stepper `run` is compiled here first, so that a forked child
    only runs it: compiled in the child, it would cost the child the
    compile and its copy-on-write faults.  When this process may use a
    second CPU and `os.fork` exists, a forked child computes the values
    while the caller goes on.  It sends one pickled message through a
    pipe, `(values, seconds)` or the exception it raised, and exits;
    `values()`, the pipe's one reader, returns the values or raises that
    exception.  Otherwise `values()` makes the same call in
    this process: on one CPU a child would only take turns with the solve
    (pinned to one CPU of a 2-vCPU VM, the Duffing sweep over orders 1..10
    took 37.9 ms with a forced fork against 27.7 ms in process).
    `seconds` is the time the call took where it ran, without any wait, plus
    the compile.

    Use it as a context manager: leaving the block reaps the child on every
    path, killing it first if it has neither ended nor sent its result.
    """

    def __init__(self, spec: SystemSpec, times: np.ndarray, rk_step: float):
        started = time.perf_counter()
        self._args = (spec, times, rk_step, refinteg._rk4_runner(spec.vf))
        self._compile_s = time.perf_counter() - started
        # (values, seconds) once they are in, or the exception the child sent.
        self._result = None
        self.seconds: Optional[float] = None
        self._pid = self._pipe = None
        if hasattr(os, "fork") and _usable_cpus() > 1:
            self._fork()

    def __enter__(self) -> "_ReferenceRun":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run(self) -> tuple[np.ndarray, float]:
        started = time.perf_counter()
        values = _reference_values(*self._args)
        return values, time.perf_counter() - started

    def _fork(self) -> None:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: compute in this one
            os.close(read_end)
            os.close(write_end)
            return
        if pid == 0:
            # The child never returns into the caller's frames, and whatever
            # it raises, interrupts included, goes to the parent to raise.
            try:
                os.close(read_end)
                try:
                    message = self._run()
                except BaseException as exc:
                    message = _picklable(exc)
                with open(write_end, "wb") as pipe:
                    # Protocol 5 writes the values' buffer without a copy.
                    pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        os.close(write_end)
        self._pid, self._pipe = pid, read_end

    def ready(self) -> bool:
        """Whether `values()` would return without waiting for RK4 work: in
        this process, once the message is read, or once the child has ended
        (it is reaped here).  A message larger than the pipe holds keeps the
        child in its write until `values()` reads it.  Never blocks.

        A sweep asks after each order so that it stops where a failed
        reference is first seen, instead of solving every order after it.
        It saves no memory for a message larger than the pipe holds (64 KiB
        on Linux), which keeps it False until `values()`."""
        if self._pipe is None:
            return True
        if self._pid is not None and os.waitpid(self._pid, os.WNOHANG)[0]:
            self._pid = None
        return self._pid is None

    def values(self) -> np.ndarray:
        """The reference values, waiting for them if need be; raises what
        the reference raised."""
        if self._pipe is not None:
            with open(self._pipe, "rb") as pipe:
                self._pipe = None
                try:
                    self._result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    self._result = RuntimeError("the RK4 reference process ended without a result")
        elif self._result is None:
            self._result = self._run()
        if isinstance(self._result, BaseException):
            raise self._result
        values, seconds = self._result
        self.seconds = seconds + self._compile_s
        return values

    def close(self) -> None:
        """Close the pipe if it is still open and reap the child, killing it
        first if it has neither ended nor sent its result."""
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        if self._pid is not None:
            pid, self._pid = self._pid, None
            if self._result is None:
                import signal  # here, so that `import legkoop.cli` does not load it

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@contextmanager
def _atomic_output(path: Path):
    """Write `path` through a temporary file beside it, renamed to `path` when
    the block exits cleanly; on failure that file and every directory made
    for it are removed, so a failed run leaves nothing behind.  Every file
    the CLI writes goes through here, as bytes."""
    made = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    partial_path = path.with_name(path.name + ".tmp")
    try:
        with partial_path.open("wb") as out:
            yield out
        partial_path.replace(path)
    except BaseException:
        partial_path.unlink(missing_ok=True)
        with suppress(OSError):
            for directory in made:
                directory.rmdir()
        raise


@dataclass(frozen=True, eq=False)
class _Assembly:
    """The basis, `K` and the rows of `H` at one order C, for every order
    c <= C: order c takes the first n_c basis rows, the leading n_c x n_c
    block of `K` and the first n_c columns of `H`.

    These equal the assembly at order c bit for bit: the basis rows run by
    total degree, and each entry of `K` and `H` is an exact projection, so
    a larger order only appends rows and columns (tests/test_cli.py
    checks every c <= C on random fields).  `rows` holds the observables'
    rows of `H`, then, at C >= 1, the box rows: `observable_matrix` of the
    states y0..y{m-1} on the basis moved onto the unit box.  `timings` has
    the "basis" and "assemble" times.
    """

    basis: BasisSet
    K: np.ndarray
    rows: np.ndarray
    timings: dict


def _assemble(spec: SystemSpec) -> _Assembly:
    """The basis, `K` and the rows of `H` of `spec` at its order."""
    timings: dict = {}

    mark = time.perf_counter()
    basis = build_basis(spec.order, len(spec.states), spec.domain_center, spec.domain_half_width)
    timings["basis"] = time.perf_counter() - mark

    mark = time.perf_counter()
    K = assemble_koopman(basis, spec.vf)
    rows = observable_matrix(basis, spec.observables)
    # Track the state in unit-box coordinates y to flag departure from the
    # box, where the Galerkin projection stops being optimal.  Its rows ride
    # along in the observables' propagation pass.
    if spec.order >= 1:
        m = basis.m
        unit_box = replace(basis, center=(0.0,) * m, half_width=(1.0,) * m)
        y = ObservableSet.identity(tuple(f"y{k}" for k in range(m)))
        rows = np.vstack((rows, observable_matrix(unit_box, y)))
        rows.flags.writeable = False
    timings["assemble"] = time.perf_counter() - mark
    return _Assembly(basis, K, rows, timings)


def _solve_spec(
    spec: SystemSpec, *, times: np.ndarray, assembly: _Assembly
) -> tuple[SolveResult, Iterator]:
    """Solve `spec` on the evenly spaced grid `times`, one block of times at a time.

    `assembly` is `_assemble` of this spec at an order C >= spec.order (a
    sweep assembles once, at its top order), and the solve uses its leading
    blocks.  `timings` starts from the assembly's.  Returns the result and
    an iterator of `(block, rows)`: `block` a slice of `times`, and `rows`
    each observable (rows) at those times (columns), in a buffer the next
    block overwrites.  The first block is computed before this returns, so
    the grid is checked and exp guarded against overflow before the caller
    waits for anything or writes any output.  As the caller pulls the
    blocks, the iterator checks each for an exit from the unit box, which
    sets `result.first_box_exit`, and adds that check and the later blocks'
    propagation to `timings["propagate"]`.
    """
    timings = dict(assembly.timings)
    m = assembly.basis.m
    n = math.comb(spec.order + m, m)
    n_obs = len(spec.observables)
    basis = replace(assembly.basis, c=spec.order, orders=assembly.basis.orders[:n])
    # A copy, laid out as a fresh assembly: the eigen layer's sums then
    # round the same way.
    K = np.ascontiguousarray(assembly.K[:n, :n])
    K.flags.writeable = False
    # The observables' rows, then the box rows at order >= 1.
    box_exit = spec.order >= 1
    rows = assembly.rows[: n_obs + m if box_exit else n_obs, :n]

    mark = time.perf_counter()
    eigenvalues, eigenblocks, diagnostics = eigendecompose(K)
    timings["eigen"] = time.perf_counter() - mark
    model = KoopmanModel(basis, K, rows[:n_obs], eigenvalues, eigenblocks, diagnostics)

    mark = time.perf_counter()
    h0 = evaluate_basis(basis, spec.initial_state)
    phi0 = initial_eigenfunctions(eigenblocks, h0)
    blocks = _evaluate_rows(rows, eigenblocks, phi0, times)
    # The first block checks the grid and guards exp against overflow.
    block, values, n_modes = next(blocks)
    timings["propagate"] = time.perf_counter() - mark
    result = SolveResult(spec, model, n_modes, None, None, timings)

    def checked_blocks(block: slice, values: np.ndarray) -> Iterator:
        # `mark` is reset after each block, so that the caller's work on a
        # block is not counted.
        mark = time.perf_counter()
        while block is not None:
            if result.first_box_exit is None and box_exit:
                outside = np.abs(values[n_obs:]).max(axis=0) > 1.0 + _BOX_EXIT_SLACK
                if outside.any():
                    result.first_box_exit = float(times[block][np.argmax(outside)])
            timings["propagate"] += time.perf_counter() - mark
            yield block, values[:n_obs]
            mark = time.perf_counter()
            block, values, _ = next(blocks, (None, None, None))

    return result, checked_blocks(block, values)


def _summary_json(result: SolveResult) -> dict:
    """Everything the summary JSON reports about one solve."""
    model = result.model
    eigenvalues = model.eigenvalues
    return {
        "system": result.spec.name,
        "m": model.basis.m,
        "c": model.basis.c,
        "n": model.basis.n,
        "n_blocks": model.diagnostics.n_blocks,
        "eigenvalues": np.column_stack((eigenvalues.real, eigenvalues.imag)).tolist(),
        "eigenresidual": model.diagnostics.eigenresidual,
        "eigencondition": model.diagnostics.eigencondition,
        "skewness": model.diagnostics.skewness,
        # Propagation is real, so no imaginary part is dropped; the key stays.
        "max_imag": 0.0,
        "n_modes_propagated": result.n_modes_propagated,
        "observable_errors": result.observable_errors,
        "first_box_exit_time": result.first_box_exit,
        "timings": result.timings,
    }


def _summary_text(summary: dict) -> str:
    """`json.dumps(summary, indent=2) + "\n"`, the eigenvalue pairs written by
    one format string.

    `indent` sends `json.dumps` to its pure-Python encoder, which makes
    several Python calls per value; the 2n eigenvalue floats go through one
    `%` operation instead.  The eigen layer refuses non-finite eigenvalues,
    so each one's `%r` is the repr json writes.  A basis has n >= 1
    functions, so the list is never empty.
    """
    pairs = summary["eigenvalues"]
    text = json.dumps({**summary, "eigenvalues": None}, indent=2)
    pair = "\n    [\n      %r,\n      %r\n    ]"
    listed = "[" + ",".join([pair] * len(pairs)) % tuple(itertools.chain(*pairs)) + "\n  ]"
    # json escapes line breaks inside strings, so a line break, two spaces
    # and a quote open a top-level key: the first match is the key's line.
    key = '\n  "eigenvalues": '
    return text.replace(key + "null", key + listed, 1) + "\n"


def _load_spec(config_path, orders: Sequence[int] = ()) -> SystemSpec | int:
    """The parsed config, or the exit code after reporting why there is none.

    Given `orders` (a sweep's), the config's own order is replaced by each
    of them in turn until one validates; if none does, the first one's
    error is reported.
    """
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"config error: $: not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    texts = [text]
    if orders:
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError):
            doc = None  # parse_system_config reports it
        if isinstance(doc, dict):
            texts = (json.dumps({**doc, "order": order}) for order in orders)
    error = None
    for candidate in texts:
        try:
            return parse_system_config(candidate)
        except (SchemaError, ValidationError) as exc:
            error = error or exc
    print(f"config error: {error}", file=sys.stderr)
    return EXIT_CONFIG


def _rk4_budget_exceeded(spec: SystemSpec, rk_step: float) -> bool:
    """Whether the RK4 reference would do more work than MAX_RK4_STEPS steps
    on a 3-term field; if so, says why on stderr."""
    intervals = spec.num_steps - 1
    steps = spec.t_final / rk_step  # inf when the count overflows a float
    if math.isfinite(steps):
        full_steps, remainder = segment_steps(spec.t_final / intervals, rk_step)
        steps = intervals * (full_steps + (remainder > 0))
    terms = sum(len(comp.terms) for comp in spec.vf.components)
    if steps * max(terms, 1) <= 3 * MAX_RK4_STEPS:
        return False
    print(
        f"config error: the RK4 reference takes {steps:.3g} steps (t_final / --rk-step, "
        f"at least one per output interval) on a field of {terms} terms, over the limit of "
        f"{3 * MAX_RK4_STEPS:.0e} step-terms; lower t_final or num_steps, or raise --rk-step",
        file=sys.stderr,
    )
    return True


def run_solve(
    config_path,
    *,
    reference: bool = False,
    rk_step: float = DEFAULT_RK_STEP,
    out_dir="out",
) -> int:
    """Solve one configured system; write trajectory CSV and summary JSON.

    The summary's `timings["propagate"]` sums propagation and the box-exit
    check over the blocks, `timings["reference"]` the reference's own run
    (`seconds`) and the errors, and `timings["total"]` spans the whole
    solve, CSV writing and any wait for the reference included.
    """
    spec = _load_spec(config_path)
    if isinstance(spec, int):
        return spec
    if reference and _rk4_budget_exceeded(spec, rk_step):
        return EXIT_CONFIG
    out = Path(out_dir)
    csv_path = out / f"{spec.name}_trajectory.csv"
    json_path = out / f"{spec.name}_summary.json"
    times = np.linspace(0.0, spec.t_final, spec.num_steps)
    try:
        # Both files are committed together when the block exits: a failure
        # in either leaves neither (see `_atomic_output`).
        with ExitStack() as outputs:
            if reference:
                # Started first, to run while K is assembled and solved.
                rk4_reference = outputs.enter_context(_ReferenceRun(spec, times, rk_step))
            started = time.perf_counter()
            result, blocks = _solve_spec(spec, times=times, assembly=_assemble(spec))
            timings = result.timings
            if reference:
                reference_values = rk4_reference.values()
                errors = np.empty_like(reference_values)
                timings["reference"] = rk4_reference.seconds
            header = spec.observables.csv_header(reference)
            csv = outputs.enter_context(_atomic_output(csv_path))
            csv.write((",".join(header) + "\n").encode("utf-8"))
            rows = RowWriter(csv, len(header))
            for block, values in blocks:
                columns = [times[block, None], values.T]
                if reference:
                    mark = time.perf_counter()
                    np.abs(values - reference_values[:, block], out=errors[:, block])
                    columns += [reference_values[:, block].T, errors[:, block].T]
                    timings["reference"] += time.perf_counter() - mark
                # Each value as its repr: the shortest decimal that round-trips.
                rows.write(*columns)
            rows.flush()
            if reference:
                mark = time.perf_counter()
                result.observable_errors = {
                    name: {"max": float(diff.max()), "rms": float(np.sqrt(np.mean(diff**2)))}
                    for name, diff in zip(spec.observables.names, errors)
                }
                timings["reference"] += time.perf_counter() - mark
            timings["total"] = time.perf_counter() - started
            summary = outputs.enter_context(_atomic_output(json_path))
            summary.write(_summary_text(_summary_json(result)).encode("utf-8"))
    except NearDefectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEAR_DEFECTIVE
    except (NonFiniteError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    if result.first_box_exit is not None:
        print(
            f"warning: trajectory leaves the unit box at t = {result.first_box_exit:g}; "
            "the projection is only optimal inside it",
            file=sys.stderr,
        )
    basis, diag = result.model.basis, result.model.diagnostics
    print(
        f"{spec.name}: m={basis.m} c={basis.c} n={basis.n}  "
        f"skewness={diag.skewness:.3e}  eigencondition={diag.eigencondition:.3e}  "
        "max_imag=0.000e+00"
    )
    if result.observable_errors is not None:
        worst = max(err["max"] for err in result.observable_errors.values())
        print(f"max observable error vs RK4(step={rk_step:g}): {worst:.3e}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def _settle_errors(waiting: list, reference_values: np.ndarray) -> None:
    """Fill in the max error per observable of each waiting sweep row from
    its observable values, add the time that takes to the row's wall time,
    and empty `waiting`."""
    for row, values in waiting:
        started = time.perf_counter()
        np.subtract(values, reference_values, out=values)
        row["errors"] = [float(diff.max()) for diff in np.abs(values, out=values)]
        row["wall"] += time.perf_counter() - started
    waiting.clear()


def run_sweep(
    config_path,
    orders: Sequence[int],
    *,
    rk_step: float = DEFAULT_RK_STEP,
    out_dir="out",
) -> int:
    """Solve at several orders against a single RK4 reference.

    Each order is validated as `solve` validates that order's config, so it
    is refused with the same message.  The basis, `K` and `H` are assembled
    once, at the largest order that validates, and each order solves on
    their leading blocks (`_Assembly`).
    A row's wall time is its own order's work, from its eigendecomposition
    to its errors; the shared assembly is in none of them.
    """
    orders = list(orders)
    if not orders:
        print("error: no orders requested", file=sys.stderr)
        return EXIT_CONFIG
    spec = _load_spec(config_path, orders)
    if isinstance(spec, int):
        return spec
    if _rk4_budget_exceeded(spec, rk_step):
        return EXIT_CONFIG

    # Each order's spec, or the ValidationError that refuses it.
    checked = []
    for order in orders:
        try:
            checked.append(replace(spec, order=order))
        except ValidationError as exc:
            checked.append(exc)
    top = max((c for c in checked if isinstance(c, SystemSpec)), key=lambda c: c.order)

    times = np.linspace(0.0, spec.t_final, spec.num_steps)
    names = spec.observables.names
    m = len(spec.states)
    rows: list[dict] = []
    # The rows of orders solved before the reference is in, each with its
    # observable values, as many as MAX_OUTPUT_VALUES holds.
    waiting: list[tuple[dict, np.ndarray]] = []
    most_waiting = MAX_OUTPUT_VALUES // (len(names) * times.size)
    # Every order shares the grid, so it shares one reference, which runs
    # while the orders are solved.  The block is left, and an ended child
    # reaped, once the CSV and the table are written.
    with _ReferenceRun(spec, times, rk_step) as reference:
        assembly = _assemble(top)
        try:
            for order, order_spec in zip(orders, checked):
                started = time.perf_counter()
                row = {"order": order, "errors": None, "resid": None}
                try:
                    if isinstance(order_spec, ValidationError):
                        raise order_spec
                    result, blocks = _solve_spec(order_spec, times=times, assembly=assembly)
                    values = np.empty((len(names), times.size))
                    for block, block_values in blocks:
                        values[:, block] = block_values
                except (ValidationError, NearDefectiveError, NonFiniteError, OverflowError) as exc:
                    row.update(n=math.comb(order + m, m), status=f"failed: {exc}")
                else:
                    row.update(n=result.model.basis.n, status="ok",
                               resid=result.model.diagnostics.eigenresidual)
                    waiting.append((row, values))
                    del result  # the values wait for the reference, not the model
                row["wall"] = time.perf_counter() - started
                rows.append(row)
                if reference.ready() or len(waiting) >= most_waiting:
                    _settle_errors(waiting, reference.values())
            _settle_errors(waiting, reference.values())
        except NonFiniteError as exc:
            # Each order's own failures are caught above: this is the reference's.
            print(f"numeric failure in RK4 reference: {exc}", file=sys.stderr)
            return EXIT_NUMERIC

        header = (
            ["order", "n", "status"]
            + [f"max_err_{name}" for name in names]
            + ["eigenresidual", "wall_time_s"]
        )
        csv_lines = [",".join(header)]
        table = [header]
        for row in rows:
            errors, resid, wall = row["errors"], row["resid"], row["wall"]
            order, n, status = str(row["order"]), str(row["n"]), row["status"]
            if errors is None:
                csv_cells, table_cells = [""] * (len(names) + 1), ["-"] * (len(names) + 1)
            else:
                csv_cells = [repr(x) for x in errors + [resid]]
                table_cells = [f"{x:.3e}" for x in errors] + [f"{resid:.1e}"]
            csv_cells = [order, n, status.replace(",", ";")] + csv_cells + [repr(wall)]
            csv_lines.append(",".join(csv_cells))
            table.append([order, n, status] + table_cells + [f"{wall:.2f}"])

        csv_path = Path(out_dir) / f"{spec.name}_sweep.csv"
        try:
            with _atomic_output(csv_path) as out:
                out.write(("\n".join(csv_lines) + "\n").encode("utf-8"))
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

def run_validate() -> int:
    """Run the cross-module invariant suite and report pass/fail per check."""
    # Imported here, not at the top: `import legkoop.cli` stays as light as
    # the solve and sweep commands need.
    from . import invariants

    golden = invariants.golden_deviation(build_basis(3, 2))
    gram = invariants.orthonormality_error()
    quadrature = invariants.koopman_quadrature_error()
    above_degree = invariants.above_degree_entry()
    reconstruction = invariants.reconstruction_error()
    ratios = invariants.rk4_halving_ratios()
    checks = [
        ("golden basis tables (c=3, m=2)", golden <= 5e-4,
         f"max golden deviation {golden:.2e}"),
        ("basis orthonormality (orders 1..8)", gram <= 1e-12,
         f"max |Gram - I| = {gram:.2e} over orders 1..8"),
        ("Koopman matrix vs quadrature (Duffing, c=3)", quadrature <= 1e-10,
         f"max |K - quadrature| = {quadrature:.2e}"),
        ("degree triangularity for linear dynamics", above_degree <= 1e-12,
         f"max |K[i,k]| with deg_k > deg_i = {above_degree:.2e}"),
        ("t=0 reconstruction (100 random states)", reconstruction <= 1e-9,
         f"worst |g(0) - g(x0)| = {reconstruction:.2e} over 100 states"),
        ("RK4 step-halving order", all(r >= 12.0 for r in ratios),
         f"halving ratios {ratios[0]:.1f}, {ratios[1]:.1f} (>= 12 expected)"),
    ]
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} - {label}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing

def _orders_argument(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
            if hi < lo:
                raise ValueError
            orders = range(lo, hi + 1)
        else:
            orders = [int(part) for part in text.split(",")]
            lo, hi = min(orders), max(orders)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'A..B' or comma-separated integers, got {text!r}"
        ) from None
    if lo < 0:
        raise argparse.ArgumentTypeError(f"orders must be >= 0, got {text!r}")
    # Checked before a range is listed: no order above MAX_ORDER can validate.
    if hi > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"orders must be <= {MAX_ORDER}, got {text!r}")
    return list(orders)


def _step_argument(text: str) -> float:
    try:
        step = float(text)
        if math.isfinite(step) and step > 0:
            return step
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite step > 0, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="legkoop",
        description="Solve polynomial ODEs spectrally via a Legendre-Galerkin "
        "Koopman matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON system description")
    common.add_argument("--rk-step", type=_step_argument, default=DEFAULT_RK_STEP)
    common.add_argument("--out-dir", default="out")

    solve = sub.add_parser(
        "solve", parents=[common], help="solve one system and write its artifacts"
    )
    solve.add_argument(
        "--reference",
        action="store_true",
        help="also integrate with RK4 and report per-observable errors",
    )

    sweep = sub.add_parser(
        "sweep", parents=[common], help="solve at several orders against one RK4 reference"
    )
    sweep.add_argument(
        "--orders", required=True, type=_orders_argument, help="range 'A..B' or list '1,3,5'"
    )

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
