"""Spans and counters recorded around calls into legkoop's layers.

The library is not changed.  `instrument` swaps the names that
`legkoop.cli` and `legkoop.koopman` imported from the other modules for
wrappers that open a span or bump a counter, and restores the originals on
exit.  Spans are timed calls (name, start, end, parent id, run id) kept in
memory; counters are used instead of spans for calls made ~10^5 times per
run (`box_inner_product`, `poly_mul`, `evaluate`).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

COMMAND_SPAN = "cli"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    run: int


class Tracer:
    """In-memory span and counter store; `run` tags everything recorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), None, parent, self.run)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.run][name] += amount

    def self_times(self, run: int) -> dict[str, float]:
        """Per span name, the summed duration minus the time children cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.run == run and s.parent is not None:
                children[s.parent].append(s)
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.run != run:
                continue
            covered, reach = 0.0, s.start
            for child in sorted(children[s.id], key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[s.name] += (s.end - s.start) - covered
        return dict(totals)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run}
                for s in self.spans
            ],
            "counts": {str(run): dict(c) for run, c in sorted(self.counts.items())},
        }


def _is_box_exit_observables(basis, observables) -> bool:
    # cli builds the box-exit observables as identity on names y0..y{m-1};
    # the workloads name their states differently.
    return tuple(observables.names) == tuple(f"y{k}" for k in range(basis.m))


@contextmanager
def instrument(tracer: Tracer):
    """Wrap legkoop's layer calls for the duration of the block."""
    import legkoop.cli as cli
    import legkoop.koopman as koopman

    swapped = []

    def swap(module, attr, wrapper_factory):
        original = getattr(module, attr)
        swapped.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper_factory(original)))

    def spanned(name, counter=None, measure=None):
        def factory(original):
            def wrapper(*args, **kwargs):
                if counter:
                    tracer.count(counter)
                if measure:
                    measure(*args, **kwargs)
                with tracer.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return factory

    def counted(counter):
        def factory(original):
            def wrapper(*args, **kwargs):
                tracer.count(counter)
                return original(*args, **kwargs)

            return wrapper

        return factory

    def modes(n, times):
        nt = len(times)
        tracer.count("koopman.mode_exps", n * nt)
        tracer.count("koopman.mode_bytes_computed", 16 * n * nt)  # complex128 n x nt

    def eigen_sizes(K):
        tracer.count("koopman.basis_n", K.shape[0])
        tracer.count("koopman.K_nnz", int(np.count_nonzero(K)))

    def observable_matrix_factory(original):
        def wrapper(basis, observables):
            tracer.count("koopman.observable_matrix_calls")
            box_exit = _is_box_exit_observables(basis, observables)
            with tracer.span("koopman.box_exit" if box_exit else "koopman.assemble_H"):
                return original(basis, observables)

        return wrapper

    try:
        swap(cli, "parse_system_config", spanned("dynamics.parse"))
        swap(cli, "build_basis", spanned("basis.build", "basis.build_calls"))
        swap(cli, "assemble_koopman", spanned("koopman.assemble_K"))
        swap(cli, "observable_matrix", observable_matrix_factory)
        swap(cli, "eigendecompose", spanned("koopman.eigen", measure=eigen_sizes))
        swap(
            cli,
            "propagate",
            spanned(
                "koopman.propagate",
                "koopman.propagate_calls",
                lambda model, phi0, times: modes(len(model.eigenvalues), times),
            ),
        )
        swap(
            cli,
            "propagate_observables",
            spanned(
                "koopman.box_exit",
                measure=lambda H, eigenvalues, V, phi0, times: modes(len(eigenvalues), times),
            ),
        )
        swap(cli, "rk4_integrate", spanned("refinteg.rk4", "refinteg.rk4_calls"))
        swap(cli, "evaluate", counted("polyalg.evaluate_calls"))
        swap(koopman, "box_inner_product", counted("polyalg.inner_product_calls"))
        swap(koopman, "poly_mul", counted("polyalg.poly_mul_calls"))
        yield tracer
    finally:
        for module, attr, original in reversed(swapped):
            setattr(module, attr, original)
