"""Independent numeric reference: fixed-step RK4.

It deliberately avoids the closed-form integration and spectral
propagation paths elsewhere in the package so it can serve as ground
truth for them.  `rk4_integrate` returns the states alone, an m x nt
array with one column per requested time; the times are the caller's.

RK4 runs as straight-line Python code generated once per vector field
for its polynomial terms, in the manner of Jorba & Zou's Taylor
integrators (Experimental Mathematics 14, 2005).  It does the float
operations of a plain loop over the terms in the same order, so its
states are bit-identical to that loop's; the tests keep such a loop as
the oracle.  A factor with exponent 1 is written as the bare variable
rather than a float power: `x ** 1 == x` bit for bit (CPython returns
+-0, +-inf and nan itself and computes `pow(|x|, 1.0)` otherwise, which
glibc's pow returns exactly; the tests check every binade), and the bare
name skips a libm call per factor.  Higher exponents are float literals:
`x ** 3.0` is the C `pow(x, 3.0)` that `x ** 3` reaches once it has
converted the 3, so every state and every OverflowError stays the same.
The coefficients are locals of the generated function.  The code can be
built ahead of the run (`_rk4_runner`), as the CLI does before it forks
the process that runs its reference, so that process does not compile it
anew.

The Gauss-Legendre quadrature the tests check `K` against is in
`legkoop.invariants`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dynamics import VectorField
from .errors import NonFiniteError

__all__ = [
    "DIVERGENCE_LIMIT",
    "rk4_integrate",
    "segment_steps",
]

DIVERGENCE_LIMIT = 1e12


def _rk4_runner(vf: VectorField):
    """`run(x, h, count)`: `count` RK4 steps of size h from x, as a new list.

    The steps run as straight-line code generated for this field, on the
    locals x0..x{m-1}.  The code performs the float operations of a plain
    loop over the terms in the same order: each term `coef * xk ** e` over
    its nonzero exponents, each component summed from 0.0 left to right,
    the stages `x + 0.5*h*k` and `x + h*k`, and the update
    `x + h/6 * (k1 + 2*(k2 + k3) + k4)`.  So the states are bit-identical
    to that loop.  A factor with exponent 1 is the bare name `xk`, which
    equals `xk ** 1` bit for bit (see the module docstring).  Exponents of
    2 and more are float literals, `xk ** 2.0`: the same C pow call as the
    integer power, which raises OverflowError where repeated multiplication
    would overflow to inf silently.  The source holds only generated names
    and exponents; the coefficients are unpacked into locals c{j}_{t} once
    per call, so the steps read them as fast locals.

    Compiling costs 0.2-0.6 ms on Duffing's 3-term field, and about 1 ms
    with some 160 copy-on-write faults in a freshly forked process (2-vCPU
    VM, Python 3.11.7), so a caller that runs the reference in a forked
    process builds this before the fork and passes it to `rk4_integrate`.
    """
    m = vf.m
    coefs = [
        (f"c{j}_{t}", term.coef)
        for j, comp in enumerate(vf.components)
        for t, term in enumerate(comp.terms)
    ]

    def rhs(stage, args):
        # k{stage}_j = f_j(args), one line per component.
        lines = []
        for j, comp in enumerate(vf.components):
            terms = ["0.0"]
            for t, term in enumerate(comp.terms):
                powers = [
                    f"{args}{i}" if e == 1 else f"{args}{i} ** {float(e)!r}"
                    for i, e in enumerate(term.exp)
                    if e
                ]
                terms.append(" * ".join([f"c{j}_{t}"] + powers))
            lines.append(f"k{stage}_{j} = " + " + ".join(terms))
        return lines

    def stage_point(scale, stage):
        return [f"y{i} = x{i} + {scale} * k{stage}_{i}" for i in range(m)]

    body = (
        rhs(1, "x")
        + stage_point("hh", 1)
        + rhs(2, "y")
        + stage_point("hh", 2)
        + rhs(3, "y")
        + stage_point("h", 3)
        + rhs(4, "y")
        + [f"x{i} = x{i} + h6 * (k1_{i} + 2.0 * (k2_{i} + k3_{i}) + k4_{i})" for i in range(m)]
    )
    state = "[" + ", ".join(f"x{i}" for i in range(m)) + "]"
    unpack = [f"    [{', '.join(name for name, _ in coefs)}] = coefs"] if coefs else []
    source = "\n".join(
        ["def run(x, h, count):"]
        + unpack
        + [f"    {state} = x", "    hh = 0.5 * h", "    h6 = h / 6.0"]
        + ["    for _ in range(count):"]
        + [f"        {line}" for line in body]
        + [f"    return {state}"]
    )
    namespace: dict = {"coefs": tuple(coef for _, coef in coefs)}
    exec(compile(source, "<rk4>", "exec"), namespace)
    return namespace["run"]


def segment_steps(span: float, step: float) -> tuple[int, float]:
    """How `rk4_integrate` covers a segment of length span > 0: the number
    of full steps of size `step` (with a slack of 1e-9 steps), and the one
    shorter step after them, 0.0 if none.  A remainder is dropped only
    below 1e-12 of max(the step actually taken, 1.0), so a step far longer
    than the segment still covers it."""
    full_steps = int(math.floor(span / step + 1e-9))
    remainder = span - full_steps * step
    if remainder <= 1e-12 * max(min(step, span), 1.0):
        remainder = 0.0
    return full_steps, remainder


def rk4_integrate(
    vf: VectorField, x0: Sequence[float], times, step: float, *, run=None
) -> np.ndarray:
    """The states of classical Runge-Kutta from x(0) = x0 at each time.

    Returns a read-only m x nt array, column k the state at times[k].  Each
    segment between requested times is covered with the fixed internal
    `step`; only the final sub-step of a segment is shortened, and a step
    longer than the segment covers it in one.  Global error is O(step**4).
    Divergence (any |x| > 1e12) raises NonFiniteError.  `run` is the
    stepper `_rk4_runner(vf)` if the caller has built it already; without
    it, it is built here.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be >= 0 and strictly increasing")
    x = [float(v) for v in x0]
    if len(x) != vf.m:
        raise ValueError(f"x0 has length {len(x)}, expected {vf.m}")

    if run is None:
        run = _rk4_runner(vf)
    states = np.empty((vf.m, times.size))
    current = 0.0
    for idx, target in enumerate(times):
        span = float(target) - current
        if span > 0.0:
            full_steps, remainder = segment_steps(span, step)
            try:
                x = run(x, step, full_steps)
                if remainder:
                    x = run(x, remainder, 1)
            except OverflowError:
                raise NonFiniteError(f"state diverged before t = {target}") from None
            current = float(target)
        if any(not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT for v in x):
            raise NonFiniteError(f"state diverged at t = {target}")
        states[:, idx] = x
    states.flags.writeable = False
    return states
