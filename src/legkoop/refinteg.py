"""Independent numeric references: fixed-step RK4 and Gauss-Legendre quadrature.

Both deliberately avoid the closed-form integration and spectral
propagation paths elsewhere in the package so they can serve as ground
truth for them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import VectorField
from .errors import NonFiniteError
from .polyalg import Polynomial, evaluate

__all__ = [
    "DIVERGENCE_LIMIT",
    "ReferenceTrajectory",
    "rk4_integrate",
    "gauss_legendre_nodes",
    "gauss_legendre_inner_product",
]

DIVERGENCE_LIMIT = 1e12
_NEWTON_TOLERANCE = 1e-14
_NEWTON_MAX_ITERATIONS = 100


@dataclass(frozen=True, eq=False)
class ReferenceTrajectory:
    """States integrated to each requested time with fixed-step RK4."""

    times: np.ndarray
    states: np.ndarray  # m x nt
    step: float


def _compile_rhs(vf: VectorField):
    # Plain-float term lists: the integrator calls this ~10^6 times, and
    # per-call numpy overhead would dominate at these dimensions.
    comps = tuple(tuple((t.coef, t.exp) for t in comp.terms) for comp in vf.components)

    def rhs(x):
        out = []
        for terms in comps:
            acc = 0.0
            for coef, exp in terms:
                v = coef
                for xk, e in zip(x, exp):
                    if e:
                        v *= xk**e
                acc += v
            out.append(acc)
        return out

    return rhs


def _rk4_step(rhs, x, h):
    k1 = rhs(x)
    k2 = rhs([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = rhs([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = rhs([xi + h * ki for xi, ki in zip(x, k3)])
    return [
        xi + h / 6.0 * (a + 2.0 * (b + c) + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


def rk4_integrate(vf: VectorField, x0: Sequence[float], times, step: float) -> ReferenceTrajectory:
    """Classical Runge-Kutta from x(0) = x0, landing exactly on each time.

    Each segment between requested times is covered with the fixed internal
    `step`; only the final sub-step of a segment is shortened, and a step
    longer than the segment covers it in one.  Global error is O(step**4).
    Divergence (any |x| > 1e12) raises NonFiniteError.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be >= 0 and strictly increasing")
    x = [float(v) for v in x0]
    if len(x) != vf.m:
        raise ValueError(f"x0 has length {len(x)}, expected {vf.m}")

    rhs = _compile_rhs(vf)
    states = np.empty((vf.m, times.size))
    current = 0.0
    for idx, target in enumerate(times):
        span = float(target) - current
        if span > 0.0:
            full_steps = int(math.floor(span / step + 1e-9))
            try:
                for _ in range(full_steps):
                    x = _rk4_step(rhs, x, step)
                remainder = span - full_steps * step
                # Relative to the step actually taken, so a step far longer
                # than the segment still advances the state.
                if remainder > 1e-12 * max(min(step, span), 1.0):
                    x = _rk4_step(rhs, x, remainder)
            except OverflowError:
                raise NonFiniteError(f"state diverged before t = {target}") from None
            current = float(target)
        if any(not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT for v in x):
            raise NonFiniteError(f"state diverged at t = {target}")
        states[:, idx] = x
    states.flags.writeable = False
    times.flags.writeable = False
    return ReferenceTrajectory(times=times, states=states, step=float(step))


def _legendre_value_and_derivative(n: int, x: float) -> tuple[float, float]:
    # Three-term recurrence; stable for |x| <= 1 at any order, unlike
    # evaluating the expanded coefficient table (which cancels
    # catastrophically from n ~ 14 on).
    p_prev, p = 1.0, x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = n * (x * p - p_prev) / (x * x - 1.0) if n > 0 else 0.0
    return p, dp


def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre quadrature on [-1, 1].

    Roots of the order-n Legendre polynomial are found by Newton iteration
    on its recurrence; only the positive half is iterated and then
    mirrored, so the node set is exactly symmetric about 0.
    """
    if n < 1:
        raise ValueError("need at least one node")
    nodes = np.empty(n)
    weights = np.empty(n)
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(_NEWTON_MAX_ITERATIONS):
            p, dp = _legendre_value_and_derivative(n, x)
            delta = p / dp
            x -= delta
            if abs(delta) <= _NEWTON_TOLERANCE:
                break
        else:
            raise RuntimeError(f"Newton iteration did not converge for node {i} of {n}")
        _, dp = _legendre_value_and_derivative(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes[n - 1 - i] = x
        nodes[i] = -x
        weights[n - 1 - i] = w
        weights[i] = w
    if n % 2:
        _, dp = _legendre_value_and_derivative(n, 0.0)
        nodes[n // 2] = 0.0
        weights[n // 2] = 2.0 / (dp * dp)
    return nodes, weights


def gauss_legendre_inner_product(a: Polynomial, b: Polynomial, nodes_per_dim: int) -> float:
    """Tensor-product quadrature of the box inner product <a, b>.

    Exact (to roundoff) when the node count covers the product degree; too
    few nodes is an error rather than a silent approximation, since this
    routine's whole purpose is to be trustworthy ground truth.
    """
    if a.m != b.m:
        raise ValueError(f"dimension mismatch: {a.m} vs {b.m}")
    required = (a.total_degree + b.total_degree) // 2 + 1
    if nodes_per_dim < required:
        raise ValueError(
            f"{nodes_per_dim} nodes per dimension cannot integrate degree "
            f"{a.total_degree + b.total_degree}; need >= {required}"
        )
    nodes, weights = gauss_legendre_nodes(nodes_per_dim)
    contributions = []
    for combo in itertools.product(range(nodes_per_dim), repeat=a.m):
        point = [nodes[i] for i in combo]
        w = 1.0
        for i in combo:
            w *= weights[i]
        contributions.append(w * evaluate(a, point) * evaluate(b, point))
    return math.fsum(contributions)
