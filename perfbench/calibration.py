"""A fixed kernel that measures how fast the host runs at the moment.

On a shared host the speed of a core drifts by tens of percent within
minutes, and all kinds of work slow down together.  The runner times this
kernel right before each timed sample and reports the sample divided by the
kernel's time, times REFERENCE_S: the sample's wall time on a host where the
kernel takes REFERENCE_S.

The kernel mixes the kinds of work the workloads do: pure-Python RK4 steps
on lists, products of dict-keyed polynomials, and numpy complex exponentials
with repr formatting and a small matrix product.  Of the mixes tried, this
one tracked all three workloads best; a plain float loop in place of the
RK4 steps let the sweep drift by twice as much.  It does not call legkoop,
so no change to the library moves it.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's wall time on a 2-vCPU shared VM (Python 3.11, one BLAS
# thread) when its neighbours are quiet.
REFERENCE_S = 0.025

_POLY = {(i, j): 1.0 / (1 + i + j) for i in range(8) for j in range(8) if i + j < 8}
_PHASES = 1j * np.linspace(0.0, 3.0, 40_000)
_MATRIX = np.linspace(0.0, 1.0, 300 * 300).reshape(300, 300)


def _rk4_steps() -> list:
    def f(x):
        return [x[1], -x[0] - 0.001 * x[0] ** 3]

    x, h = [0.5, 0.0], 1e-3
    for _ in range(1500):
        k1 = f(x)
        k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
        k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
        k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
        x = [xi + h / 6.0 * (a + 2.0 * (b + c) + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
    return x


def _poly_products() -> int:
    size = 0
    for _ in range(36):
        product: dict = {}
        for (a, b), c in _POLY.items():
            for (d, e), f in _POLY.items():
                key = (a + d, b + e)
                product[key] = product.get(key, 0.0) + c * f
        size += len(product)
    return size


def _array_work() -> str:
    text = ""
    for _ in range(3):
        waves = np.exp(3.0 * _PHASES)
        text = repr(float(waves.real.sum()))
        _MATRIX @ _MATRIX
    return text


def kernel_s() -> float:
    """Wall time of one pass of the kernel."""
    started = time.perf_counter()
    _rk4_steps()
    _poly_products()
    _array_work()
    return time.perf_counter() - started


def scaled(sample_s: float, kernel: float) -> float:
    """A sample's wall time on a host where the kernel takes REFERENCE_S."""
    return sample_s / kernel * REFERENCE_S
