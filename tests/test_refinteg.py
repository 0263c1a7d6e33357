"""Reference RK4 integrator and Gauss-Legendre quadrature oracles."""

import math
import struct

import numpy as np
import pytest

from legkoop.basis import build_basis
from legkoop.dynamics import VectorField, duffing_vector_field
from legkoop.errors import NonFiniteError
from legkoop.invariants import (
    basis_as_polynomial,
    gauss_legendre_inner_product,
    gauss_legendre_nodes,
    rk4_halving_ratios,
)
from legkoop.polyalg import Polynomial, canonicalize, variable
from legkoop.refinteg import DIVERGENCE_LIMIT, rk4_integrate


# ---------------------------------------------------------------------------
# RK4

def test_zero_field_constant_trajectory():
    vf = VectorField(2, (Polynomial(2, ()), Polynomial(2, ())))
    states = rk4_integrate(vf, (0.3, -0.7), np.linspace(0.0, 5.0, 11), 1e-2)
    assert np.allclose(states, [[0.3]] * 1 + [[-0.7]], atol=0)
    assert states.shape == (2, 11)
    assert (states[0] == 0.3).all() and (states[1] == -0.7).all()


def test_harmonic_oscillator_endpoint():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    states = rk4_integrate(vf, (1.0, 0.0), np.array([10.0]), 1e-3)
    assert states[0, 0] == pytest.approx(math.cos(10.0), abs=1e-9)
    assert states[1, 0] == pytest.approx(-math.sin(10.0), abs=1e-9)


def test_exponential_decay_endpoint():
    vf = VectorField(1, (canonicalize([(-1.0, (1,))], 1),))
    states = rk4_integrate(vf, (1.0,), np.array([1.0]), 1e-3)
    assert states[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_requested_grid_is_returned_exactly():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    times = np.linspace(0.0, 1.0, 7)  # step does not divide the spans evenly
    states = rk4_integrate(vf, (1.0, 0.0), times, 1e-2)
    assert states.shape == (2, times.size)
    # Landing must shorten the last sub-step: accuracy unaffected.
    for k, t in enumerate(times):
        assert states[0, k] == pytest.approx(math.cos(t), abs=1e-8)


def test_grid_starting_after_zero():
    vf = VectorField(1, (canonicalize([(-1.0, (1,))], 1),))
    states = rk4_integrate(vf, (1.0,), np.array([0.5, 1.0]), 1e-3)
    assert states[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_divergence_raises_non_finite():
    vf = VectorField(1, (canonicalize([(1.0, (2,))], 1),))  # dx/dt = x^2 blows up
    with pytest.raises(NonFiniteError):
        rk4_integrate(vf, (1.0,), np.array([2.0]), 1e-3)


def test_rk4_argument_validation():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    for step in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError):
            rk4_integrate(vf, (1.0, 0.0), np.array([1.0]), step)
    with pytest.raises(ValueError):
        rk4_integrate(vf, (1.0, 0.0), np.array([1.0, 0.5]), 1e-2)
    with pytest.raises(ValueError):
        rk4_integrate(vf, (1.0,), np.array([1.0]), 1e-2)
    with pytest.raises(ValueError):
        rk4_integrate(vf, (1.0, 0.0), np.array([]), 1e-2)


def test_step_longer_than_segment_takes_one_step():
    # A remainder is skipped only when negligible against the step taken.
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    huge = rk4_integrate(vf, (1.0, 0.0), np.array([0.5]), 1e12)
    one_step = rk4_integrate(vf, (1.0, 0.0), np.array([0.5]), 0.5)
    assert (huge == one_step).all()
    assert huge[0, 0] != 1.0


# The plain loop that the generated RK4 code must reproduce bit for bit:
# term by term, summed from 0.0, with the same stage and update roundings.

def _oracle_rhs(vf, x):
    out = []
    for comp in vf.components:
        acc = 0.0
        for term in comp.terms:
            v = term.coef
            for xk, e in zip(x, term.exp):
                if e:
                    v *= xk**e
            acc += v
        out.append(acc)
    return out


def _oracle_step(vf, x, h):
    k1 = _oracle_rhs(vf, x)
    k2 = _oracle_rhs(vf, [xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = _oracle_rhs(vf, [xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = _oracle_rhs(vf, [xi + h * ki for xi, ki in zip(x, k3)])
    return [
        xi + h / 6.0 * (a + 2.0 * (b + c) + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


def _oracle_states(vf, x0, times, step):
    x = [float(v) for v in x0]
    states = np.empty((vf.m, len(times)))
    current = 0.0
    for idx, target in enumerate(times):
        span = float(target) - current
        if span > 0.0:
            full_steps = int(math.floor(span / step + 1e-9))
            try:
                for _ in range(full_steps):
                    x = _oracle_step(vf, x, step)
                remainder = span - full_steps * step
                if remainder > 1e-12 * max(min(step, span), 1.0):
                    x = _oracle_step(vf, x, remainder)
            except OverflowError:
                raise NonFiniteError(f"state diverged before t = {target}") from None
            current = float(target)
        if any(not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT for v in x):
            raise NonFiniteError(f"state diverged at t = {target}")
        states[:, idx] = x
    return states


def _outcome(integrate):
    # The states' bytes, or the message of the divergence they ran into.
    try:
        return integrate().tobytes()
    except NonFiniteError as exc:
        return str(exc)


def _assert_matches_oracle(vf, x0, times, step):
    expected = _outcome(lambda: _oracle_states(vf, x0, times, step))
    assert _outcome(lambda: rk4_integrate(vf, x0, times, step)) == expected
    return isinstance(expected, bytes)


def test_power_one_is_the_identity_bit_for_bit():
    # The generated RK4 code writes a factor x ** 1 as x; the oracle keeps
    # the power.  Both signs of 2^k and 1.5 * 2^k in every binade, the
    # subnormals included, and the special values.
    values = [0.0, math.inf, math.nan]
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values += [math.ldexp(1.5, k) for k in range(-1073, 1024)]
    values += [math.nextafter(1.0, 2.0), math.nextafter(math.inf, 0.0)]
    for x in values + [-x for x in values]:
        assert struct.pack("<d", x**1) == struct.pack("<d", x), x
        assert math.copysign(1.0, x**1) == math.copysign(1.0, x)


def test_rk4_bit_identical_to_plain_loop_on_duffing():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
    assert _assert_matches_oracle(vf, (1.0, 0.0), np.linspace(0.0, 10.0, 100), 1e-3)


def test_rk4_bit_identical_to_plain_loop_on_4d_quadratic():
    vf = VectorField(4, (
        canonicalize([(1.0, (0, 1, 0, 0))], 4),
        canonicalize([(-1.0, (1, 0, 0, 0)), (-0.02, (0, 1, 0, 0)), (0.1, (1, 0, 1, 0))], 4),
        canonicalize([(1.0, (0, 0, 0, 1))], 4),
        canonicalize([(-2.0, (0, 0, 1, 0)), (-0.02, (0, 0, 0, 1)), (0.1, (2, 0, 0, 0))], 4),
    ))
    assert _assert_matches_oracle(vf, (0.3, -0.2, 0.1, 0.4), np.linspace(0.0, 5.0, 100), 1e-3)


def test_rk4_keeps_the_plain_loops_signed_zero():
    # The sums start from 0.0, so dx/dt = x at x = -0.0 gives +0.0, not -0.0.
    vf = VectorField(1, (canonicalize([(1.0, (1,))], 1),))
    assert _assert_matches_oracle(vf, (-0.0,), np.array([1.0]), 0.1)


def _random_field(rng, m, empty_component):
    components = []
    for j in range(m):
        n_terms = 0 if j == empty_component else int(rng.integers(1, 7))
        terms = [
            (float(rng.normal()), tuple(int(e) for e in rng.integers(0, 4, size=m)))
            for _ in range(n_terms)
        ]
        components.append(canonicalize(terms, m))
    return VectorField(m, tuple(components))


def test_rk4_bit_identical_to_plain_loop_on_random_fields():
    # m = 1..4; every fourth field has a component with no terms; the steps
    # include ones longer than the segments, and a field may diverge.
    finished = 0
    fields = []
    for seed in range(120):
        rng = np.random.default_rng(seed)
        m = seed % 4 + 1
        vf = _random_field(rng, m, empty_component=0 if seed % 4 == 3 else -1)
        x0 = rng.uniform(-0.5, 0.5, size=m)
        step = (1e-3, 7e-3, 0.3, 1.7)[seed % 5 % 4]
        finished += _assert_matches_oracle(vf, x0, np.array([0.25, 0.5, 1.0]), step)
        fields.append(vf)
    assert finished >= 100
    assert any(vf.m == 1 for vf in fields)
    assert any(not comp.terms for vf in fields for comp in vf.components)
    assert any(t.coef < 0 for vf in fields for comp in vf.components for t in comp.terms)


def test_blow_up_raises_at_the_oracles_target_time():
    vf = VectorField(1, (canonicalize([(1.0, (5,))], 1),))  # dx/dt = x^5
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NonFiniteError) as expected:
        _oracle_states(vf, (2.0,), times, 1e-3)
    with pytest.raises(NonFiniteError) as actual:
        rk4_integrate(vf, (2.0,), times, 1e-3)
    assert str(actual.value) == str(expected.value)


def test_fourth_order_convergence_on_step_halving():
    ratios = rk4_halving_ratios()
    assert ratios[0] >= 12.0
    assert ratios[1] >= 12.0


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes and weights

def test_two_point_rule():
    nodes, weights = gauss_legendre_nodes(2)
    assert nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-14)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_three_point_rule():
    nodes, weights = gauss_legendre_nodes(3)
    assert nodes == pytest.approx([-math.sqrt(0.6), 0.0, math.sqrt(0.6)], abs=1e-14)
    assert weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], abs=1e-14)


def test_weights_sum_to_two_and_nodes_symmetric():
    for n in range(1, 21):
        nodes, weights = gauss_legendre_nodes(n)
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-13)
        assert nodes == pytest.approx([-x for x in reversed(nodes)], abs=0)
        assert all(nodes[i] < nodes[i + 1] for i in range(n - 1))


def test_rule_integrates_monomials_exactly():
    for n in (3, 5, 8):
        nodes, weights = gauss_legendre_nodes(n)
        for k in range(2 * n):
            approx = math.fsum(w * x**k for x, w in zip(nodes, weights))
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert approx == pytest.approx(exact, abs=1e-13)


# ---------------------------------------------------------------------------
# quadrature inner product

def test_box_volume():
    one = canonicalize([(1.0, (0, 0))], 2)
    assert gauss_legendre_inner_product(one, one, 1) == pytest.approx(4.0)


def test_coordinate_self_product():
    q = variable(2, 0)
    assert gauss_legendre_inner_product(q, q, 2) == pytest.approx(4.0 / 3.0, abs=1e-13)


def test_normalized_basis_function_self_product():
    basis = build_basis(3, 2)
    L3 = basis_as_polynomial(basis, 3)
    assert gauss_legendre_inner_product(L3, L3, 3) == pytest.approx(1.0, abs=1e-12)


def test_insufficient_nodes_rejected():
    q3 = canonicalize([(1.0, (3, 0))], 2)
    with pytest.raises(ValueError):
        gauss_legendre_inner_product(q3, q3, 3)  # needs (3+3)/2 + 1 = 4
    assert gauss_legendre_inner_product(q3, q3, 4) == pytest.approx(4.0 / 7.0, abs=1e-13)


def test_quadrature_dimension_mismatch():
    with pytest.raises(ValueError):
        gauss_legendre_inner_product(variable(2, 0), variable(1, 0), 5)
