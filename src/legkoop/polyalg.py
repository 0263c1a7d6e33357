"""Sparse multivariate polynomial arithmetic with closed-form box integrals.

A polynomial in ``m`` variables is a tuple of monomials, each a coefficient
together with one exponent per variable.  The representation is canonical:
like terms are merged, zero coefficients are dropped, and terms are sorted
in graded order (total degree ascending, ties broken lexicographically
descending on the exponent tuple).  Canonical form makes equality
structural and fixes every accumulation order, so repeated runs produce
bit-identical results.

All values are immutable; every operation returns a fresh polynomial.
`evaluate` takes one point or an m x N array of points, and gives each
point the same float operations either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Monomial",
    "Polynomial",
    "canonicalize",
    "constant",
    "variable",
    "poly_add",
    "poly_scale",
    "poly_mul",
    "partial_derivative",
    "box_inner_product",
    "affine_substitute",
    "evaluate",
]

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class Monomial:
    """A single ``coef * x_0**exp[0] * ... * x_{m-1}**exp[m-1]`` term."""

    coef: float
    exp: Exponents


@dataclass(frozen=True)
class Polynomial:
    """Canonical sparse polynomial in ``m`` real variables."""

    m: int
    terms: tuple[Monomial, ...]

    @property
    def total_degree(self) -> int:
        """Largest total degree over all terms (0 for the zero polynomial)."""
        return max((sum(t.exp) for t in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            mono = "*".join(f"x{k}^{e}" for k, e in enumerate(t.exp) if e)
            parts.append(f"{t.coef:g}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _grade_key(exp: Exponents) -> tuple:
    # Graded order with descending lexicographic ties, so degree d runs
    # (d,0,...), (d-1,1,...), ..., (0,...,d).
    return (sum(exp), tuple(-e for e in exp))


TermLike = Union[Monomial, tuple]


def canonicalize(terms: Iterable[TermLike], m: int) -> Polynomial:
    """Merge like terms, drop exact zeros, and sort into graded order.

    Accepts ``Monomial`` instances or bare ``(coef, exp)`` pairs.  A
    non-finite coefficient, given or summed from finite like terms, raises
    ``ValueError``.
    """
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    acc: dict[Exponents, float] = {}
    for term in terms:
        if isinstance(term, Monomial):
            coef, exp = term.coef, term.exp
        else:
            coef, exp = term
        exp = tuple(int(e) for e in exp)
        if len(exp) != m:
            raise ValueError(f"exponents {exp} have length {len(exp)}, expected {m}")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        if not math.isfinite(coef):
            raise ValueError(f"non-finite coefficient {coef!r}")
        acc[exp] = acc.get(exp, 0.0) + float(coef)
    kept = [(e, c) for e, c in acc.items() if c != 0.0]
    for _, c in kept:
        if not math.isfinite(c):
            raise ValueError(f"like terms sum to non-finite coefficient {c!r}")
    kept.sort(key=lambda item: _grade_key(item[0]))
    return Polynomial(m, tuple(Monomial(c, e) for e, c in kept))


def constant(m: int, value: float) -> Polynomial:
    """The constant polynomial ``value`` in m variables."""
    return canonicalize([(value, (0,) * m)], m)


def variable(m: int, k: int) -> Polynomial:
    """The coordinate polynomial x_k in m variables."""
    if not 0 <= k < m:
        raise ValueError(f"variable index {k} out of range for dimension {m}")
    exp = tuple(1 if j == k else 0 for j in range(m))
    return Polynomial(m, (Monomial(1.0, exp),))


def _check_same_dimension(a: Polynomial, b: Polynomial) -> None:
    if a.m != b.m:
        raise ValueError(f"dimension mismatch: {a.m} vs {b.m}")


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    """a + b in canonical form."""
    _check_same_dimension(a, b)
    return canonicalize(list(a.terms) + list(b.terms), a.m)


def poly_scale(p: Polynomial, factor: float) -> Polynomial:
    """factor * p."""
    return canonicalize([(t.coef * factor, t.exp) for t in p.terms], p.m)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b: coefficients multiply, exponents add componentwise."""
    _check_same_dimension(a, b)
    products = []
    for ta in a.terms:
        for tb in b.terms:
            products.append(
                (ta.coef * tb.coef, tuple(x + y for x, y in zip(ta.exp, tb.exp)))
            )
    return canonicalize(products, a.m)


def partial_derivative(p: Polynomial, var: int) -> Polynomial:
    """d/dx_var applied term-wise; terms constant in x_var vanish."""
    if not 0 <= var < p.m:
        raise ValueError(f"variable index {var} out of range for dimension {p.m}")
    out = []
    for t in p.terms:
        e = t.exp[var]
        if e:
            exp = t.exp[:var] + (e - 1,) + t.exp[var + 1 :]
            out.append((t.coef * e, exp))
    return canonicalize(out, p.m)


# Dekker's exact two-product.  Individual inner-product contributions can be
# ~1e4 while the sum is O(1) (orthonormality is all cancellation), so naive
# per-contribution rounding already costs ~1e-12.  Splitting each product
# into an exact hi+lo pair and letting math.fsum add the pairs exactly keeps
# the final result correctly rounded.
_SPLIT = 134217729.0  # 2**27 + 1


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah = a * _SPLIT
    ah = ah - (ah - a)
    al = a - ah
    bh = b * _SPLIT
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def box_inner_product(a: Polynomial, b: Polynomial) -> float:
    """Integral of a*b over the box [-1, 1]^m, evaluated in closed form.

    Each product monomial integrates to zero when any exponent is odd (odd
    symmetry); otherwise it contributes coef_a * coef_b * prod_k 2/(e_k + 1).
    Contributions are generated in canonical term order and summed exactly,
    so the result is deterministic bit-for-bit.
    """
    _check_same_dimension(a, b)
    scale = float(1 << a.m)
    parts: list[float] = []
    for ta in a.terms:
        for tb in b.terms:
            denom = 1
            for ea, eb in zip(ta.exp, tb.exp):
                s = ea + eb
                if s & 1:
                    denom = 0
                    break
                denom *= s + 1
            if not denom:
                continue
            # contribution = coef_a*coef_b*2^m / denom, kept as an exact
            # hi+lo pair (the division residual is O(eps^2), negligible)
            hi, lo = _two_prod(ta.coef * scale, tb.coef)
            q1 = hi / denom
            prod, err = _two_prod(q1, float(denom))
            q2 = (((hi - prod) - err) + lo) / denom
            parts.append(q1)
            parts.append(q2)
    return math.fsum(parts)


def affine_substitute(
    p: Polynomial, center: Sequence[float], half_width: Sequence[float]
) -> Polynomial:
    """Substitute x_k = center_k + half_width_k * y_k and expand.

    Returns the polynomial in the new variable y, canonicalized.
    """
    centers = tuple(float(v) for v in center)
    widths = tuple(float(v) for v in half_width)
    if len(centers) != p.m or len(widths) != p.m:
        raise ValueError(f"affine vectors must have length {p.m}")
    if any(not h > 0 for h in widths):
        raise ValueError("half_width entries must be positive")
    out: list[tuple[float, Exponents]] = []
    for t in p.terms:
        expansion: list[tuple[float, Exponents]] = [(t.coef, ())]
        for c_k, h_k, e in zip(centers, widths, t.exp):
            binomial = [math.comb(e, j) * c_k ** (e - j) * h_k**j for j in range(e + 1)]
            expansion = [
                (coef * w, exps + (j,))
                for coef, exps in expansion
                for j, w in enumerate(binomial)
            ]
        out.extend(expansion)
    return canonicalize(out, p.m)


def real_array(x, name: str) -> np.ndarray:
    """`x` as a float array; a complex `x` raises ValueError rather than
    losing its imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, got complex values")
    return x.astype(float, copy=False)


def evaluate(p: Polynomial, x) -> Union[float, np.ndarray]:
    """Evaluate p at the point x (m reals), or at each column of the m x N
    array x, returning N floats.

    Each point gets the float operations of a loop over the terms in
    canonical order: coef times each factor, summed from 0.0.  A factor
    with exponent 1 is the bare value (`x ** 1 == x`, see
    `legkoop.refinteg`), one with e >= 2 the float `**` of each value,
    since numpy's array powers round differently.  As in float arithmetic,
    an overflowing product gives inf silently and a power OverflowError.
    """
    points = real_array(x, "x")
    if points.ndim not in (1, 2) or len(points) != p.m:
        raise ValueError(f"points have shape {points.shape}, expected ({p.m},) or ({p.m}, N)")
    columns = points.reshape(p.m, -1)
    total = np.zeros(columns.shape[1])
    with np.errstate(all="ignore"):
        for t in p.terms:
            product = np.full(total.size, t.coef)
            for values, e in zip(columns, t.exp):
                if e == 1:
                    product *= values
                elif e:
                    # One power at a time: no list of N floats.
                    product *= np.fromiter((v**e for v in memoryview(values)), float, total.size)
            total += product
    return float(total[0]) if points.ndim == 1 else total
