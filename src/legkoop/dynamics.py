"""Polynomial dynamical systems and the JSON problem configuration.

`parse_system_config` is strict: unknown top-level keys and ill-typed
fields raise `SchemaError` with the path of the offending field, while
semantic violations (initial state outside the domain, observable degree
above the basis order, ...) raise `ValidationError`.  A parsed spec
round-trips through `serialize_system_config` unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

from .basis import MAX_BASIS_SIZE, MAX_DIMENSION, MAX_ORDER
from .errors import SchemaError, ValidationError
from .polyalg import (
    Polynomial,
    affine_substitute,
    canonicalize,
    poly_scale,
    variable,
)

__all__ = [
    "MAX_POLY_DEGREE",
    "VectorField",
    "ObservableSet",
    "SystemSpec",
    "duffing_vector_field",
    "rescale_to_unit_box",
    "parse_system_config",
    "serialize_system_config",
]

MAX_POLY_DEGREE = 64


@dataclass(frozen=True)
class VectorField:
    """Right-hand side f of dx/dt = f(x), one polynomial per state."""

    m: int
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.components) != self.m:
            raise ValueError(
                f"{len(self.components)} components for dimension {self.m}"
            )
        for j, comp in enumerate(self.components):
            if comp.m != self.m:
                raise ValueError(f"component {j} has dimension {comp.m}, expected {self.m}")

    @property
    def max_degree(self) -> int:
        return max((comp.total_degree for comp in self.components), default=0)


@dataclass(frozen=True)
class ObservableSet:
    """Named scalar polynomial functions of the state."""

    names: tuple[str, ...]
    polys: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.names) != len(self.polys):
            raise ValueError("names and polynomials must pair up")
        if not self.names:
            raise ValueError("at least one observable is required")
        if len({p.m for p in self.polys}) > 1:
            raise ValueError("observables disagree on state dimension")

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def identity(cls, states: Sequence[str]) -> "ObservableSet":
        """One coordinate observable per state variable."""
        m = len(states)
        return cls(tuple(states), tuple(variable(m, k) for k in range(m)))


def duffing_vector_field(
    mass: float, stiffness: float, scale: float, epsilon: float
) -> VectorField:
    """Nonlinear spring-mass system dq/dt = p/M, dp/dt = -k q - k a^2 eps q^3.

    `scale` is the unit-transformation constant a; epsilon = 0 degenerates
    to the harmonic oscillator.
    """
    if mass == 0:
        raise ValueError("mass must be nonzero")
    dq = canonicalize([(1.0 / mass, (0, 1))], 2)
    dp = canonicalize(
        [(-stiffness, (1, 0)), (-stiffness * scale**2 * epsilon, (3, 0))], 2
    )
    return VectorField(2, (dq, dp))


def rescale_to_unit_box(
    vf: VectorField, center: Sequence[float], half_width: Sequence[float]
) -> VectorField:
    """Change coordinates to y = (x - center) / half_width.

    The returned field g satisfies dy/dt = g(y) whenever dx/dt = f(x):
    g_j(y) = f_j(center + half_width * y) / half_width_j.
    """
    widths = tuple(float(h) for h in half_width)
    components = []
    for j, comp in enumerate(vf.components):
        shifted = affine_substitute(comp, center, widths)
        components.append(poly_scale(shifted, 1.0 / widths[j]))
    return VectorField(vf.m, tuple(components))


@dataclass(frozen=True)
class SystemSpec:
    """A fully validated solver problem statement."""

    name: str
    states: tuple[str, ...]
    vf: VectorField
    domain_center: tuple[float, ...]
    domain_half_width: tuple[float, ...]
    initial_state: tuple[float, ...]
    order: int
    t_final: float
    num_steps: int
    observables: Union[ObservableSet, str] = "identity"

    def __post_init__(self):
        m = len(self.states)
        if not 1 <= m <= MAX_DIMENSION:
            raise ValidationError(f"states: dimension {m} outside 1..{MAX_DIMENSION}")
        if len(set(self.states)) != m:
            raise ValidationError("states: names must be unique")
        if self.vf.m != m:
            raise ValidationError(f"dynamics: dimension {self.vf.m}, expected {m}")
        for field in ("domain_center", "domain_half_width", "initial_state"):
            if len(getattr(self, field)) != m:
                raise ValidationError(f"{field}: expected length {m}")
        if any(not h > 0 for h in self.domain_half_width):
            raise ValidationError("domain.half_width: entries must be positive")
        if not 0 <= self.order <= MAX_ORDER:
            raise ValidationError(f"order: {self.order} outside 0..{MAX_ORDER}")
        n = math.comb(self.order + m, m)
        if n > MAX_BASIS_SIZE:
            raise ValidationError(
                f"order: {self.order} in {m} variables gives basis size {n} > {MAX_BASIS_SIZE}"
            )
        if self.vf.max_degree > MAX_POLY_DEGREE:
            raise ValidationError(
                f"dynamics: degree {self.vf.max_degree} exceeds {MAX_POLY_DEGREE}"
            )
        if not self.t_final > 0:
            raise ValidationError("t_final: must be positive")
        if self.num_steps < 2:
            raise ValidationError("num_steps: need at least 2 grid points")
        for x, c, h in zip(self.initial_state, self.domain_center, self.domain_half_width):
            if abs(x - c) > h:
                raise ValidationError(
                    f"initial_state: {tuple(self.initial_state)} outside the domain box"
                )
        if isinstance(self.observables, str):
            if self.observables != "identity":
                raise ValidationError(f"observables: unknown marker {self.observables!r}")
            if self.order < 1:
                raise ValidationError(
                    "observables: identity observables have degree 1 > order 0"
                )
        else:
            names = self.observables.names
            for name in names:
                if names.count(name) > 1:
                    raise ValidationError(f"observables: name {name!r} is used more than once")
            for name, poly in zip(names, self.observables.polys):
                if poly.m != m:
                    raise ValidationError(f"observables.{name}: dimension {poly.m} != {m}")
                if poly.total_degree > self.order:
                    raise ValidationError(
                        f"observables.{name}: degree {poly.total_degree} "
                        f"exceeds order {self.order}"
                    )

    def observable_set(self) -> ObservableSet:
        """The observables to track, with "identity" resolved to coordinates."""
        if isinstance(self.observables, ObservableSet):
            return self.observables
        return ObservableSet.identity(self.states)


_TOP_LEVEL_KEYS = {
    "name",
    "states",
    "dynamics",
    "domain",
    "initial_state",
    "order",
    "t_final",
    "num_steps",
    "observables",
}


def _require(doc: dict, key: str, path: str = ""):
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise SchemaError(where, "missing required field")
    return doc[key], where


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected string, got {type(value).__name__}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected integer, got {type(value).__name__}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise SchemaError(path, "must be finite")
    return float(value)


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {type(value).__name__}")
    return value


def _number_vector(value, path: str) -> tuple[float, ...]:
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path)))


def _parse_polynomial(obj, path: str, m: int) -> Polynomial:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    unknown = set(obj) - {"terms"}
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    raw_terms, terms_path = _require(obj, "terms", path)
    pairs = []
    for t, term in enumerate(_as_list(raw_terms, terms_path)):
        term_path = f"{terms_path}[{t}]"
        if not isinstance(term, dict):
            raise SchemaError(term_path, f"expected object, got {type(term).__name__}")
        unknown = set(term) - {"coef", "exp"}
        if unknown:
            raise SchemaError(f"{term_path}.{sorted(unknown)[0]}", "unknown key")
        raw_coef, coef_path = _require(term, "coef", term_path)
        coef = _as_number(raw_coef, coef_path)
        raw_exp, exp_path = _require(term, "exp", term_path)
        exp = _as_list(raw_exp, exp_path)
        if len(exp) != m:
            raise SchemaError(exp_path, f"expected {m} exponents, got {len(exp)}")
        exps = []
        for k, e in enumerate(exp):
            e = _as_int(e, f"{exp_path}[{k}]")
            if e < 0:
                raise SchemaError(f"{exp_path}[{k}]", "exponents must be >= 0")
            exps.append(e)
        pairs.append((coef, tuple(exps)))
    return canonicalize(pairs, m)


def parse_system_config(text: str) -> SystemSpec:
    """Parse and validate a JSON system description."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown key")

    name = _as_str(*_require(doc, "name"))
    raw_states, states_path = _require(doc, "states")
    states = tuple(
        _as_str(s, f"{states_path}[{i}]") for i, s in enumerate(_as_list(raw_states, states_path))
    )
    if not states:
        raise SchemaError(states_path, "need at least one state")
    m = len(states)

    raw_dynamics, dyn_path = _require(doc, "dynamics")
    raw_dynamics = _as_list(raw_dynamics, dyn_path)
    if len(raw_dynamics) != m:
        raise SchemaError(dyn_path, f"expected {m} components, got {len(raw_dynamics)}")
    components = tuple(
        _parse_polynomial(comp, f"{dyn_path}[{j}]", m) for j, comp in enumerate(raw_dynamics)
    )

    center = (0.0,) * m
    half_width = (1.0,) * m
    if "domain" in doc:
        domain = doc["domain"]
        if not isinstance(domain, dict):
            raise SchemaError("domain", f"expected object, got {type(domain).__name__}")
        unknown = set(domain) - {"center", "half_width"}
        if unknown:
            raise SchemaError(f"domain.{sorted(unknown)[0]}", "unknown key")
        if "center" in domain:
            center = _number_vector(domain["center"], "domain.center")
        if "half_width" in domain:
            half_width = _number_vector(domain["half_width"], "domain.half_width")

    initial_state = _number_vector(*_require(doc, "initial_state"))
    order = _as_int(*_require(doc, "order"))
    t_final = _as_number(*_require(doc, "t_final"))
    num_steps = _as_int(doc["num_steps"], "num_steps") if "num_steps" in doc else 100

    observables: Union[ObservableSet, str] = "identity"
    if "observables" in doc:
        raw_obs = doc["observables"]
        if isinstance(raw_obs, str):
            if raw_obs != "identity":
                raise SchemaError("observables", f"expected \"identity\" or array, got {raw_obs!r}")
        else:
            entries = _as_list(raw_obs, "observables")
            if not entries:
                raise SchemaError("observables", "need at least one observable")
            names, polys = [], []
            for i, entry in enumerate(entries):
                entry_path = f"observables[{i}]"
                if not isinstance(entry, dict):
                    raise SchemaError(entry_path, f"expected object, got {type(entry).__name__}")
                unknown = set(entry) - {"name", "terms"}
                if unknown:
                    raise SchemaError(f"{entry_path}.{sorted(unknown)[0]}", "unknown key")
                names.append(_as_str(*_require(entry, "name", entry_path)))
                raw_terms, _ = _require(entry, "terms", entry_path)
                polys.append(_parse_polynomial({"terms": raw_terms}, entry_path, m))
            observables = ObservableSet(tuple(names), tuple(polys))

    try:
        vf = VectorField(m, components)
    except ValueError as exc:
        raise ValidationError(f"dynamics: {exc}") from None
    return SystemSpec(
        name=name,
        states=states,
        vf=vf,
        domain_center=center,
        domain_half_width=half_width,
        initial_state=initial_state,
        order=order,
        t_final=t_final,
        num_steps=num_steps,
        observables=observables,
    )


def serialize_system_config(spec: SystemSpec) -> str:
    """Canonical JSON rendering; `parse_system_config` round-trips it."""

    def poly_terms(p: Polynomial) -> list:
        return [{"coef": t.coef, "exp": list(t.exp)} for t in p.terms]

    if isinstance(spec.observables, str):
        observables = spec.observables
    else:
        observables = [
            {"name": name, "terms": poly_terms(poly)}
            for name, poly in zip(spec.observables.names, spec.observables.polys)
        ]
    doc = {
        "name": spec.name,
        "states": list(spec.states),
        "dynamics": [{"terms": poly_terms(comp)} for comp in spec.vf.components],
        "domain": {
            "center": list(spec.domain_center),
            "half_width": list(spec.domain_half_width),
        },
        "initial_state": list(spec.initial_state),
        "order": spec.order,
        "t_final": spec.t_final,
        "num_steps": spec.num_steps,
        "observables": observables,
    }
    return json.dumps(doc, indent=2) + "\n"
