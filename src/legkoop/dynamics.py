"""Polynomial dynamical systems and the JSON problem configuration.

`parse_system_config` is strict: unknown top-level keys and ill-typed
fields raise `SchemaError` with the path of the offending field, while
semantic violations (initial state outside the domain, observable degree
above the basis order, ...) raise `ValidationError`.  Missing or
`"identity"` observables resolve to the state coordinates when parsed.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .basis import MAX_BASIS_SIZE, MAX_DIMENSION, MAX_ORDER
from .errors import SchemaError, ValidationError
from .polyalg import Polynomial, canonicalize, variable

__all__ = [
    "MAX_POLY_DEGREE",
    "MAX_NUM_STEPS",
    "MAX_OUTPUT_VALUES",
    "MAX_NAME_BYTES",
    "VectorField",
    "ObservableSet",
    "SystemSpec",
    "duffing_vector_field",
    "parse_system_config",
]

MAX_POLY_DEGREE = 64
# Most output times a solve may ask for.  Output streams in blocks, so this
# bounds time and CSV bytes, not memory: at the cap desk Duffing at order 3
# solves in 0.7 s with 41 MiB peak RSS and writes a 58 MB CSV.  On the
# largest basis (n = 1820, 1807 modes reached, 911 distinct exponents)
# propagation takes about 0.2 s per 1e5 times; the whole solve takes about
# 3.5 s, with 138 MiB peak RSS (the eigen layer's), at the 5e5 times
# MAX_OUTPUT_VALUES allows its four states (2-vCPU VM, one BLAS thread,
# Python 3.11, numpy 2.4).
MAX_NUM_STEPS = 10**6
# Most values a solve may propagate: num_steps times one row per observable
# plus one per state (the box-exit check), so identity observables on a 2-D
# system fit at MAX_NUM_STEPS.  It too bounds time and CSV bytes: desk Duffing
# at order 8 with 45 observables took 1.6 s and 41 MiB and wrote an 81 MB CSV
# at the 85 106 times it allows.
MAX_OUTPUT_VALUES = 4 * 10**6
# The longest file name a solve writes is "<name>_trajectory.csv.tmp", and
# most file systems (ext4, XFS, btrfs, APFS) take at most 255 bytes in a name.
MAX_NAME_BYTES = 255 - len("_trajectory.csv.tmp")


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

    def csv_header(self, reference: bool) -> list[str]:
        """A trajectory CSV's header cells: `t`, each name and, with a
        reference, each `<name>_ref`, then each `<name>_err`."""
        suffixes = ("_ref", "_err") if reference else ()
        return ["t", *self.names, *(name + end for end in suffixes for name in self.names)]

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


def _unit_box_bound(p: Polynomial, center: Sequence[float], half_width: Sequence[float]) -> float:
    # sum over terms of |coef| prod_a (|c_a| + h_a)^e_a, multiplied in axis
    # order: it bounds every coefficient of p in y = (x - c) / h, whose
    # binomial weights on axis a sum to (|c_a| + h_a)^e_a.  inf or nan where
    # it leaves the float range.
    total = 0.0
    for t in p.terms:
        value = abs(t.coef)
        for c, h, e in zip(center, half_width, t.exp):
            if e:
                try:
                    value *= (abs(c) + h) ** e
                except OverflowError:
                    return math.inf
        total += value
    return total


def _utf8(path: str, name: str) -> bytes:
    # Names are written as UTF-8, which has no form for a lone surrogate
    # (JSON "\ud800"): refused here, before any work or output.
    try:
        return name.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(
            f"{path}: {name!r} is not valid UTF-8 text: it holds a lone surrogate"
        ) from None


def _check_csv_names(path: str, names: Sequence[str]) -> None:
    # Each name is written raw as one cell of a CSV header, whose cells must differ.
    seen = set()
    for name in names:
        _utf8(path, name)
        if not name or any(ch in name for ch in ',"\r\n'):
            raise ValidationError(
                f"{path}: name {name!r} must be nonempty and contain no comma, "
                "double quote or line break"
            )
        if name in seen:
            raise ValidationError(f"{path}: name {name!r} is used more than once")
        seen.add(name)


@dataclass(frozen=True)
class SystemSpec:
    """A fully validated solver problem statement.

    The field, the observables and the initial state are in the config's
    coordinates x.  The solver works on the unit box in y = (x - center) /
    half_width, and the basis does that change of variables
    (`legkoop.basis.build_basis`).  A field component or observable whose
    coefficients in y could leave the float range is refused here: its sum
    of |coef| prod_a (|center_a| + half_width_a)^e_a, divided by
    half_width_j for field component j, must be finite.
    """

    name: str
    states: tuple[str, ...]
    vf: VectorField
    domain_center: tuple[float, ...]
    domain_half_width: tuple[float, ...]
    initial_state: tuple[float, ...]
    order: int
    t_final: float
    num_steps: int
    observables: ObservableSet

    def __post_init__(self):
        # The name makes the output file names inside --out-dir.
        if self.name in ("", ".", "..") or "/" in self.name or "\0" in self.name:
            raise ValidationError(
                f"name: {self.name!r} is not a file name: it must not be empty, "
                "'.' or '..', or contain '/' or NUL"
            )
        size = len(_utf8("name", self.name))
        if size > MAX_NAME_BYTES:
            raise ValidationError(
                f"name: {size} bytes in UTF-8 exceed the limit of {MAX_NAME_BYTES}, so that "
                "the output file name '<name>_trajectory.csv.tmp' fits in 255 bytes"
            )
        m = len(self.states)
        if not 1 <= m <= MAX_DIMENSION:
            raise ValidationError(f"states: dimension {m} outside 1..{MAX_DIMENSION}")
        _check_csv_names("states", self.states)
        if self.vf.m != m:
            raise ValidationError(f"dynamics: dimension {self.vf.m}, expected {m}")
        for field in ("domain_center", "domain_half_width", "initial_state"):
            if len(getattr(self, field)) != m:
                raise ValidationError(f"{field}: expected length {m}")
        if any(not h > 0 for h in self.domain_half_width):
            raise ValidationError("domain.half_width: entries must be positive")
        self._check_order()
        if self.vf.max_degree > MAX_POLY_DEGREE:
            raise ValidationError(
                f"dynamics: degree {self.vf.max_degree} exceeds {MAX_POLY_DEGREE}"
            )
        if not self.t_final > 0:
            raise ValidationError("t_final: must be positive")
        if self.num_steps < 2:
            raise ValidationError("num_steps: need at least 2 grid points")
        if self.num_steps > MAX_NUM_STEPS:
            raise ValidationError(
                f"num_steps: {self.num_steps} output times exceed the limit of {MAX_NUM_STEPS}"
            )
        rows = len(self.observables) + m
        if self.num_steps * rows > MAX_OUTPUT_VALUES:
            raise ValidationError(
                f"num_steps: {self.num_steps} output times x {rows} rows "
                f"({len(self.observables)} observables + {m} states) exceed the limit "
                f"of {MAX_OUTPUT_VALUES} values; lower num_steps or drop observables"
            )
        # A subnormal spacing leaves the grid uneven, or not increasing at all.
        if self.t_final / (self.num_steps - 1) < sys.float_info.min:
            raise ValidationError(
                f"t_final: {self.t_final!r} over {self.num_steps - 1} intervals gives a "
                f"time step below the smallest normal float {sys.float_info.min:.3e}"
            )
        for x, c, h in zip(self.initial_state, self.domain_center, self.domain_half_width):
            if abs(x - c) > h:
                raise ValidationError(
                    f"initial_state: {tuple(self.initial_state)} outside the domain box"
                )
        names, polys = self.observables.names, self.observables.polys
        # The header with a reference, so that every command refuses the same names.
        _check_csv_names("observables", self.observables.csv_header(reference=True))
        for name, poly in zip(names, polys):
            if poly.m != m:
                raise ValidationError(f"observables.{name}: dimension {poly.m} != {m}")
        self._check_observable_degrees()
        # Field component j's coefficients in y are divided by half_width[j].
        center, half_width = self.domain_center, self.domain_half_width
        scaled = itertools.chain(
            zip(self.vf.components, half_width), zip(polys, itertools.repeat(1.0))
        )
        for k, (poly, width) in enumerate(scaled):
            if not math.isfinite(_unit_box_bound(poly, center, half_width) / width):
                path = f"dynamics[{k}]" if k < m else f"observables.{names[k - m]}"
                raise ValidationError(
                    f"domain: rescaling to the unit box fails: {path} reaches coefficients "
                    "beyond the float range"
                )

    def _check_order(self) -> None:
        m = len(self.states)
        if not 0 <= self.order <= MAX_ORDER:
            raise ValidationError(f"order: {self.order} outside 0..{MAX_ORDER}")
        n = math.comb(self.order + m, m)
        if n > MAX_BASIS_SIZE:
            raise ValidationError(
                f"order: {self.order} in {m} variables gives basis size {n} > {MAX_BASIS_SIZE}"
            )

    def _check_observable_degrees(self) -> None:
        for name, poly in zip(self.observables.names, self.observables.polys):
            if poly.total_degree > self.order:
                raise ValidationError(
                    f"observables.{name}: degree {poly.total_degree} "
                    f"exceeds order {self.order}"
                )

    def with_order(self, order: int) -> "SystemSpec":
        """`dataclasses.replace(self, order=order)`, field for field, or the
        ValidationError it raises.  Only the checks that read the order run
        again (its range, the basis size, each observable's degree); the
        names and the unit-box bound are not checked again."""
        spec = copy.copy(self)
        object.__setattr__(spec, "order", order)
        spec._check_order()
        spec._check_observable_degrees()
        return spec


_TOP_LEVEL_KEYS = {
    "name", "states", "dynamics", "domain", "initial_state", "order", "t_final", "num_steps",
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
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an integer beyond floats
        raise SchemaError(path, "must be finite")
    return float(value)


def _as_object(value, path: str, keys: set) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected object, got {type(value).__name__}")
    unknown = set(value) - keys
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {type(value).__name__}")
    return value


def _number_vector(value, path: str) -> tuple[float, ...]:
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path)))


def _parse_terms(raw_terms, terms_path: str, m: int) -> Polynomial:
    pairs = []
    for t, term in enumerate(_as_list(raw_terms, terms_path)):
        term_path = f"{terms_path}[{t}]"
        term = _as_object(term, term_path, {"coef", "exp"})
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
    try:
        return canonicalize(pairs, m)
    except ValueError as exc:  # like terms summed past the float range
        raise ValidationError(f"{terms_path}: {exc}") from None


def parse_system_config(text: str) -> SystemSpec:
    """Parse and validate a JSON system description."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown key")

    name = _as_str(*_require(doc, "name"))
    raw_states = _as_list(*_require(doc, "states"))
    states = tuple(_as_str(s, f"states[{i}]") for i, s in enumerate(raw_states))
    if not states:
        raise SchemaError("states", "need at least one state")
    m = len(states)

    raw_dynamics = _as_list(*_require(doc, "dynamics"))
    if len(raw_dynamics) != m:
        raise SchemaError("dynamics", f"expected {m} components, got {len(raw_dynamics)}")
    components = []
    for j, comp in enumerate(raw_dynamics):
        comp_path = f"dynamics[{j}]"
        comp = _as_object(comp, comp_path, {"terms"})
        components.append(_parse_terms(*_require(comp, "terms", comp_path), m))

    domain = _as_object(doc.get("domain", {}), "domain", {"center", "half_width"})
    center = _number_vector(domain.get("center", [0.0] * m), "domain.center")
    half_width = _number_vector(domain.get("half_width", [1.0] * m), "domain.half_width")

    initial_state = _number_vector(*_require(doc, "initial_state"))
    order = _as_int(*_require(doc, "order"))
    t_final = _as_number(*_require(doc, "t_final"))
    num_steps = _as_int(doc.get("num_steps", 100), "num_steps")

    raw_obs = doc.get("observables", "identity")
    if raw_obs == "identity":
        observables = ObservableSet.identity(states)
    elif isinstance(raw_obs, str):
        raise SchemaError("observables", f"expected \"identity\" or array, got {raw_obs!r}")
    else:
        entries = _as_list(raw_obs, "observables")
        if not entries:
            raise SchemaError("observables", "need at least one observable")
        names, polys = [], []
        for i, entry in enumerate(entries):
            entry_path = f"observables[{i}]"
            entry = _as_object(entry, entry_path, {"name", "terms"})
            names.append(_as_str(*_require(entry, "name", entry_path)))
            polys.append(_parse_terms(*_require(entry, "terms", entry_path), m))
        observables = ObservableSet(tuple(names), tuple(polys))

    return SystemSpec(
        name=name,
        states=states,
        vf=VectorField(m, tuple(components)),
        domain_center=center,
        domain_half_width=half_width,
        initial_state=initial_state,
        order=order,
        t_final=t_final,
        num_steps=num_steps,
        observables=observables,
    )

