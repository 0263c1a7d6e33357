"""System definitions, JSON config parsing, and domain rescaling."""

import dataclasses
import json
import time

import numpy as np
import pytest

from legkoop.basis import MAX_BASIS_SIZE, MAX_ORDER, build_basis, evaluate_basis
from legkoop.dynamics import (
    MAX_NUM_STEPS,
    MAX_OUTPUT_VALUES,
    ObservableSet,
    SystemSpec,
    VectorField,
    duffing_vector_field,
    parse_system_config,
)
from legkoop.errors import SchemaError, ValidationError
from legkoop.koopman import assemble_koopman
from legkoop.polyalg import canonicalize, variable

DUFFING_CONFIG = {
    "name": "duffing",
    "states": ["q", "p"],
    "dynamics": [
        {"terms": [{"coef": 1.0, "exp": [0, 1]}]},
        {"terms": [{"coef": -1.0, "exp": [1, 0]}, {"coef": -0.001, "exp": [3, 0]}]},
    ],
    "domain": {"center": [0.0, 0.0], "half_width": [1.0, 1.0]},
    "initial_state": [1.0, 0.0],
    "order": 3,
    "t_final": 10.0,
    "num_steps": 100,
    "observables": "identity",
}


def config(**overrides):
    doc = json.loads(json.dumps(DUFFING_CONFIG))
    doc.update(overrides)
    return json.dumps(doc)


def as_dict(p):
    return {t.exp: t.coef for t in p.terms}


# ---------------------------------------------------------------------------
# built-in system

def test_duffing_term_encoding():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
    assert as_dict(vf.components[0]) == {(0, 1): 1.0}
    assert as_dict(vf.components[1]) == {(1, 0): -1.0, (3, 0): -0.001}


def test_duffing_harmonic_degenerate_case():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    assert as_dict(vf.components[0]) == {(0, 1): 1.0}
    assert as_dict(vf.components[1]) == {(1, 0): -1.0}
    assert vf.max_degree == 1


def test_duffing_mass_scaling_and_degree():
    vf = duffing_vector_field(2.0, 1.0, 1.0, 0.0)
    assert as_dict(vf.components[0]) == {(0, 1): 0.5}
    assert duffing_vector_field(1.0, 1.0, 1.0, 0.5).max_degree == 3


def test_duffing_zero_mass_rejected():
    with pytest.raises(ValueError):
        duffing_vector_field(0.0, 1.0, 1.0, 0.0)


def test_vector_field_dimension_checks():
    with pytest.raises(ValueError):
        VectorField(2, (variable(2, 0),))
    with pytest.raises(ValueError):
        VectorField(2, (variable(2, 0), variable(3, 0)))


# ---------------------------------------------------------------------------
# rescaling: the basis carries the box, and assembly changes variables to
# y = (x - center) / half_width, where g_j(y) = f_j(center + half_width y) / half_width_j

def test_rescale_identity_box_is_noop():
    # The config's explicit unit box is the default box, and a point of it
    # is its own y.
    spec = parse_system_config(config())
    basis = build_basis(3, 2, spec.domain_center, spec.domain_half_width)
    unit = build_basis(3, 2)
    assert (basis.center, basis.half_width) == (unit.center, unit.half_width)
    assert assemble_koopman(basis, spec.vf).tobytes() == assemble_koopman(unit, spec.vf).tobytes()
    x = (0.3, -0.7)
    assert evaluate_basis(basis, x).tobytes() == evaluate_basis(unit, x).tobytes()


def test_rescale_symmetric_linear_system_cancels():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    K = assemble_koopman(build_basis(3, 2, (0.0, 0.0), (2.0, 2.0)), vf)
    np.testing.assert_allclose(K, assemble_koopman(build_basis(3, 2), vf), rtol=0, atol=1e-14)


def test_rescale_cubic_term_picks_up_width_ratio():
    # f = (p, -q^3) with widths (2, 1): g = (p / 2, -(2 q)^3) = (0.5 p, -8 q^3).
    f = VectorField(2, (canonicalize([(1.0, (0, 1))], 2), canonicalize([(-1.0, (3, 0))], 2)))
    g = VectorField(2, (canonicalize([(0.5, (0, 1))], 2), canonicalize([(-8.0, (3, 0))], 2)))
    K = assemble_koopman(build_basis(3, 2, (0.0, 0.0), (2.0, 1.0)), f)
    np.testing.assert_allclose(K, assemble_koopman(build_basis(3, 2), g), rtol=0, atol=1e-13)


def test_rescale_rejects_bad_half_width():
    with pytest.raises(ValueError, match="must be positive"):
        build_basis(3, 2, (0.0, 0.0), (1.0, 0.0))


def test_rescale_round_trip_at_random_points():
    # The basis on the box at x = center + half_width y is the unit basis at y.
    rng = np.random.default_rng(5)
    center, half_width = (0.3, -0.2), (1.5, 2.5)
    basis, unit = build_basis(4, 2, center, half_width), build_basis(4, 2)
    for _ in range(50):
        y = rng.uniform(-1.0, 1.0, size=2)
        x = np.array(center) + np.array(half_width) * y
        np.testing.assert_allclose(evaluate_basis(basis, x), evaluate_basis(unit, y), atol=1e-12)


# ---------------------------------------------------------------------------
# config parsing

def test_parse_full_duffing_config():
    spec = parse_system_config(config())
    assert spec.name == "duffing"
    assert spec.states == ("q", "p")
    assert as_dict(spec.vf.components[1]) == {(1, 0): -1.0, (3, 0): -0.001}
    assert spec.initial_state == (1.0, 0.0)
    assert spec.order == 3
    assert spec.t_final == 10.0
    assert spec.num_steps == 100
    assert spec.observables == ObservableSet.identity(("q", "p"))


def test_parse_applies_defaults():
    doc = json.loads(config())
    del doc["domain"], doc["num_steps"], doc["observables"]
    spec = parse_system_config(json.dumps(doc))
    assert spec.domain_center == (0.0, 0.0)
    assert spec.domain_half_width == (1.0, 1.0)
    assert spec.num_steps == 100
    assert spec.observables == ObservableSet.identity(("q", "p"))


def test_parse_explicit_observables():
    doc = json.loads(config())
    doc["observables"] = [
        {"name": "energy", "terms": [{"coef": 0.5, "exp": [2, 0]}, {"coef": 0.5, "exp": [0, 2]}]}
    ]
    spec = parse_system_config(json.dumps(doc))
    obs = spec.observables
    assert obs.names == ("energy",)
    assert as_dict(obs.polys[0]) == {(2, 0): 0.5, (0, 2): 0.5}


def test_parse_rejects_invalid_json():
    with pytest.raises(SchemaError):
        parse_system_config("{not json")


def test_parse_missing_dynamics_names_path():
    doc = json.loads(config())
    del doc["dynamics"]
    with pytest.raises(SchemaError) as err:
        parse_system_config(json.dumps(doc))
    assert err.value.path == "dynamics"


def test_parse_unknown_top_level_key():
    with pytest.raises(SchemaError) as err:
        parse_system_config(config(extra=1))
    assert err.value.path == "extra"


def test_parse_ill_typed_fields_name_paths():
    cases = [
        (config(name=3), "name"),
        (config(order="three"), "order"),
        (config(order=True), "order"),
        (config(t_final="soon"), "t_final"),
        (config(t_final=10**400), "t_final"),
        (config(initial_state=[1.0, "x"]), "initial_state[1]"),
        (config(states="qp"), "states"),
    ]
    for text, path in cases:
        with pytest.raises(SchemaError) as err:
            parse_system_config(text)
        assert err.value.path == path


def test_parse_term_level_paths():
    doc = json.loads(config())
    doc["dynamics"][1]["terms"][0] = {"coef": -1.0, "exp": [1]}
    with pytest.raises(SchemaError) as err:
        parse_system_config(json.dumps(doc))
    assert err.value.path == "dynamics[1].terms[0].exp"

    doc = json.loads(config())
    doc["dynamics"][0]["terms"][0]["exp"] = [0, -1]
    with pytest.raises(SchemaError) as err:
        parse_system_config(json.dumps(doc))
    assert err.value.path == "dynamics[0].terms[0].exp[1]"

    doc = json.loads(config())
    doc["dynamics"][0]["spurious"] = 1
    with pytest.raises(SchemaError) as err:
        parse_system_config(json.dumps(doc))
    assert err.value.path == "dynamics[0].spurious"


def test_parse_wrong_component_count():
    doc = json.loads(config())
    doc["dynamics"] = doc["dynamics"][:1]
    with pytest.raises(SchemaError) as err:
        parse_system_config(json.dumps(doc))
    assert err.value.path == "dynamics"


def test_parse_initial_state_outside_box():
    with pytest.raises(ValidationError):
        parse_system_config(config(initial_state=[2.0, 0.0]))


def test_parse_boundary_initial_state_allowed():
    spec = parse_system_config(config(initial_state=[1.0, -1.0]))
    assert spec.initial_state == (1.0, -1.0)


def test_parse_identity_observables_need_order_one():
    with pytest.raises(ValidationError, match="observables.q: degree 1 exceeds order 0"):
        parse_system_config(config(order=0))


def test_parse_observable_degree_above_order():
    doc = json.loads(config())
    doc["observables"] = [
        {"name": "q4", "terms": [{"coef": 1.0, "exp": [4, 0]}]}
    ]
    with pytest.raises(ValidationError):
        parse_system_config(json.dumps(doc))


def test_parse_validation_errors():
    with pytest.raises(ValidationError):
        parse_system_config(config(t_final=-1.0))
    with pytest.raises(ValidationError):
        parse_system_config(config(num_steps=1))
    with pytest.raises(ValidationError):
        parse_system_config(config(order=13))
    with pytest.raises(ValidationError):
        parse_system_config(config(states=["q", "q"]))
    with pytest.raises(ValidationError):
        parse_system_config(
            config(domain={"center": [0.0, 0.0], "half_width": [1.0, -1.0]})
        )


def test_num_steps_is_capped():
    assert parse_system_config(config(num_steps=MAX_NUM_STEPS)).num_steps == MAX_NUM_STEPS
    with pytest.raises(ValidationError, match=r"^num_steps: .* limit of 1000000$"):
        parse_system_config(config(num_steps=MAX_NUM_STEPS + 1))


def _observables(count):
    # q^a p^b for the first `count` exponent pairs of degree <= 3.
    pairs = [(a, d - a) for d in range(4) for a in range(d + 1)][:count]
    return [
        {"name": f"g{a}{b}", "terms": [{"coef": 1.0, "exp": [a, b]}]} for a, b in pairs
    ]


def test_output_values_are_budgeted():
    # Three observables plus the two state rows: five values per time.
    at_budget = MAX_OUTPUT_VALUES // 5
    spec = parse_system_config(config(observables=_observables(3), num_steps=at_budget))
    assert spec.num_steps * (len(spec.observables) + 2) == MAX_OUTPUT_VALUES
    with pytest.raises(
        ValidationError, match=r"^num_steps: 800001 output times x 5 rows .* limit of 4000000 "
    ):
        parse_system_config(config(observables=_observables(3), num_steps=at_budget + 1))


def test_num_steps_cap_is_checked_before_the_output_budget():
    with pytest.raises(ValidationError, match=r"^num_steps: .* limit of 1000000$"):
        parse_system_config(config(observables=_observables(10), num_steps=MAX_NUM_STEPS + 1))


@pytest.mark.parametrize("name", ["..a", "a.b", "dotted.name.", " spaced "])
def test_parse_accepts_dots_and_spaces_in_the_name(name):
    assert parse_system_config(config(name=name)).name == name


def test_spec_constructor_validates_directly():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        SystemSpec(
            name="bad",
            states=("q", "p"),
            vf=vf,
            domain_center=(0.0, 0.0),
            domain_half_width=(1.0, 1.0),
            initial_state=(0.0, 0.0),
            order=3,
            t_final=10.0,
            num_steps=1,
            observables=ObservableSet.identity(("q", "p")),
        )


def test_many_observable_names_validate_in_linear_time():
    # Each name is checked once, against a set of the names before it.
    names = tuple(f"g{i}" for i in range(30_000))
    observables = ObservableSet(names, tuple(variable(2, i % 2) for i in range(len(names))))
    started = time.perf_counter()
    spec = SystemSpec(
        name="many",
        states=("q", "p"),
        vf=duffing_vector_field(1.0, 1.0, 1.0, 0.001),
        domain_center=(0.0, 0.0),
        domain_half_width=(1.0, 1.0),
        initial_state=(1.0, 0.0),
        order=3,
        t_final=1.0,
        num_steps=2,
        observables=observables,
    )
    assert time.perf_counter() - started < 5.0
    assert spec.observables.names == names


def test_a_repeated_state_name_is_named():
    with pytest.raises(ValidationError, match=r"^states: name 'q' is used more than once$"):
        parse_system_config(config(states=["p", "q", "q"], initial_state=[0.0, 0.0, 0.0],
                                   dynamics=[{"terms": []}] * 3,
                                   domain={"center": [0.0] * 3, "half_width": [1.0] * 3}))


def test_identity_observables_resolve_to_coordinates():
    spec = parse_system_config(config())
    obs = spec.observables
    assert obs.names == ("q", "p")
    assert as_dict(obs.polys[0]) == {(1, 0): 1.0}
    assert as_dict(obs.polys[1]) == {(0, 1): 1.0}


def test_observable_pairing_checks():
    with pytest.raises(ValueError):
        ObservableSet(("a", "b"), (variable(2, 0),))
    with pytest.raises(ValueError):
        ObservableSet((), ())



def _order_outcome(derive, order):
    # The spec's fields, or the message of the error refusing it.
    try:
        spec = derive(order)
    except (SchemaError, ValidationError) as exc:
        return str(exc)
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(SystemSpec)}


@pytest.mark.parametrize(
    "doc",
    [
        # Duffing on a shifted box, so the rescale changes every coefficient.
        json.loads(config(domain={"center": [0.1, -0.2], "half_width": [2.0, 1.5]})),
        # A degree-3 observable: orders 0..2 are refused.
        json.loads(config(observables=[
            {"name": "q3", "terms": [{"coef": 1.0, "exp": [3, 0]}]},
            {"name": "p", "terms": [{"coef": 2.0, "exp": [0, 1]}]},
        ])),
        # m = 6: from order 8 on the basis exceeds MAX_BASIS_SIZE.
        {
            "name": "six",
            "states": [f"x{k}" for k in range(6)],
            "dynamics": [
                {"terms": [{"coef": -1.0, "exp": [int(j == k) for j in range(6)]}]}
                for k in range(6)
            ],
            "initial_state": [0.1] * 6,
            "order": 2,
            "t_final": 1.0,
            "num_steps": 10,
        },
    ],
)
def test_replacing_the_order_equals_parsing_the_config_at_that_order(doc):
    # A sweep derives each order's spec with dataclasses.replace; it must be
    # the spec, or the refusal, that solve gets from that order's config.
    spec = parse_system_config(json.dumps(doc))

    def replaced(order):
        return dataclasses.replace(spec, order=order)

    def parsed(order):
        return parse_system_config(json.dumps({**doc, "order": order}))

    refused = set()
    for order in range(-1, MAX_ORDER + 2):
        expected = _order_outcome(parsed, order)
        assert _order_outcome(replaced, order) == expected, order
        if isinstance(expected, str):
            refused.add(expected.split(" ", 1)[0])
        else:
            assert expected["order"] == order
    assert "order:" in refused
    if doc["name"] == "six":
        assert any(
            _order_outcome(replaced, c).endswith(f"> {MAX_BASIS_SIZE}")
            for c in range(8, MAX_ORDER + 1)
        )
    if isinstance(doc.get("observables"), list):
        assert "observables.q3:" in refused


def test_a_field_component_is_bounded_after_division_by_its_half_width():
    # In y, dp/dt = 1e308 q on half widths (1, 0.5) becomes 2e308 y0: beyond
    # the float range.  The same polynomial as an observable stays 1e308 y0.
    box = {"center": [0.0, 0.0], "half_width": [1.0, 0.5]}
    dynamics = [{"terms": [{"coef": 1.0, "exp": [0, 1]}]},
                {"terms": [{"coef": 1e308, "exp": [1, 0]}]}]
    with pytest.raises(ValidationError, match=(
        r"^domain: rescaling to the unit box fails: dynamics\[1\] reaches coefficients "
        "beyond the float range$"
    )):
        parse_system_config(config(dynamics=dynamics, domain=box, initial_state=[0.0, 0.0]))
    observables = [{"name": "g", "terms": [{"coef": 1e308, "exp": [1, 0]}]}]
    spec = parse_system_config(
        config(domain=box, initial_state=[0.0, 0.0], observables=observables)
    )
    assert spec.observables.names == ("g",)
