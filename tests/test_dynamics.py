"""System definitions, JSON config parsing, and domain rescaling."""

import json

import numpy as np
import pytest

from legkoop.dynamics import (
    MAX_NUM_STEPS,
    MAX_OUTPUT_VALUES,
    ObservableSet,
    SystemSpec,
    VectorField,
    duffing_vector_field,
    parse_system_config,
    rescale_to_unit_box,
)
from legkoop.errors import SchemaError, ValidationError
from legkoop.polyalg import canonicalize, evaluate, variable

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
# rescaling

def test_rescale_identity_box_is_noop():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.001)
    g = rescale_to_unit_box(vf, (0.0, 0.0), (1.0, 1.0))
    assert g.components == vf.components


def test_rescale_symmetric_linear_system_cancels():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    g = rescale_to_unit_box(vf, (0.0, 0.0), (2.0, 2.0))
    assert as_dict(g.components[0]) == pytest.approx({(0, 1): 1.0})
    assert as_dict(g.components[1]) == pytest.approx({(1, 0): -1.0})


def test_rescale_cubic_term_picks_up_width_ratio():
    # f2 = -q^3 with widths (2,1): g2(y) = -(2 y1)^3 / 1 = -8 y1^3.
    f = (
        canonicalize([(1.0, (0, 1))], 2),
        canonicalize([(-1.0, (3, 0))], 2),
    )
    g = rescale_to_unit_box(VectorField(2, f), (0.0, 0.0), (2.0, 1.0))
    assert as_dict(g.components[1]) == pytest.approx({(3, 0): -8.0})


def test_rescale_rejects_bad_half_width():
    vf = duffing_vector_field(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        rescale_to_unit_box(vf, (0.0, 0.0), (1.0, 0.0))


def test_rescale_round_trip_at_random_points():
    rng = np.random.default_rng(5)
    vf = duffing_vector_field(1.0, 1.3, 0.8, 0.2)
    center = (0.3, -0.2)
    half_width = (1.5, 2.5)
    g = rescale_to_unit_box(vf, center, half_width)
    for _ in range(50):
        y = rng.uniform(-1.0, 1.0, size=2)
        x = np.array(center) + np.array(half_width) * y
        for j in range(2):
            expected = evaluate(vf.components[j], x) / half_width[j]
            assert evaluate(g.components[j], y) == pytest.approx(expected, abs=1e-12)


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

