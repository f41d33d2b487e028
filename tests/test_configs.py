import dataclasses

import pytest

from noethops.configs import (
    ConfigError,
    load_experiment_config,
    parse_ideal_list,
    parse_ring_text,
    primary_component,
)
from noethops.groebner import split_poly_list

from conftest import P

XYZ = ["x", "y", "z"]


def test_unwrapped_list_with_parenthesized_ends():
    gens = parse_ideal_list("(x-1)^3; (y-2)^3; z^3 - (x-1)*(y-2)", XYZ)
    assert gens == [P("(x-1)^3", XYZ), P("(y-2)^3", XYZ), P("z^3 - (x-1)*(y-2)", XYZ)]


@pytest.mark.parametrize(
    "text, expected",
    [("(x; y)", ["x", "y"]), ("(x)", ["x"]), ("x; y", ["x", "y"]), ("((x); (y))", ["x", "y"])],
)
def test_wrapped_and_plain_lists(text, expected):
    assert parse_ideal_list(text, XYZ) == [P(t, XYZ) for t in expected]


def test_split_poly_list_keeps_bracketed_semicolons():
    assert split_poly_list("(x; y); [y; z];; z") == ["(x; y)", "[y; z]", "z"]


CONFIG = {
    "ring": "ring: Q[x,y] / (x^2)\nradical: (x)",
    "ideals": {"J": "x - y"},
    "operators": "1; dx",
    "parameters": {"n_max": 2, "seed": 0},
}
COMPUTE = {"compute": [{"ideal": "x^2", "prime": "x", "independent": "y"}]}


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], "an experiment config must be a JSON object, not list"),
        (3, "an experiment config must be a JSON object, not int"),
        (dict(CONFIG, ring=["ring: Q[x]"]), "ring must be a string, not list"),
        (dict(CONFIG, parameters=[]), "parameters must be a JSON object, not list"),
        (dict(CONFIG, parameters={"n_max": [3]}), "n_max must be an integer, not [3]"),
        (dict(CONFIG, parameters={"seed": None}), "seed must be an integer, not None"),
        (dict(CONFIG, operators=["1", "dx"]), "operators must be an operator text or a {'compute': [...]} object"),
        (dict(CONFIG, mode=["symbolic"]), "mode must be a string, not list"),
        (dict(CONFIG, ideals=["x - y"]), "ideals must be a JSON object, not list"),
        (dict(CONFIG, ideals={"J": ["x - y"]}), "ideal 'J' must be a string, not list"),
        (dict(CONFIG, witnesses=["1"]), "witnesses must be a JSON object, not list"),
        (dict(CONFIG, witnesses={"J": 1}), "witness 'J' must be a string, not int"),
        (dict(CONFIG, operators={"compute": {}}), "operators.compute must be a JSON array, not dict"),
        (dict(CONFIG, operators={"compute": ["x^2"]}), "an operators.compute entry must be a JSON object, not str"),
        (
            dict(CONFIG, operators={"compute": [{"ideal": ["x^2"], "prime": "x"}]}),
            "a component ideal must be a string, not list",
        ),
        (
            dict(CONFIG, operators={"compute": [{"ideal": "x^2", "prime": 0}]}),
            "a component prime must be a string, not int",
        ),
        (
            dict(CONFIG, operators={"compute": [{"ideal": "x^2", "prime": "x", "independent": 1}]}),
            "independent must be a JSON array, not int",
        ),
        (dict(CONFIG, operators=dict(COMPUTE, target=["x^2"])), "operators.target must be a string, not list"),
        (dict(CONFIG, parameters={"n_max": 2.9}), "n_max must be an integer, not 2.9"),
        (dict(CONFIG, parameters={"c_max": True}), "c_max must be an integer, not True"),
        (dict(CONFIG, parameters={"degree": "3"}), "degree must be an integer, not '3'"),
        ({k: v for k, v in CONFIG.items() if k != "operators"}, "missing config key: 'operators'"),
        (dict(CONFIG, parameters={"n_max": 0}), "n_max must be at least 1, not 0"),
        (dict(CONFIG, parameters={"c_max": -1}), "c_max must be at least 0, not -1"),
        (dict(CONFIG, parameters={"degree": 0}), "degree must be at least 1, not 0"),
    ],
)
def test_configs_of_the_wrong_shape_are_config_errors(data, message):
    with pytest.raises(ConfigError) as info:
        load_experiment_config(data)
    assert str(info.value) == message


@pytest.mark.parametrize("independent", ["w", "y, w", ["w"]])
def test_unknown_independent_variable_in_a_compute_entry(independent):
    operators = {"compute": [{"ideal": "x^2", "prime": "x", "independent": independent}]}
    with pytest.raises(ConfigError, match="^unknown independent variable 'w'$"):
        load_experiment_config(dict(CONFIG, operators=operators))


def test_primary_component_reads_names_as_text_or_list():
    ring = parse_ring_text("ring: Q[x,y,z]")
    by_text = primary_component(ring, "x^2", "x", "z, y")
    by_list = primary_component(ring, "x^2", "x", ["z", "y"])
    assert by_text.independent == by_list.independent == (1, 2)
    assert by_text.Q.gens == by_list.Q.gens
    assert primary_component(ring, "x^2; y; z", "x; y; z", "").independent == ()


def test_a_loaded_config_cannot_be_assigned_to():
    cfg = load_experiment_config(CONFIG)
    for name, value in (("mode", "symbolic"), ("seed", 1), ("n_max", 1), ("degree", 4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    with pytest.raises(AttributeError):
        cfg.ideals.append(cfg.ideals[0])
    with pytest.raises(TypeError):
        cfg.witnesses["J"] = cfg.ring.parse("1")
    assert dataclasses.replace(cfg, seed=1).seed == 1 and cfg.seed == 0
    copy = dataclasses.replace(cfg, ideals=list(cfg.ideals), witnesses={"J": cfg.ring.parse("y")})
    assert isinstance(copy.ideals, tuple) and copy.ideals == cfg.ideals
    with pytest.raises(TypeError):
        copy.witnesses["J"] = cfg.ring.parse("1")


@pytest.mark.parametrize("name, value", [("n_max", 0), ("n_max", -2), ("c_max", -1), ("degree", 0)])
def test_a_replaced_search_parameter_that_tests_nothing_is_a_config_error(name, value):
    # the command-line overrides reach the config through dataclasses.replace
    cfg = load_experiment_config(CONFIG)
    with pytest.raises(ConfigError, match=f"^{name} must be at least"):
        dataclasses.replace(cfg, **{name: value})
    assert dataclasses.replace(cfg, n_max=1, c_max=0, degree=1).c_max == 0
