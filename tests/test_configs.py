import pytest

from noethops.configs import parse_ideal_list
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
