import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import noethops
from noethops.cli import build_parser, main
from noethops.configs import parse_ring_text
from noethops.groebner import IdealHandle, ideal_power, krull_dimension
from noethops.poly import parse_polynomial

from conftest import P, ideal

RING_X2 = "ring: Q[x,y] / (x^2)\nradical: (x)\nminimal-primes: [(x)]\n"
RING_X3 = "ring: Q[x,y] / (x^3)\nradical: (x)\nminimal-primes: [(x)]\n"

CONFIG = {
    "ring": "ring: Q[x,y] / (x^2)\nradical: (x)\nminimal-primes: [(x)]",
    "ideals": {"J1": "x - y", "J2": "x; y", "J3": "y"},
    "operators": "1; dx",
    "mode": "artin_rees",
    "parameters": {"n_max": 3, "c_max": 3, "degree": 12, "seed": 0},
}


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "ring.txt"
    path.write_text(RING_X2)
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def test_noeth_ops_positive_dimensional(ring_file, tmp_path, capsys):
    rc = main(["noeth-ops", ring_file, "--ideal", "x^2", "--prime", "x", "--independent", "y"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "1; dx"
    assert "status: exact" in out


def test_noeth_ops_point(ring_file, capsys):
    rc = main(["noeth-ops", ring_file, "--ideal", "x; y", "--point", "0,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "1"


def test_noeth_ops_json_to_file(ring_file, tmp_path):
    out = tmp_path / "cert.json"
    rc = main([
        "noeth-ops", ring_file, "--ideal", "x^2", "--prime", "x", "--independent", "y",
        "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "exact"
    assert data["operators"] == ["1", "dx"]


def test_noeth_ops_computed_via_config_operators(tmp_path, capsys):
    cfg = dict(CONFIG)
    cfg["operators"] = {"compute": [{"ideal": "x^2", "prime": "x", "independent": "y"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["find-c", str(path), "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "J1,1,1,y,12" in out


def test_malformed_polynomial_exit_1(ring_file, capsys):
    rc = main(["noeth-ops", ring_file, "--ideal", "x^^2", "--prime", "x", "--independent", "y"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "position" in err


def _drop_one_dual_vector(monkeypatch):
    from noethops import noetherian

    walk = noetherian._dual_vectors

    def short(*args):
        monos, vectors = walk(*args)
        return monos, vectors[:-1]

    monkeypatch.setattr(noetherian, "_dual_vectors", short)


@pytest.mark.parametrize(
    "where",
    [["--point", "0,0"], ["--prime", "x", "--independent", "y"]],
    ids=["dual_space", "positive_dimensional"],
)
def test_noeth_ops_colength_mismatch_exit_2(ring_file, monkeypatch, capsys, where):
    _drop_one_dual_vector(monkeypatch)
    ideal_text = "x^2; y" if where[0] == "--point" else "x^2"
    rc = main(["noeth-ops", ring_file, "--ideal", ideal_text] + where)
    assert rc == 2
    assert capsys.readouterr().err == "arithmetic bug: 1 dual operators for colength 2\n"


@pytest.mark.parametrize(
    "args",
    [["--ideal", "x*(x-1); y", "--point", "0,0"], ["--ideal", "y*(y-1)", "--prime", "y", "--independent", "x"]],
    ids=["dual_space", "positive_dimensional"],
)
def test_noeth_ops_not_primary_exit_1(capsys, args):
    # each ideal has a second point, (1, 0) or y = 1, besides the claimed one
    rc = main(["noeth-ops", "ring: Q[x,y]"] + args)
    assert rc == 1
    assert capsys.readouterr().err == "error: claimed primary ideal is not primary to its prime\n"


@pytest.mark.parametrize("ideal_text", ["x^2; x*y", "x^2*y", "x^2; x*(y-1)"])
def test_noeth_ops_primary_only_over_the_fraction_field_exit_1(capsys, ideal_text):
    # each ideal is (x)- or (x^2)-primary over Q(y) but has a component on
    # y = 0 or y = 1 besides, so no operator set describes it
    rc = main(["noeth-ops", "ring: Q[x,y]", "--ideal", ideal_text, "--prime", "x", "--independent", "y"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: claimed primary ideal is not primary to its prime\n"


def test_find_c_false_witness_exit_2(config_file, monkeypatch, capsys):
    # a containment test that wrongly refutes with the witness 1: its exact
    # re-verification fails, which is an arithmetic bug, not an input error
    from noethops import uniformity

    monkeypatch.setattr(uniformity, "subspace_in_ideal", lambda S, J, ring: P("1"))
    rc = main(["find-c", config_file, "--format", "csv"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("arithmetic bug: ")


_REVERSE_FAULT = """
import sys
from noethops import cli, uniformity

# every reverse check finds its first generator not carried into the colon
uniformity.first_not_killed = lambda ops, gens, target=None: gens[0]
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["experiment", "check-ar-reverse"])
def test_a_failed_reverse_check_exits_2_under_python_O(command):
    # the reverse containment is a theorem (differential Artin-Rees), so a
    # failure is an arithmetic bug: exit 2, no report, and one stderr line
    # naming the ideal, n and the witness, with assertions stripped too
    path = Path(__file__).parents[1] / "configs" / "artin_rees_x2.json"
    src_root = os.path.dirname(os.path.dirname(noethops.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REVERSE_FAULT, command, str(path)],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_root},
        capture_output=True,
        text=True,
    )
    J1 = ideal("x - y")
    witness = parse_ring_text(RING_X2).format(ideal_power(J1, 2).gens[0])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"arithmetic bug: reverse check failed for J1 at n=1: an operator does not carry {witness}, in J1^2, into I^1 + rad\n"
    )


def test_verify_ops_refuted(ring_file, capsys):
    rc = main(["verify-ops", ring_file, "--ideal", "x^2", "--ops", "1", "--degree", "4"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "refuted" in out and "witness: x" in out


def test_diff_colon_full_space_banner(ring_file, capsys):
    rc = main(["diff-colon", ring_file, "--ops", "1; dx", "--ideal", "y", "-m", "0", "--degree", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("full space")


def test_find_c_csv(config_file, capsys):
    rc = main(["find-c", config_file, "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "J_id,n,c_min,witness,degree_bound"
    assert "J1,1,1,y,12" in lines
    assert "J2,1,0,,12" in lines
    assert "J3,3,0,,12" in lines


def test_find_c_empty_family(tmp_path, capsys):
    cfg = dict(CONFIG)
    cfg["ideals"] = {}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["find-c", str(path), "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "J_id,n,c_min,witness,degree_bound\n"


def test_find_c_parameter_overrides(config_file, capsys):
    rc = main(["find-c", config_file, "--format", "csv", "--n-max", "1", "--c-max", "2", "--degree", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1:] == ["J1,1,1,y,10", "J2,1,0,,10", "J3,1,0,,10"]


def test_find_c_exhaustion_exit_3(tmp_path, capsys):
    cfg = dict(CONFIG)
    cfg["ideals"] = {"J1": "x - y"}
    cfg["parameters"] = {"n_max": 1, "c_max": 0, "degree": 12, "seed": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["find-c", str(path), "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "J1,1,NOT_FOUND(<=0),y,12" in out


def test_csv_witness_roundtrip(config_file, capsys):
    rc = main(["find-c", config_file, "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    ring_N = ideal("x^2")
    for line in out.splitlines()[1:]:
        j_id, n, c_min, witness, _ = line.split(",")
        if not witness:
            continue
        f = parse_polynomial(witness, ["x", "y"])
        J = {"J1": ideal("x - y"), "J2": ideal("x", "y"), "J3": ideal("y")}[j_id]
        target = IdealHandle(2, ideal_power(J, int(n)).gens + ring_N.gens)
        assert target.normal_form(f)  # witness really avoids J^n in R


def test_check_ar_reverse(config_file, capsys):
    rc = main(["check-ar-reverse", config_file, "--n-max", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") == 9


def test_check_bs(tmp_path, capsys):
    cfg = dict(CONFIG)
    cfg["mode"] = "briancon_skoda"
    cfg["ideals"] = {"Jbs": "y^2; x*y"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["check-bs", str(path), "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Jbs,3,0,,12" in out


def test_check_symb(tmp_path, capsys):
    cfg = dict(CONFIG)
    cfg["mode"] = "symbolic"
    cfg["ideals"] = {"Js": "x - y"}
    cfg["witnesses"] = {"Js": "1"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["check-symb", str(path), "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Js,1,1,y,12" in out


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _configs_whose_symbolic_schedule_is_plain() -> list[Path]:
    """Shipped configs with no witnesses whose reduced ring has dimension 1:
    their symbolic schedule, I^(n*1 + c) + rad saturated by 1, is the plain
    one."""
    out = []
    for path in sorted(CONFIGS.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "witnesses" not in data and krull_dimension(parse_ring_text(data["ring"]).rad) == 1:
            out.append(path)
    return out


@pytest.mark.parametrize("path", _configs_whose_symbolic_schedule_is_plain(), ids=lambda p: p.stem)
def test_check_symb_equals_find_c_where_the_schedules_agree(capsys, path):
    assert main(["find-c", str(path), "--format", "csv"]) == 0
    plain = capsys.readouterr()
    assert main(["check-symb", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr() == plain


def test_a_stale_dimension_key_is_ignored(tmp_path, capsys):
    # the step is the reduced ring's dimension, 1 here, whatever the key says
    shipped = CONFIGS / "symbolic_x2.json"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(json.loads(shipped.read_text(encoding="utf-8")), dimension=2)))
    assert main(["check-symb", str(shipped), "--format", "csv"]) == 0
    want = capsys.readouterr().out
    assert "Js,1,1,y,12" in want.splitlines()
    assert main(["check-symb", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == want


def test_a_witness_that_names_no_ideal_is_an_input_error(tmp_path, capsys):
    # under its own name the witness is read (and here refuted), not ignored
    shipped = json.loads((CONFIGS / "symbolic_x2.json").read_text(encoding="utf-8"))
    for witnesses, message in [
        ({"Jtypo": "y"}, "witness 'Jtypo' names no ideal of the config"),
        ({"Js": "y"}, "saturation witness lies in the image prime"),
    ]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(shipped, witnesses=witnesses)))
        assert main(["check-symb", str(path), "--format", "csv"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["find-c", "check-symb"])
def test_a_unit_defining_ideal_is_an_input_error(tmp_path, capsys, command):
    # R would be the zero ring, where every containment holds
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, ring="ring: Q[x,y] / (1)", operators="1", ideals={"J": "x - y"})))
    assert main([command, str(path), "--format", "csv"]) == 1
    assert capsys.readouterr() == ("", "error: defining ideal is the unit ideal (R is the zero ring)\n")


@pytest.mark.parametrize("config_mode", ["artin_rees", "symbolic"])
@pytest.mark.parametrize(
    "command, mode",
    [("find-c", "artin_rees"), ("check-bs", "briancon_skoda"), ("check-symb", "symbolic"), ("experiment", None)],
)
def test_each_experiment_command_runs_its_mode(tmp_path, capsys, command, mode, config_mode):
    # find-c, check-bs and check-symb force their mode; experiment keeps the config's
    cfg = dict(CONFIG, mode=config_mode, ideals={"J": "x - y"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, str(path), "--n-max", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["mode"] == (mode or config_mode)


SYMBOLIC = dict(CONFIG, mode="symbolic", ideals={"J": "x - y"}, witnesses={"J": "1"})
RING_DIAGONAL = "ring: Q[x,y] / ((x - y)^2)\nradical: (x - y)"
# R_red = Q: dimension 0
RING_POINT = "ring: Q[x,y] / (x^2; y)\nradical: (x; y)"


@pytest.mark.parametrize(
    "cfg, message",
    [
        # the mode is checked before the operators are verified: `dx^2` is refuted
        (dict(CONFIG, mode="foo", operators="1; dx; dx^2"), "unknown mode 'foo'"),
        # x + 1 has image 1, in which the witness 1 lies: the dimension is
        # checked first, then the image, then the witness
        (
            dict(SYMBOLIC, ring=RING_POINT, ideals={"J": "x + 1"}),
            "symbolic mode needs a reduced ring of dimension at least 1, not 0",
        ),
        (
            dict(SYMBOLIC, ring=RING_POINT, ideals={"J": "x - y"}),
            "symbolic mode needs a reduced ring of dimension at least 1, not 0",
        ),
        (dict(SYMBOLIC, ideals={"J": "x"}, witnesses={"J": "y"}), "image of J in the reduced ring is zero"),
        (dict(SYMBOLIC, witnesses={"J": "y"}), "saturation witness lies in the image prime"),
        (dict(CONFIG, mode="briancon_skoda", ideals={"J": "y^2 + y"}), "image of the ideal is not monomial: y^2 + y"),
        # the radical is checked before the image
        (
            dict(CONFIG, mode="briancon_skoda", ring=RING_DIAGONAL, ideals={"J": "y^2 + y"}),
            "radical is not generated by variables; reduced ring is not a polynomial ring here",
        ),
    ],
    ids=["unknown_mode", "dimension_0", "dimension_before_image", "zero_image", "witness_in_prime",
         "non_monomial_image", "radical_before_image"],
)
def test_each_mode_input_error_exits_1_with_one_line(tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["experiment", str(path), "--n-max", "1"])
    assert (rc, capsys.readouterr().err) == (1, f"error: {message}\n")


@pytest.mark.parametrize(
    "option, value, key",
    [("--seed", 7, "seed"), ("--n-max", 1, "n_max"), ("--c-max", 2, "c_max"), ("--degree", 10, "degree_bound")],
)
def test_each_option_reaches_the_json_report(config_file, capsys, option, value, key):
    rc = main(["experiment", config_file, option, str(value)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    reported = {"seed": data["seed"], **data["parameters"]}
    expected = {"seed": 0, "n_max": 3, "c_max": 3, "degree_bound": 12}
    assert reported == {**expected, key: value}


def test_noeth_ops_point_with_zero_denominator_exit_1(capsys):
    rc = main(["noeth-ops", "ring: Q[x,y]", "--ideal", "x^2", "--point", "1/0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: point '1/0' has a coordinate with denominator 0\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("independent", ["w", ["y", "w"]])
def test_unknown_independent_variable_in_a_config_exit_1(tmp_path, capsys, independent):
    cfg = dict(CONFIG, operators={"compute": [{"ideal": "x^2", "prime": "x", "independent": independent}]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["find-c", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown independent variable 'w'\n"


def test_noeth_ops_repeated_independent_variable_exit_1(capsys):
    rc = main(["noeth-ops", "ring: Q[x,y,z]", "--ideal", "x^3 - z*y^2; y^5", "--prime", "x; y", "--independent", "z,z"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: independent variables must be distinct variables of the ring, not indices (2, 2)\n"


def test_repeated_independent_variable_in_a_config_exit_1(tmp_path, capsys):
    cfg = dict(CONFIG, operators={"compute": [{"ideal": "x^2", "prime": "x", "independent": ["y", "y"]}]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["find-c", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: independent variables must be distinct variables of the ring, not indices (1, 1)\n"


@pytest.mark.parametrize("text", ["[1, 2]", '{"ring": "ring: Q[x]", "operators": "1", "parameters": []}'])
def test_config_of_the_wrong_shape_exit_1(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    rc = main(["experiment", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["find-c", "--n-max", "0"], "n_max must be at least 1, not 0"),
        (["check-bs", "--c-max", "-1"], "c_max must be at least 0, not -1"),
        (["experiment", "--degree", "0"], "degree must be at least 1, not 0"),
        (["check-ar-reverse", "--n-max", "0"], "n_max must be at least 1, not 0"),
    ],
    ids=["find_c_n_max", "check_bs_c_max", "experiment_degree", "check_ar_reverse_n_max"],
)
def test_search_parameters_that_test_nothing_exit_1(config_file, capsys, argv, message):
    # a search that tests no colon is an input error, not an exit 0 or NOT_FOUND(<=-1) rows
    rc = main([argv[0], config_file, *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "ring, message",
    [
        ("ring: Q[x,x]", "ring variable 'x' declared twice"),
        ("ring: Q[x,1y]", "ring variable '1y' is not a name the polynomial parser reads back"),
        ("ring: Q[x,dx]", "ring variable 'dx' would read as the derivative in 'x' in operator texts"),
    ],
    ids=["repeated", "not_a_name", "derivative_name"],
)
def test_ring_variables_must_be_distinct_names_that_read_back(capsys, ring, message):
    assert main(["noeth-ops", ring, "--ideal", "x^2", "--point", "0,0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_radical_generator_not_nilpotent_exits_1(tmp_path, capsys):
    # (x; y) contains (x^2) and is its own minimal prime, but y is not
    # nilpotent modulo x^2: the ring is wrong, not the operators
    cfg = dict(CONFIG, ring="ring: Q[x,y] / (x^2)\nradical: (x; y)\nminimal-primes: [(x; y)]")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["experiment", str(path)])
    assert (rc, capsys.readouterr().err) == (1, "error: radical generator not nilpotent modulo the defining ideal: y\n")


def test_sep_op_fixture(tmp_path, capsys):
    path = tmp_path / "ring3.txt"
    path.write_text(RING_X3)
    rc = main(["sep-op", str(path), "--lower", "0", "--upper", "x^2", "--prime", "x", "--psi", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["dx^2", "order: 2", "d: 2"]


def test_sep_op_exhaustion_exit_3(tmp_path, capsys):
    path = tmp_path / "ring3.txt"
    path.write_text(RING_X3)
    rc = main(["sep-op", str(path), "--lower", "0", "--upper", "x^2", "--prime", "x", "--psi", "1", "--t-max", "1"])
    assert rc == 3
    # the line names the bounds the command searched
    assert capsys.readouterr().out == "no operator up to order 1 with coefficient degree 2\n"


@pytest.mark.parametrize("option, name", [("--t-max", "t_max"), ("--coeff-deg", "coeff_deg")])
def test_sep_op_negative_bound_exits_1(capsys, option, name):
    # a negative bound searches nothing: an input error, not exhaustion
    argv = ["sep-op", RING_X3, "--lower", "0", "--upper", "x^2", "--prime", "x", "--psi", "1", option, "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {name} must be at least 0, not -1\n")


def _sep_op(lower="0", upper="x^2", prime="x", psi="1") -> list[str]:
    return ["sep-op", RING_X3, "--lower", lower, "--upper", upper, "--prime", prime, "--psi", psi]


_FILTRATION = ["verify-filtration", RING_X2]


@pytest.mark.parametrize(
    "ring, argv, message",
    [
        ("foo: 1\nring: Q[x]", None, "unknown ring-file key 'foo'"),
        ("radical: (x)\n", None, "missing 'ring:' line"),
        ("ring: R[x]\n", None, "ring must have the form Q[v1,...,vk]"),
        ("ring: Q[ , ]\n", None, "ring declares no variables"),
        ("ring: Q[x,y] / (x^2)\nminimal-primes: (x)\n", None, "expected [...], got '(x)'"),
        (None, _sep_op(lower="x", upper="x"), "need a strictly inside b"),
        (None, _sep_op(psi="1; 1"), "psi must list one image per generator of b"),
        (None, _sep_op(prime="x; y"), "p is not among the declared minimal primes"),
        (None, _FILTRATION + ["--chain", "(x^2)", "--primes", "(x)"], "chain needs at least two terms"),
        (None, _FILTRATION + ["--chain", "(x^2) | (x) | (1)", "--primes", "(x)"], "need one prime per chain step"),
        (None, _FILTRATION + ["--chain", "(x) | (1)", "--primes", "(x)"], "chain must start at the defining ideal"),
        (None, _FILTRATION + ["--chain", "(x^2) | (x)", "--primes", "(x)"], "chain must end at the unit ideal"),
        (None, ["diff-colon", RING_X2, "--ops", "1", "--ideal", "y", "-m", "1", "--degree", "0"], "degree bound must be at least 1"),
    ],
    ids=[
        "unknown_key", "no_ring_line", "not_Q", "no_variables", "primes_not_a_list",
        "sep_op_not_strict", "sep_op_psi_length", "sep_op_undeclared_prime",
        "chain_too_short", "primes_per_step", "chain_start", "chain_end", "diff_colon_degree_0",
    ],
)
def test_each_input_error_exits_1_with_its_line(tmp_path, capsys, ring, argv, message):
    # a ring file is read from its path; the other inputs are given inline
    if ring is not None:
        path = tmp_path / "ring.txt"
        path.write_text(ring)
        argv = ["noeth-ops", str(path), "--ideal", "x^2", "--point", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _with_operators(operators, ring=CONFIG["ring"]) -> dict:
    return {**CONFIG, "ring": ring, "operators": operators}


REFUTATIONS = [
    (
        ["noeth-ops", "ring: Q[x,y]", "--ideal", "x - 1", "--prime", "x", "--independent", "y"],
        "claimed primary ideal is not inside its prime",
    ),
    (
        ["noeth-ops", "ring: Q[x,y]", "--ideal", "x; y", "--prime", "x; y", "--independent", "y"],
        "declared independent variables are not independent for the prime",
    ),
    (
        _with_operators({"compute": [{"ideal": "x^2", "prime": "x", "independent": ["y"]}], "target": "x"}),
        "components do not intersect to the target ideal",
    ),
    (
        _with_operators({"compute": [{"ideal": "x^2; y", "prime": "x; y"}], "target": "x^2; y"}),
        "no separator for the component prime among the minimal primes",
    ),
    (
        ["sep-op", RING_X2, "--lower", "0", "--upper", "x", "--prime", "x", "--psi", "0"],
        "operator separates a generator whose claimed image is zero",
    ),
    (
        _sep_op(upper="x^2; x^2*y", psi="1; 1"),
        "d is not consistent across the generators; psi is not the claimed embedding",
    ),
    (_with_operators("1"), "operator set refuted against the defining ideal; not a Noetherian set for R"),
]


@pytest.mark.parametrize(
    "run, message",
    REFUTATIONS,
    ids=[
        "component_outside_prime", "dependent_declaration", "components_miss_target",
        "no_separator", "psi_zero_on_separated", "psi_inconsistent", "operators_refuted",
    ],
)
def test_each_refutation_exits_2_with_its_line(tmp_path, capsys, run, message):
    # a config (a dict) is read from its path; the other inputs are given inline
    argv = run
    if isinstance(run, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(run))
        argv = ["experiment", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"refuted: {message}\n")


def test_an_empty_compute_list_is_an_input_error(tmp_path, capsys):
    # a config that lists no component claims nothing, so nothing is refuted
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_with_operators({"compute": []})))
    assert main(["experiment", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: operators.compute must list at least one component\n")


def test_nested_minimal_primes_are_an_input_error(tmp_path, capsys):
    # (x; y) contains (x), so it is not minimal: the ring file is at fault,
    # whatever is run on it
    ring = "ring: Q[x,y] / (x^2)\nradical: (x)\nminimal-primes: [(x); (x; y)]"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_with_operators({"compute": [{"ideal": "x^2; y", "prime": "x; y"}], "target": "x^2; y"}, ring)))
    runs = [["experiment", str(path)], ["noeth-ops", ring, "--ideal", "x^2", "--prime", "x", "--independent", "y"]]
    for argv in runs:
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: claimed minimal prime (x; y) contains the claimed minimal prime (x)\n")


def test_the_refutation_cases_cover_every_refuted_error_the_package_raises():
    raised = {
        node.args[0].value
        for path in Path(noethops.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RefutedError"
    }
    assert raised == {message for _, message in REFUTATIONS}


def test_an_empty_modulus_is_the_zero_ideal(capsys):
    argv = ["verify-ops", RING_X2, "--ideal", "x^2", "--ops", "1; dx"]
    runs = []
    for modulus in ("0", "(0)", ""):
        code = main(argv + ["--modulus", modulus])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == (2, ("status: refuted\nwitness: x^2 (in_ideal_not_killed)\n", ""))
    assert runs[1] == runs[2] == runs[0]
    # with no --modulus, the set is read modulo rad = (x)
    assert main(argv) == 0
    assert capsys.readouterr() == ("status: verified_up_to_degree\n", "")


def test_experiment_refuted_operators_exit_2(tmp_path, capsys):
    cfg = dict(CONFIG)
    cfg["operators"] = "1"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["experiment", str(path)])
    assert rc == 2
    assert "refuted" in capsys.readouterr().err


def test_verify_filtration_cmd(ring_file, capsys):
    rc = main(["verify-filtration", ring_file, "--chain", "(x^2) | (x) | (1)", "--primes", "(x) | (x)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: pass" in out


def test_verify_filtration_failure_exit_2(ring_file, capsys):
    rc = main(["verify-filtration", ring_file, "--chain", "(x^2) | (x^2) | (1)", "--primes", "(x) | (x)"])
    assert rc == 2


def test_experiment_golden_double_run(config_file, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["experiment", config_file, "--format", "json", "--out", out1]) == 0
    assert main(["experiment", config_file, "--format", "json", "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_experiment_golden_across_processes(config_file, tmp_path):
    # different hash seeds must not change a single byte
    # the children import the same noethops as this process, installed or not
    src_root = os.path.dirname(os.path.dirname(noethops.__file__))
    outputs = []
    for i, hashseed in enumerate(("0", "4242")):
        out = tmp_path / f"run{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "noethops.cli", "experiment", config_file, "--format", "csv", "--out", str(out)],
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin", "PYTHONPATH": src_root},
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # and they ran this code: their report equals the in-process one
    out = tmp_path / "inprocess.csv"
    assert main(["experiment", config_file, "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == outputs[0]


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize(
    "argv",
    [
        ["find-c", "configs/artin_rees_x2.json", "--degree", "abc"],  # not an int
        ["bogus"],  # unknown subcommand
        ["noeth-ops", "ring: Q[x]"],  # --ideal is required
        ["sep-op", "ring: Q[x]", "--lower", "0", "--upper", "x", "--prime", "x", "--psi", "1", "--seed", "1"],
        ["experiment", "configs/artin_rees_x2.json", "--jobs", "4"],
    ],
    ids=["bad_int", "unknown_subcommand", "missing_required", "removed_option", "removed_jobs"],
)
def test_usage_errors_exit_1(argv, capsys):
    # argparse's own code, 2, would read as a refutation
    assert _exit_code(argv) == 1
    assert "usage: noethops" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["diff-colon", "ring: Q[x]", "--ops", "1", "--ideal", "x", "-m", "1", "--format", "json"],
        ["check-ar-reverse", "configs/artin_rees_x2.json", "--format", "text"],
        ["sep-op", "ring: Q[x]", "--lower", "0", "--upper", "x", "--prime", "x", "--psi", "1", "--format", "text"],
        ["verify-filtration", "ring: Q[x]", "--chain", "(x) | (1)", "--primes", "(x)", "--format", "text"],
        ["noeth-ops", "ring: Q[x]", "--ideal", "x", "--point", "0", "--format", "csv"],
        ["verify-ops", "ring: Q[x]", "--ideal", "x", "--ops", "1", "--format", "csv"],
        ["find-c", "configs/artin_rees_x2.json", "--format", "text"],
        ["experiment", "configs/artin_rees_x2.json", "--format", "text"],
    ],
)
def test_format_accepts_only_what_the_command_prints(argv):
    assert _exit_code(argv) == 1


def _readme_command_lines() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("noethops ")]


def test_readme_library_tour_gives_its_commented_values():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if "#" in line and not line.startswith("#")]
    commented = [line.split("#", 1)[1].strip() for line in lines]
    scope: dict = {}
    exec(block, scope)
    status = scope["verify_noetherian_ops"](scope["N"], scope["ops"], 8).status
    rows = [(row.n, row.c_min) for row in scope["report"].rows]
    assert commented == ['"1; dx"', '"exact"', "[(1, 1), (2, 1), (3, 1)]"]
    assert [json.dumps(scope["ops"].format(["x", "y"])), json.dumps(status), repr(rows)] == commented


def test_readme_command_lines_parse():
    # the documented invocations stay in step with the parser
    lines = _readme_command_lines()
    assert len(lines) == 11
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_help_exits_0(capsys):
    assert _exit_code(["--help"]) == 0
    assert _exit_code(["find-c", "--help"]) == 0
    assert "--format {json,csv}" in capsys.readouterr().out
