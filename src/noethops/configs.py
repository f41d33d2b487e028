"""Text and JSON front-end formats.

Ring files:

    ring: Q[x,y] / (x^2)
    radical: (x)
    minimal-primes: [(x)]

The quotient part, the radical line and the minimal-primes line are optional
(the radical defaults to the defining ideal).  Ideal lists are
semicolon-separated polynomial texts; experiment configs are single JSON
documents embedding these text payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from .closures import MODES
from .diffops import OperatorSet, parse_operator_set
from .groebner import IdealHandle, RingSpec, split_poly_list
from .noetherian import PrimaryComponent, combine_components, noetherian_ops_primary
from .poly import Poly, PolyParseError, parse_polynomial
from .uniformity import run_constant_experiment


class ConfigError(ValueError):
    pass


def _encloses(text: str) -> bool:
    """Does the opening parenthesis of `text` close at its last character?"""
    depth = 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0:
            return i == len(text) - 1
    return False


def parse_ideal_list(text: str, var_names: Sequence[str]) -> list[Poly]:
    """Semicolon-separated polynomials, optionally wrapped in parentheses."""
    text = text.strip()
    if text.startswith("(") and _encloses(text):
        text = text[1:-1]
    return [parse_polynomial(part, var_names) for part in split_poly_list(text)]


def parse_ring_text(text: str) -> RingSpec:
    entries: dict[str, str] = {}
    for raw in text.strip().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key not in ("ring", "radical", "minimal-primes"):
            raise ConfigError(f"unknown ring-file key {key!r}")
        entries[key] = rest.strip()
    if "ring" not in entries:
        raise ConfigError("missing 'ring:' line")

    head, _, quotient = entries["ring"].partition("/")
    head = head.strip()
    if not head.startswith("Q[") or not head.endswith("]"):
        raise ConfigError("ring must have the form Q[v1,...,vk]")
    var_names = tuple(v.strip() for v in head[2:-1].split(",") if v.strip())
    if not var_names:
        raise ConfigError("ring declares no variables")
    n = len(var_names)
    for i, v in enumerate(var_names):
        if var_names.count(v) > 1:
            raise ConfigError(f"ring variable {v!r} declared twice")
        try:
            reads_back = parse_polynomial(v, var_names) == Poly.variable(n, i)
        except PolyParseError:
            reads_back = False
        if not reads_back:
            raise ConfigError(f"ring variable {v!r} is not a name the polynomial parser reads back")
        if f"d{v}" in var_names:
            raise ConfigError(f"ring variable 'd{v}' would read as the derivative in {v!r} in operator texts")

    def ideal_from(text_part: str) -> IdealHandle:
        return IdealHandle(n, parse_ideal_list(text_part, var_names))

    N = ideal_from(quotient)
    rad = ideal_from(entries["radical"]) if "radical" in entries else N
    primes: tuple[IdealHandle, ...] = ()
    if "minimal-primes" in entries:
        listed = entries["minimal-primes"]
        if not (listed.startswith("[") and listed.endswith("]")):
            raise ConfigError(f"expected [...], got {listed!r}")
        primes = tuple(ideal_from(part) for part in split_poly_list(listed[1:-1]))
    return RingSpec(var_names, N, rad, primes)


def load_ring(path_or_text: str) -> RingSpec:
    text = path_or_text
    if "\n" not in path_or_text and not path_or_text.strip().lower().startswith("ring:"):
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_ring_text(text)


# ---------------------------------------------------------------------------
# experiment configs


@dataclass(frozen=True)
class ExperimentConfig:
    """A loaded config, read-only throughout: the ideals are kept as a tuple
    and the witnesses as a read-only mapping, however they were given.
    n_max < 1, c_max < 0 or degree < 1 tests nothing: a `ConfigError`."""

    ring: RingSpec
    ideals: tuple[tuple[str, IdealHandle], ...]
    operators: OperatorSet
    mode: str
    n_max: int
    c_max: int
    degree: int
    seed: int
    witnesses: Mapping[str, Poly] = field(default_factory=dict)

    def __post_init__(self):
        for name, least in (("n_max", 1), ("c_max", 0), ("degree", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, not {getattr(self, name)}")
        object.__setattr__(self, "ideals", tuple(self.ideals))
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))


def _typed(value, kind: type, what: str):
    """`value`, which must be a JSON object, array or string (`kind`)."""
    if not isinstance(value, kind):
        name = {dict: "a JSON object", list: "a JSON array", str: "a string"}[kind]
        raise ConfigError(f"{what} must be {name}, not {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    """`value`, which must be a JSON integer: not a float, string or boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, not {value!r}")
    return value


def primary_component(ring: RingSpec, ideal: str, prime: str, independent: str | list[str]) -> PrimaryComponent:
    """The claimed primary component (ideal, prime) given as ideal-list
    texts, with its independent variables named in a comma-separated text or
    a list."""
    Q = ring.ideal(parse_ideal_list(_typed(ideal, str, "a component ideal"), ring.var_names))
    p = ring.ideal(parse_ideal_list(_typed(prime, str, "a component prime"), ring.var_names))
    if isinstance(independent, str):
        independent = [v.strip() for v in independent.split(",") if v.strip()]
    for v in _typed(independent, list, "independent"):
        if v not in ring.var_names:
            raise ConfigError(f"unknown independent variable {v!r}")
    return PrimaryComponent(Q, p, tuple(ring.var_names.index(v) for v in independent))


def _build_operators(spec, ring: RingSpec) -> OperatorSet:
    if isinstance(spec, str):
        return parse_operator_set(spec, ring.var_names, ring.rad)
    if isinstance(spec, dict) and "compute" in spec:
        entries = _typed(spec["compute"], list, "operators.compute")
        if not entries:
            raise ConfigError("operators.compute must list at least one component")
        comps = []
        for entry in entries:
            entry = _typed(entry, dict, "an operators.compute entry")
            comp = primary_component(ring, entry["ideal"], entry["prime"], entry.get("independent", []))
            comps.append((comp, noetherian_ops_primary(comp)))
        target_text = _typed(spec.get("target") or "", str, "operators.target")
        target = ring.plus_N(ring.ideal(parse_ideal_list(target_text, ring.var_names)))
        return combine_components(target, comps, ring)
    raise ConfigError("operators must be an operator text or a {'compute': [...]} object")


def load_experiment_config(source: str | dict) -> ExperimentConfig:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            source = json.load(fh)
    data = _typed(source, dict, "an experiment config")
    try:
        ring = parse_ring_text(_typed(data["ring"], str, "ring"))
        params = _typed(data.get("parameters", {}), dict, "parameters")
        ideals = [
            (name, ring.ideal(parse_ideal_list(_typed(text, str, f"ideal {name!r}"), ring.var_names)))
            for name, text in _typed(data.get("ideals", {}), dict, "ideals").items()
        ]
        ops = _build_operators(data["operators"], ring)
        witnesses = {
            name: ring.parse(_typed(text, str, f"witness {name!r}"))
            for name, text in _typed(data.get("witnesses", {}), dict, "witnesses").items()
        }
        unknown = sorted(witnesses.keys() - dict(ideals).keys())
        if unknown:
            raise ConfigError(f"witness {unknown[0]!r} names no ideal of the config")
        return ExperimentConfig(
            ring=ring,
            ideals=ideals,
            operators=ops,
            mode=_typed(data.get("mode", "artin_rees"), str, "mode"),
            n_max=_integer(params.get("n_max", 3), "n_max"),
            c_max=_integer(params.get("c_max", 3), "c_max"),
            degree=_integer(params.get("degree", 8), "degree"),
            seed=_integer(params.get("seed", 0), "seed"),
            witnesses=witnesses,
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc


def run_experiment_config(cfg: ExperimentConfig):
    """Run a loaded config under the power schedule of its mode and return
    the report bundle."""
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    return run_constant_experiment(cfg)
