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
from typing import Sequence

from .closures import SCHEDULES
from .diffops import OperatorSet, parse_operator_set
from .groebner import IdealHandle, RingSpec, split_poly_list
from .noetherian import PrimaryComponent, combine_components, noetherian_ops_primary
from .poly import Poly, parse_polynomial
from .uniformity import run_constant_experiment


class ConfigError(ValueError):
    pass


def _strip_wrapper(text: str, open_ch: str, close_ch: str) -> str:
    text = text.strip()
    if not (text.startswith(open_ch) and text.endswith(close_ch)):
        raise ConfigError(f"expected {open_ch}...{close_ch}, got {text!r}")
    return text[1:-1]


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
    ring_line = None
    radical_line = None
    primes_line = None
    for raw in text.strip().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key == "ring":
            ring_line = rest.strip()
        elif key == "radical":
            radical_line = rest.strip()
        elif key == "minimal-primes":
            primes_line = rest.strip()
        else:
            raise ConfigError(f"unknown ring-file key {key!r}")
    if ring_line is None:
        raise ConfigError("missing 'ring:' line")

    head, _, quotient = ring_line.partition("/")
    head = head.strip()
    if not head.startswith("Q[") or not head.endswith("]"):
        raise ConfigError("ring must have the form Q[v1,...,vk]")
    var_names = tuple(v.strip() for v in head[2:-1].split(",") if v.strip())
    if not var_names:
        raise ConfigError("ring declares no variables")
    n = len(var_names)

    def ideal_from(text_part: str) -> IdealHandle:
        return IdealHandle(n, parse_ideal_list(text_part, var_names))

    N = ideal_from(quotient)
    rad = ideal_from(radical_line) if radical_line is not None else N
    primes: tuple[IdealHandle, ...] = ()
    if primes_line is not None:
        inner = _strip_wrapper(primes_line, "[", "]")
        primes = tuple(ideal_from(part) for part in split_poly_list(inner))
    return RingSpec(var_names, N, rad, primes)


def load_ring(path_or_text: str) -> RingSpec:
    text = path_or_text
    if "\n" not in path_or_text and not path_or_text.strip().lower().startswith("ring:"):
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_ring_text(text)


# ---------------------------------------------------------------------------
# experiment configs


@dataclass
class ExperimentConfig:
    ring: RingSpec
    ideals: list[tuple[str, IdealHandle]]
    operators: OperatorSet
    mode: str
    n_max: int
    c_max: int
    degree: int
    seed: int
    dimension: int | None = None
    witnesses: dict[str, Poly] = field(default_factory=dict)


def _build_operators(spec, ring: RingSpec) -> OperatorSet:
    if isinstance(spec, str):
        return parse_operator_set(spec, ring.var_names, ring.rad)
    if isinstance(spec, dict) and "compute" in spec:
        comps = []
        for comp_spec in spec["compute"]:
            Q = ring.ideal(parse_ideal_list(comp_spec["ideal"], ring.var_names))
            p = ring.ideal(parse_ideal_list(comp_spec["prime"], ring.var_names))
            indep_names = comp_spec.get("independent", [])
            if isinstance(indep_names, str):
                indep_names = [v.strip() for v in indep_names.split(",") if v.strip()]
            indep = tuple(ring.var_names.index(v) for v in indep_names)
            comp = PrimaryComponent(Q, p, indep)
            comps.append((comp, noetherian_ops_primary(comp)))
        target = ring.plus_N(ring.ideal(parse_ideal_list(spec.get("target") or "", ring.var_names)))
        return combine_components(target, comps, ring)
    raise ConfigError("operators must be an operator text or a {'compute': [...]} object")


def load_experiment_config(source: str | dict) -> ExperimentConfig:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    try:
        ring = parse_ring_text(data["ring"])
        params = data.get("parameters", {})
        ideals = [
            (name, ring.ideal(parse_ideal_list(text, ring.var_names)))
            for name, text in data.get("ideals", {}).items()
        ]
        ops = _build_operators(data["operators"], ring)
        witnesses = {
            name: ring.parse(text) for name, text in data.get("witnesses", {}).items()
        }
        return ExperimentConfig(
            ring=ring,
            ideals=ideals,
            operators=ops,
            mode=data.get("mode", "artin_rees"),
            n_max=int(params.get("n_max", 3)),
            c_max=int(params.get("c_max", 3)),
            degree=int(params.get("degree", 8)),
            seed=int(params.get("seed", 0)),
            dimension=int(data["dimension"]) if "dimension" in data else None,
            witnesses=witnesses,
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc


def run_experiment_config(cfg: ExperimentConfig):
    """Run a loaded config under the power schedule of its mode and return
    the report bundle."""
    if cfg.mode not in SCHEDULES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.mode == "symbolic" and cfg.dimension is None:
        raise ConfigError("symbolic mode requires a 'dimension' entry")
    return run_constant_experiment(
        cfg.ring, cfg.operators, cfg.ideals, cfg.n_max, cfg.c_max, cfg.degree,
        mode=cfg.mode, seed=cfg.seed, dimension=cfg.dimension, witnesses=cfg.witnesses,
    )
