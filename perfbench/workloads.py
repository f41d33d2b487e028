"""The benchmark's four workloads: seeded inputs, one timed pass, checks.

A pass imports a fresh copy of ``noethops`` from the checkout's ``src/``,
builds its inputs (set-up), then produces every result and compares it with
the goldens captured on the commit that added this benchmark
(``goldens.json``).  A result is one config x ideal report on the search
workloads, or one certified operator set on ``dual_ops``.

Seed 0 gives the inputs exactly as written below.  Any other seed shuffles
the order of the ideals and of each ideal's generators, and scales every
generator by a nonzero rational; pass k of a run draws these from (seed, k),
so a run covers several inputs and the same seed gives the same ones.
Operator texts, points and parameters stay as they are.  Reduced Groebner
bases are unique, so the expected outputs are the same for every seed.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
MODULES = ("linalg", "groebner", "diffops", "noetherian", "uniformity", "closures", "configs")


def import_program() -> dict:
    """Import a fresh copy of noethops (module-level state and wrappers from
    an earlier pass are dropped) and return its modules by short name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "noethops" or m.startswith("noethops.")]:
        del sys.modules[name]
    # typing's caches hold the classes of aliases such as uniformity's
    # PowerSchedule, and through their methods the old module globals:
    # without this, every pass would add to the peak memory.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    package = importlib.import_module("noethops")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"noethops imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"noethops.{name}") for name in MODULES}
    modules["noethops"] = package
    return modules


# ---------------------------------------------------------------------------
# seeded input texts


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        depth += ch in "(["
        depth -= ch in ")]"
        if ch == ";" and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return [p for p in parts if p]


def _unwrap(text: str) -> str:
    """Drop one pair of parentheses enclosing the whole text."""
    text = text.strip()
    if not text.startswith("("):
        return text
    depth = 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0:
            return text[1:-1] if i == len(text) - 1 else text
    return text


def scramble_ideal(text: str, rng: random.Random | None) -> str:
    """An ideal list text with its generators shuffled and each scaled by a
    nonzero rational; unchanged when `rng` is None (seed 0)."""
    if rng is None:
        return text
    gens = _split_top_level(_unwrap(text))
    rng.shuffle(gens)
    scaled = []
    for g in gens:
        num = rng.choice([k for k in range(-9, 10) if k])
        scaled.append(f"{num}/{rng.randint(1, 9)}*({g})")
    return "(" + "; ".join(scaled) + ")"


def scramble_ring(text: str, rng: random.Random | None) -> str:
    if rng is None:
        return text
    lines = []
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key.strip() == "ring" and "/" in rest:
            head, _, quotient = rest.partition("/")
            rest = f" {head.strip()} / {scramble_ideal(quotient, rng)}"
        elif key.strip() == "radical":
            rest = " " + scramble_ideal(rest, rng)
        elif key.strip() == "minimal-primes":
            primes = _split_top_level(rest.strip()[1:-1])
            rest = " [" + "; ".join(scramble_ideal(p, rng) for p in primes) + "]"
        lines.append(f"{key}:{rest}")
    return "\n".join(lines)


def scramble_config(data: dict, rng: random.Random | None) -> dict:
    if rng is None:
        return data
    data = json.loads(json.dumps(data))
    data["ring"] = scramble_ring(data["ring"], rng)
    names = list(data["ideals"])
    rng.shuffle(names)
    data["ideals"] = {name: scramble_ideal(data["ideals"][name], rng) for name in names}
    ops = data["operators"]
    if isinstance(ops, dict):
        for comp in ops["compute"]:
            comp["ideal"] = scramble_ideal(comp["ideal"], rng)
            comp["prime"] = scramble_ideal(comp["prime"], rng)
    return data


def seeded_rng(seed: int, draw: int = 0) -> random.Random | None:
    """The generator for draw `draw` of `seed`; None (inputs as written) for seed 0."""
    return random.Random(f"{seed}:{draw}") if seed else None


# ---------------------------------------------------------------------------
# search workloads: experiment configs run end to end
#
# Why each workload is in the benchmark: the "why" fields of BENCHMARK.json.


def _as_json(value):
    """The value as it reads back from goldens.json (tuples become lists)."""
    return json.loads(json.dumps(value))


def _report_from_bundle(bundle, var_names) -> dict:
    """The bundle's JSON report, keyed by ideal name so that ideal order (which
    the seed shuffles) does not matter."""
    out = bundle.to_dict(var_names)
    out["reports"] = {rep["ideal"]: rep for rep in out["reports"]}
    reverse: dict[str, list] = {}
    for row in out.pop("reverse_checks"):
        reverse.setdefault(row["ideal"], []).append([row["n"], row["passed"]])
    out["reverse"] = reverse
    return out


class ConfigWorkload:
    """Experiment configs, loaded with `load_experiment_config` (set-up: this
    parses and computes operators for ``{"compute": ...}`` configs) and run
    with `run_experiment_config`."""

    def __init__(self, name: str, configs: dict[str, dict], paper_c: dict[str, int] | None = None):
        self.name = name
        self.configs = configs
        self.paper_c = paper_c or {}

    def build(self, modules: dict, rng: random.Random | None) -> dict:
        inputs = {}
        for cname, data in self.configs.items():
            try:
                inputs[cname] = modules["configs"].load_experiment_config(scramble_config(data, rng))
            except Exception as exc:  # counted as failed results of this config
                inputs[cname] = exc
        return inputs

    def run(self, modules: dict, inputs: dict) -> dict:
        outputs = {}
        for cname, cfg in inputs.items():
            if isinstance(cfg, Exception):
                outputs[cname] = cfg
                continue
            try:
                bundle = modules["configs"].run_experiment_config(cfg)
                outputs[cname] = _as_json(_report_from_bundle(bundle, cfg.ring.var_names))
            except Exception as exc:
                outputs[cname] = exc
        return outputs

    def check(self, outputs: dict, golden: dict) -> tuple[int, list[str]]:
        """(results attempted, descriptions of the failed ones)."""
        attempted, failed = 0, []
        for cname, want in golden.items():
            got = outputs.get(cname)
            want_shared = {k: v for k, v in want.items() if k not in ("reports", "reverse")}
            for ideal in want["reports"]:
                attempted += 1
                if isinstance(got, Exception) or got is None:
                    failed.append(f"{cname}/{ideal}: raised {got!r}")
                elif {k: v for k, v in got.items() if k not in ("reports", "reverse")} != want_shared:
                    failed.append(f"{cname}/{ideal}: config-level report differs")
                elif got["reports"].get(ideal) != want["reports"][ideal]:
                    failed.append(f"{cname}/{ideal}: report differs")
                elif got["reverse"].get(ideal) != want["reverse"].get(ideal):
                    failed.append(f"{cname}/{ideal}: reverse checks differ")
        return attempted, failed

    @staticmethod
    def colon_tests(outputs: dict) -> int:
        """(n, c) containment decisions behind the reports: c_min + 1 for a row
        that found a shift, c_max + 1 for a NOT_FOUND row."""
        total = 0
        for out in outputs.values():
            if isinstance(out, Exception):
                continue
            for rep in out["reports"].values():
                for row in rep["rows"]:
                    label = row["c_min"]
                    total += rep["c_max"] + 1 if label.startswith("NOT_FOUND") else int(label) + 1
        return total

    def summary(self, outputs: dict) -> list[str]:
        lines = []
        for cname, out in outputs.items():
            agg = "raised" if isinstance(out, Exception) else out["aggregate_c"]
            paper = f" (paper: {self.paper_c[cname]})" if cname in self.paper_c else ""
            lines.append(f"{cname}: aggregate c = {agg}{paper}")
        return lines


def _read_config(name: str) -> dict:
    with open(ROOT / "configs" / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


# The paper's shifts for the six shipped configs.
PAPER_C = {
    "artin_rees_x2": 1,
    "artin_rees_x2_computed_ops": 1,
    "artin_rees_x3": 2,
    "artin_rees_two_primes": 2,
    "briancon_skoda_x2": 0,
    "symbolic_x2": 1,
}

RING_3VAR = "ring: Q[x,y,z] / (x^2)\nradical: (x)\nminimal-primes: [(x)]"


def _paper_suite() -> ConfigWorkload:
    return ConfigWorkload(
        "paper_suite",
        {name: _read_config(name) for name in PAPER_C},
        PAPER_C,
    )


def _colon_3var() -> ConfigWorkload:
    return ConfigWorkload(
        "colon_3var",
        {
            "colon_3var": {
                "ring": RING_3VAR,
                "ideals": {"J1": "x - y; z", "J2": "x; y*z"},
                "operators": "1; dx",
                "mode": "artin_rees",
                "parameters": {"n_max": 2, "c_max": 3, "degree": 14, "seed": 0},
            }
        },
    )


def _groebner_powers() -> ConfigWorkload:
    return ConfigWorkload(
        "groebner_powers",
        {
            "groebner_powers": {
                "ring": RING_3VAR,
                "ideals": {"G1": "y^2 - x*z; z^2 - y; x*y - z"},
                "operators": "1; dx",
                "mode": "artin_rees",
                "parameters": {"n_max": 4, "c_max": 3, "degree": 6, "seed": 0},
            }
        },
    )


# ---------------------------------------------------------------------------
# dual_ops: Noetherian operators computed and certified


DUAL_ITEMS = {
    # name: (variables, primary ideal, prime, independent variables) or
    #       (variables, zero-dimensional ideal, point)
    "xyz_a": ("x,y,z", "x^3 - z*y; y^4", "x; y", "z"),
    "xyz_b": ("x,y,z", "x^4 - z*y^3; y^5", "x; y", "z"),
    "xyz_c": ("x,y,z", "x^3 - z*y^2; y^5", "x; y", "z"),
    "xy_x6": ("x,y", "x^6", "x", "y"),
    "point_120": ("x,y,z", "(x-1)^3; (y-2)^3; z^3 - (x-1)*(y-2)", (1, 2, 0)),
}
VERIFY_DEGREE = 10


def _ideal(modules: dict, text: str, var_names: list[str]):
    # wrapped, so that parse_ideal_list strips these parentheses and not those
    # of a generator such as (x-1)^3
    gens = modules["configs"].parse_ideal_list(f"({_unwrap(text)})", var_names)
    return modules["groebner"].IdealHandle(len(var_names), gens)


class DualWorkload:
    name = "dual_ops"

    def build(self, modules: dict, rng: random.Random | None) -> dict:
        names = list(DUAL_ITEMS)
        if rng is not None:
            rng.shuffle(names)
        inputs = {}
        for name in names:
            var_text, ideal_text, *rest = DUAL_ITEMS[name]
            var_names = var_text.split(",")
            Q = _ideal(modules, scramble_ideal(ideal_text, rng), var_names)
            if isinstance(rest[0], tuple):
                point = rest[0]
                maximal = _ideal(modules, "; ".join(f"{v} - {c}" for v, c in zip(var_names, point)), var_names)
                inputs[name] = (var_names, Q, point, maximal)
            else:
                prime_text, indep_text = rest
                prime = _ideal(modules, scramble_ideal(prime_text, rng), var_names)
                inputs[name] = (var_names, Q, prime, tuple(var_names.index(v) for v in indep_text.split(",")))
        return inputs

    def run(self, modules: dict, inputs: dict) -> dict:
        noetherian, diffops = modules["noetherian"], modules["diffops"]
        outputs = {}
        for name, (var_names, Q, third, fourth) in inputs.items():
            try:
                if isinstance(third, tuple):
                    ops = diffops.OperatorSet(noetherian.dual_space(Q, third), fourth)
                else:
                    ops = noetherian.noetherian_ops_primary(noetherian.PrimaryComponent(Q, third, fourth))
                cert = noetherian.verify_noetherian_ops(Q, ops, VERIFY_DEGREE)
                outputs[name] = _as_json({"status": cert.status, "operators": [op.format(var_names) for op in ops]})
            except Exception as exc:
                outputs[name] = exc
        return outputs

    def check(self, outputs: dict, golden: dict) -> tuple[int, list[str]]:
        failed = []
        for name, want in golden.items():
            got = outputs.get(name)
            if isinstance(got, Exception) or got is None:
                failed.append(f"{name}: raised {got!r}")
            elif got != want:
                failed.append(f"{name}: operators or certificate differ")
        return len(golden), failed

    @staticmethod
    def colon_tests(outputs: dict) -> int:
        return 0

    def summary(self, outputs: dict) -> list[str]:
        return [
            f"{name}: raised" if isinstance(out, Exception) else f"{name}: {out['status']}, {len(out['operators'])} operators"
            for name, out in outputs.items()
        ]


def all_workloads() -> dict:
    workloads = [_paper_suite(), _colon_3var(), _groebner_powers(), DualWorkload()]
    return {w.name: w for w in workloads}


def load_goldens() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as fh:
        return json.load(fh)
