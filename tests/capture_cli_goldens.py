"""Capture the CLI byte goldens: stdout, stderr and exit code of a fixed list
of command lines, run through `noethops.cli.main` in-process.

    PYTHONPATH=src python tests/capture_cli_goldens.py <commit sha>

writes `tests/cli_goldens.json`, recording the sha of the tree it ran on.
Before it overwrites that file it prints the argv of every run whose stdout,
stderr or exit code differs from the old file, and how many runs were added
and removed, so a refresh can be reviewed run by run.
`tests/test_cli_goldens.py` replays every command line and compares bytes.
Config paths are relative to the repository root, which is the working
directory of every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from noethops.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "cli_goldens.json"

CONFIGS = sorted(f"configs/{p.name}" for p in (ROOT / "configs").glob("*.json"))

R2 = "ring: Q[x,y]"
R3 = "ring: Q[x,y,z]"
R1 = "ring: Q[x]"
R4 = "ring: Q[x,y,u,v]"
RING_X2 = "ring: Q[x,y] / (x^2)\nradical: (x)\nminimal-primes: [(x)]\n"
RING_X3 = "ring: Q[x,y] / (x^3)\nradical: (x)\nminimal-primes: [(x)]\n"
RING_X2Y = "ring: Q[x,y] / (x^2*y)\nradical: (x*y)\nminimal-primes: [(x); (y)]\n"
RING_NESTED = "ring: Q[x,y] / (x^2)\nradical: (x)\nminimal-primes: [(x); (x; y)]\n"  # (x; y) is not minimal


def _config_runs() -> list[list[str]]:
    runs = []
    for cfg in CONFIGS:
        runs += [
            ["experiment", cfg, "--format", "json"],
            ["experiment", cfg, "--format", "csv"],
            ["find-c", cfg, "--format", "csv"],
            ["find-c", cfg, "--format", "json"],
            ["check-bs", cfg, "--format", "csv"],
            ["check-symb", cfg, "--format", "csv"],
            ["check-ar-reverse", cfg],
        ]
    return runs


# (ring, arguments) of `noeth-ops`; each runs in text and in JSON
NOETH_OPS = [
    # points at the origin
    (R2, ["--ideal", "x; y", "--point", "0,0"]),
    (R2, ["--ideal", "x^2; y", "--point", "0,0"]),
    (R2, ["--ideal", "x^2; x*y; y^2", "--point", "0,0"]),
    (R2, ["--ideal", "x^2; y - x", "--point", "0,0"]),
    (R2, ["--ideal", "x^2 - y^3; x*y", "--point", "0,0"]),
    (R2, ["--ideal", "x^6; y", "--point", "0,0"]),
    (R1, ["--ideal", "x^4", "--point", "0"]),
    # points away from the origin, and at fractional coordinates
    (R2, ["--ideal", "(x-1)^2; y - 2", "--point", "1,2"]),
    (R2, ["--ideal", "(x+3)^3; (y-1)^2; (x+3)*(y-1)", "--point=-3,1"]),
    (R2, ["--ideal", "(x-1/2)^2; (y+2/3)^2", "--point", "1/2,-2/3"]),
    (R2, ["--ideal", "(2*x-1)^2; 3*y + 1 - (2*x - 1)", "--point", "1/2,-1/3"]),
    (R3, ["--ideal", "(x-1)^3; (y-2)^3; z^3 - (x-1)*(y-2)", "--point", "1,2,0"]),
    (R3, ["--ideal", "x^2; y^2; z^2; x*y*z", "--point", "0,0,0"]),
    # components over Q(u)
    (R2, ["--ideal", "x^2", "--prime", "x", "--independent", "y"]),
    (R2, ["--ideal", "x^3", "--prime", "x", "--independent", "y"]),
    (R2, ["--ideal", "x^6", "--prime", "x", "--independent", "y"]),
    (R2, ["--ideal", "(x - y)^2", "--prime", "x - y", "--independent", "y"]),
    (R2, ["--ideal", "(x - y^2)^3", "--prime", "x - y^2", "--independent", "y"]),
    (R2, ["--ideal", "(x*y - 1)^2", "--prime", "x*y - 1", "--independent", "y"]),
    (R2, ["--ideal", "y^2", "--prime", "y", "--independent", "x"]),
    (R3, ["--ideal", "x^3 - z*y; y^4", "--prime", "x; y", "--independent", "z"]),
    (R3, ["--ideal", "x^4 - z*y^3; y^5", "--prime", "x; y", "--independent", "z"]),
    (R3, ["--ideal", "x^3 - z*y^2; y^5", "--prime", "x; y", "--independent", "z"]),
    (R3, ["--ideal", "x^2; y^2", "--prime", "x; y", "--independent", "z"]),
    (R3, ["--ideal", "(x - z)^2; y - z^2", "--prime", "x - z; y - z^2", "--independent", "z"]),
    (R3, ["--ideal", "x^2; (z*y - 1)^2; x*(z*y - 1)", "--prime", "x; z*y - 1", "--independent", "z"]),
    # a component over Q(u, v)
    (R4, [
        "--ideal", "(u*x - v - 3)^2; ((v+2)*y - u + 1)^2",
        "--prime", "u*x - v - 3; (v+2)*y - u + 1",
        "--independent", "u,v",
    ]),
    # error paths
    (R2, ["--ideal", "x*(x-1); y", "--point", "0,0"]),
    (R2, ["--ideal", "y*(y-1)", "--prime", "y", "--independent", "x"]),
    (R2, ["--ideal", "x^2; x*y", "--prime", "x", "--independent", "y"]),
    (R2, ["--ideal", "x^2*y", "--prime", "x", "--independent", "y"]),
    (R2, ["--ideal", "x^2; x*(y-1)", "--prime", "x", "--independent", "y"]),
    (R2, ["--ideal", "x; y", "--point", "1,0"]),
    (R2, ["--ideal", "x; y", "--point", "0"]),
    (R2, ["--ideal", "x; y", "--point", "a,b"]),
    (R2, ["--ideal", "x; y"]),
    (R2, ["--ideal", "x^2 - 2", "--prime", "x^2 - 2", "--independent", "y"]),
    (R2, ["--ideal", "x^2 - y", "--prime", "x^2 - y", "--independent", "y"]),
    (R2, ["--ideal", "x - 1", "--prime", "x", "--independent", "y"]),
    (R2, ["--ideal", "x; y", "--prime", "x; y", "--independent", "y"]),
    (R2, ["--ideal", "x^2", "--prime", "x; y"]),
    (R2, ["--ideal", "x^2", "--prime", "x"]),
    (R2, ["--ideal", "x^^2", "--prime", "x", "--independent", "y"]),
    (R2, ["--ideal", "x^2", "--prime", "x", "--independent", "w"]),
    (R2, ["--ideal", "x^3; y", "--point", "0,0", "--degree", "2"]),
    ("no-such-ring-file.txt", ["--ideal", "x", "--point", "0"]),
]


def _noeth_ops_runs() -> list[list[str]]:
    runs = []
    for ring, args in NOETH_OPS:
        runs.append(["noeth-ops", ring] + args)
        runs.append(["noeth-ops", ring] + args + ["--format", "json"])
    return runs


VERIFY_OPS = [
    [RING_X2, "--ideal", "x^2", "--ops", "1", "--degree", "4"],
    [RING_X2, "--ideal", "x^2", "--ops", "1; dx"],
    [RING_X2, "--ideal", "x^2", "--ops", "1; dx; dx^2", "--degree", "4"],
    [RING_X2, "--ideal", "x - y", "--ops", "1; dx", "--degree", "5"],
    [RING_X2, "--ideal", "x^2", "--ops", "1; dx", "--format", "json"],
    [RING_X3, "--ideal", "x^3", "--ops", "1; dx; dx^2"],
    [RING_X3, "--ideal", "x^3", "--ops", "1; dx", "--degree", "4", "--format", "json"],
    [RING_X2Y, "--ideal", "x^2*y", "--ops", "y; x*dx", "--degree", "5"],
    [R1, "--ideal", "x^2", "--ops", "1; dx^3", "--modulus", "x", "--degree", "4"],
    [R1, "--ideal", "x^2", "--ops", "1; dx^3", "--modulus", "x", "--degree", "4", "--format", "json"],
    [R1, "--ideal", "x^2", "--ops", "1; dx", "--modulus", "x", "--degree", "4"],
    [R2, "--ideal", "x", "--ops", "1; dx*dy", "--modulus", "x", "--degree", "4"],
    [R2, "--ideal", "x^2; y", "--ops", "1; dx", "--modulus", "x; y", "--degree", "4"],
    [R2, "--ideal", "(x-1)^2; y", "--ops", "1; dx", "--modulus", "x - 1; y", "--degree", "4"],
    [R2, "--ideal", "x^2; y", "--ops", "1; dx", "--modulus", "1", "--degree", "4"],
    [R2, "--ideal", "x^2; y", "--ops", "0", "--modulus", "x; y", "--degree", "4"],
    [RING_X2, "--ideal", "x^2", "--ops", "1; dx", "--modulus", "0"],
    [RING_X2, "--ideal", "x^2", "--ops", "1; dx", "--degree", "1"],
    [RING_X2, "--ideal", "x^2", "--ops", "1; dz"],
]

OTHER = [
    ["diff-colon", RING_X2, "--ops", "1; dx", "--ideal", "y", "-m", "0", "--degree", "3"],
    ["diff-colon", RING_X2, "--ops", "1; dx", "--ideal", "x - y", "-m", "2", "--degree", "4"],
    ["diff-colon", RING_X2, "--ops", "1; dx", "--ideal", "x; y", "-m", "1", "--degree", "3"],
    ["diff-colon", RING_X3, "--ops", "1; dx; dx^2", "--ideal", "y", "-m", "2", "--degree", "4"],
    ["sep-op", RING_X3, "--lower", "0", "--upper", "x^2", "--prime", "x", "--psi", "1"],
    ["sep-op", RING_X3, "--lower", "0", "--upper", "x^2", "--prime", "x", "--psi", "1", "--t-max", "1"],
    ["sep-op", RING_X2, "--lower", "x*y", "--upper", "x", "--prime", "x", "--psi", "1"],
    ["sep-op", RING_X2, "--lower", "0", "--upper", "x", "--prime", "x", "--psi", "0"],
    ["verify-filtration", RING_X2, "--chain", "(x^2) | (x) | (1)", "--primes", "(x) | (x)"],
    ["verify-filtration", RING_X2, "--chain", "(x^2) | (x^2) | (1)", "--primes", "(x) | (x)"],
    ["noeth-ops", RING_NESTED, "--ideal", "x^2", "--prime", "x", "--independent", "y"],
]


def argv_list() -> list[list[str]]:
    return (
        _config_runs()
        + _noeth_ops_runs()
        + [["verify-ops"] + args for args in VERIFY_OPS]
        + OTHER
    )


def run(argv: list[str]) -> dict:
    """stdout, stderr and exit code of one in-process CLI run, from the
    repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def compare(old: list[dict], new: list[dict]) -> tuple[list[tuple[int, list[str]]], int, int]:
    """((index in `new`, argv) of each run in both lists whose outputs differ,
    the number of runs only in `new`, the number only in `old`); runs are
    matched by argv."""
    before = {json.dumps(r["argv"]): r for r in old}
    keys = [json.dumps(r["argv"]) for r in new]
    changed = [(i, r["argv"]) for i, (key, r) in enumerate(zip(keys, new)) if key in before and before[key] != r]
    return changed, len(set(keys) - before.keys()), len(before.keys() - set(keys))


def main(sha: str) -> None:
    runs = [run(argv) for argv in argv_list()]
    old = json.loads(GOLDENS.read_text(encoding="utf-8"))["runs"] if GOLDENS.exists() else []
    changed, added, removed = compare(old, runs)
    for i, argv in changed:
        print(f"changed run {i}: {json.dumps(argv)}")
    print(f"{len(changed)} changed, {added} added, {removed} removed")
    GOLDENS.write_text(json.dumps({"captured_at": sha, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(runs)} runs written to {GOLDENS.name}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: capture_cli_goldens.py <commit sha of the tree it runs on>")
    main(sys.argv[1])
