"""Command-line front end.

Exit codes: 0 success, 1 input error (usage errors included), 2 refutation
(a refuted certificate or filtration prints its report; a refuted input
claim, `RefutedError`, prints one `refuted: ...` line on stderr and no
report, and a failed theorem-backed check, an arithmetic bug, one
`arithmetic bug: ...` line), 3 search exhaustion.  Output is
deterministic for a fixed config and seed; report ordering follows the
config, never completion order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace

from .configs import (
    ConfigError,
    load_experiment_config,
    load_ring,
    parse_ideal_list,
    primary_component,
    run_experiment_config,
)
from .diffops import ArithmeticBugError, RefutedError, parse_operator_set
from .noetherian import dual_space, noetherian_ops_primary, verify_noetherian_ops
from .poly import rational
from .uniformity import (
    check_reverse,
    diff_colon,
    separating_operator,
    verify_filtration,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUTED = 2
EXIT_EXHAUSTED = 3


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _emit_certificate(args, ring, cert, head: list[str]) -> int:
    """The certificate as JSON, or as the `head` lines then its status and
    any witness; exit 0 unless it refutes."""
    if args.format == "json":
        _emit(_json_text(cert.to_dict(ring.var_names)), args.out)
    else:
        lines = head + [f"status: {cert.status}"]
        if cert.witness is not None:
            lines.append(f"witness: {ring.format(cert.witness)} ({cert.witness_side})")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if cert.ok else EXIT_REFUTED


# ---------------------------------------------------------------------------
# subcommands


def _parse_point(text: str) -> list:
    try:
        return [rational(part.strip()) for part in text.split(",")]
    except ZeroDivisionError:
        raise ConfigError(f"point {text!r} has a coordinate with denominator 0") from None


def cmd_noeth_ops(args) -> int:
    ring = load_ring(args.ring)
    if args.point is not None:
        Q = ring.ideal(parse_ideal_list(args.ideal, ring.var_names))
        ops = dual_space(Q, _parse_point(args.point))
    elif args.prime is None:
        raise ConfigError("need either --point or --prime with --independent")
    else:
        comp = primary_component(ring, args.ideal, args.prime, args.independent or "")
        Q, ops = comp.Q, noetherian_ops_primary(comp)
    cert = verify_noetherian_ops(Q, ops, args.degree)
    return _emit_certificate(args, ring, cert, [ops.format(ring.var_names)])


def cmd_verify_ops(args) -> int:
    ring = load_ring(args.ring)
    a = ring.plus_N(ring.ideal(parse_ideal_list(args.ideal, ring.var_names)))
    # an empty --modulus lists no generator: the zero ideal, as "0" is
    modulus = ring.ideal(parse_ideal_list(args.modulus, ring.var_names)) if args.modulus is not None else ring.rad
    ops = parse_operator_set(args.ops, ring.var_names, modulus)
    cert = verify_noetherian_ops(a, ops, args.degree)
    return _emit_certificate(args, ring, cert, [])


def cmd_diff_colon(args) -> int:
    ring = load_ring(args.ring)
    ops = parse_operator_set(args.ops, ring.var_names, ring.rad)
    I = ring.image_in_reduced(ring.ideal(parse_ideal_list(args.ideal, ring.var_names)))
    S = diff_colon(I, args.power, ops, ring, args.degree)
    full_dim = len(S.monos)
    lines = []
    if S.dim == full_dim:
        lines.append(f"full space: every polynomial of degree <= {args.degree} lies in the colon")
    lines.append(f"dimension: {S.dim} of {full_dim}")
    lines.extend(ring.format(f) for f in S.basis)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    """find-c, check-bs, check-symb and experiment: run the loaded config
    with the command's mode (experiment keeps the config's) and with each
    option given in place of the config's value."""
    cfg = load_experiment_config(args.config)
    overrides = {k: getattr(args, k) for k in ("mode", "seed", "n_max", "c_max", "degree")}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    bundle = run_experiment_config(cfg)
    if args.format == "csv":
        _emit(_csv_text(bundle.csv_rows(cfg.ring.var_names)), args.out)
    else:
        _emit(_json_text(bundle.to_dict(cfg.ring.var_names)), args.out)
    return EXIT_EXHAUSTED if bundle.aggregate_c is None else EXIT_OK


def cmd_check_ar_reverse(args) -> int:
    """One `pass` line per ideal and n; a failed check raises, before any
    line is printed."""
    cfg = load_experiment_config(args.config)
    if args.n_max is not None:
        cfg = replace(cfg, n_max=args.n_max)
    lines = []
    for name, J in cfg.ideals:
        for n in range(1, cfg.n_max + 1):
            check_reverse(J, cfg.operators, cfg.ring, n, ideal_name=name)
            lines.append(f"{name} n={n}: pass")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sep_op(args) -> int:
    ring = load_ring(args.ring)
    a = ring.ideal(parse_ideal_list(args.lower, ring.var_names))
    b = ring.ideal(parse_ideal_list(args.upper, ring.var_names))
    p = ring.ideal(parse_ideal_list(args.prime, ring.var_names))
    psi = parse_ideal_list(args.psi, ring.var_names)
    result = separating_operator(a, b, ring, p, psi, args.t_max, args.coeff_deg)
    if result is None:
        _emit(f"no operator up to order {args.t_max} with coefficient degree {args.coeff_deg}\n", args.out)
        return EXIT_EXHAUSTED
    lines = [
        result.delta.format(ring.var_names),
        f"order: {result.delta.order}",
        f"d: {result.d_value.format(ring.var_names)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify_filtration(args) -> int:
    ring = load_ring(args.ring)
    chain = [ring.ideal(parse_ideal_list(part, ring.var_names)) for part in args.chain.split("|")]
    primes = [ring.ideal(parse_ideal_list(part, ring.var_names)) for part in args.primes.split("|")]
    report = verify_filtration(chain, primes, ring)
    lines = []
    for step in report.steps:
        status = "pass" if step.passed else "FAIL"
        lines.append(f"step {step.index}: {status}" + (f" ({'; '.join(step.problems)})" if step.problems else ""))
    lines.append(f"last proper term is a minimal prime: {'yes' if report.last_term_is_minimal_prime else 'NO'}")
    lines.append(f"note: {report.note}")
    lines.append(f"result: {'pass' if report.passed else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_REFUTED


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1 with the usage, not argparse's
    2, which the exit-code contract keeps for refutations.  Subparsers are
    made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_output(sub, formats: tuple[str, ...] = ()) -> None:
    """--format over the formats the command prints (the first is the
    default), when it prints more than one, and --out."""
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noethops",
        description="Noetherian differential operators, differential colons, and uniform-shift experiments over Q",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("noeth-ops", help="operators describing a primary ideal, with certificate")
    s.add_argument("ring")
    s.add_argument("--ideal", required=True)
    s.add_argument("--point", default=None, help="rational coordinates, e.g. '0,0'")
    s.add_argument("--prime", default=None)
    s.add_argument("--independent", default=None, help="comma-separated independent variables")
    s.add_argument("--degree", type=int, default=8)
    _add_output(s, ("text", "json"))
    s.set_defaults(func=cmd_noeth_ops)

    s = subs.add_parser("verify-ops", help="verify or refute a claimed operator set")
    s.add_argument("ring")
    s.add_argument("--ideal", required=True)
    s.add_argument("--ops", required=True)
    s.add_argument("--modulus", default=None, help="target modulus ideal; defaults to the radical")
    s.add_argument("--degree", type=int, default=8)
    _add_output(s, ("text", "json"))
    s.set_defaults(func=cmd_verify_ops)

    s = subs.add_parser("diff-colon", help="degree-truncated differential colon basis")
    s.add_argument("ring")
    s.add_argument("--ops", required=True)
    s.add_argument("--ideal", required=True)
    s.add_argument("-m", "--power", type=int, required=True)
    s.add_argument("--degree", type=int, default=8)
    _add_output(s)
    s.set_defaults(func=cmd_diff_colon)

    for name, mode, help_text in (
        ("find-c", "artin_rees", "minimal uniform shifts for ordinary powers"),
        ("check-bs", "briancon_skoda", "minimal shifts with integral closures of powers"),
        ("check-symb", "symbolic", "minimal shifts with symbolic powers"),
        ("experiment", None, "run the experiment described by the config"),
    ):
        s = subs.add_parser(name, help=help_text)
        s.add_argument("config")
        s.add_argument("--seed", type=int, default=None)
        s.add_argument("--n-max", type=int, default=None, help="override the config value")
        s.add_argument("--c-max", type=int, default=None, help="override the config value")
        s.add_argument("--degree", type=int, default=None, help="override the config value")
        _add_output(s, ("json", "csv"))
        s.set_defaults(func=cmd_experiment, mode=mode)

    s = subs.add_parser("check-ar-reverse", help="theorem-backed reverse containment checks")
    s.add_argument("config")
    s.add_argument("--n-max", type=int, default=None)
    _add_output(s)
    s.set_defaults(func=cmd_check_ar_reverse)

    s = subs.add_parser("sep-op", help="minimal-order operator separating two nested ideals")
    s.add_argument("ring")
    s.add_argument("--lower", required=True)
    s.add_argument("--upper", required=True)
    s.add_argument("--prime", required=True)
    s.add_argument("--psi", required=True, help="images of the upper generators in R/p")
    s.add_argument("--t-max", type=int, default=3)
    s.add_argument("--coeff-deg", type=int, default=2)
    _add_output(s)
    s.set_defaults(func=cmd_sep_op)

    s = subs.add_parser("verify-filtration", help="structural checks for a prime filtration")
    s.add_argument("ring")
    s.add_argument("--chain", required=True, help="ideals separated by '|', from the defining ideal to (1)")
    s.add_argument("--primes", required=True, help="one prime per step, separated by '|'")
    _add_output(s)
    s.set_defaults(func=cmd_verify_filtration)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RefutedError as exc:
        sys.stderr.write(f"refuted: {exc}\n")
        return EXIT_REFUTED
    except ArithmeticBugError as exc:
        sys.stderr.write(f"arithmetic bug: {exc}\n")
        return EXIT_REFUTED
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
