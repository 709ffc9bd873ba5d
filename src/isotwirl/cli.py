"""Command-line front end: queries, sweeps, table emission and verification.

Each subcommand is one row of :data:`SUBCOMMANDS`: its ``cmd_*`` function,
its help line, the formats it writes (the first is its default) and its
arguments.  A ``cmd_*`` only computes: it returns its JSON object and its
text, ``None`` for one it does not write, or a function that makes one, called
only when that format is written.  :func:`main` picks the format and writes
the result to stdout or to ``--out``.
Exit codes: 0 ok, 1 verification failure, 2 usage, input or I/O error.
``--format`` is honoured or refused: a format a command does not write exits 2.
An ``--out`` path whose directory is missing or not writable exits 2 before
the command runs, so a long ``verify`` does not end in an I/O error, and an
existing file is written only once the command has succeeded.
``main`` is the one error boundary: every ``ValueError`` and ``OSError``, the
CLI's own refusals included, becomes a one-line ``error:`` message on stderr.
A ``--d`` below 1 is refused there for every command, before it runs.
Identical invocations produce byte-identical output files.
``argparse`` loads on the first :func:`main` call and ``json`` on the first
JSON output, not on import, and ``import isotwirl`` does not load this module.
"""

from __future__ import annotations

import functools
import os
import sys

from .frames import _check_fits, dim_sym, dim_unitary, format_frame, parse_frame
from .horn import basic_horn_holds, horn_feasible
from .lr import CHARACTER_ORACLE_CAP, lr_coefficient, lr_tableaux, lr_via_characters
from .spectra import (
    channel_output_spectrum,
    sweep_to_csv,
    table_to_csv,
    table_to_json_obj,
    twirl_spectrum,
    xy_optimize,
)
from .symmetric_group import character
from .verify import D_MAX_RANGE, N_MAX_RANGE, SUITES, RunConfig, run_suite

USAGE_ERROR = 2
VERIFY_FAILURE = 1
TEXT_OR_JSON = ("text", "json")


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written, before any command runs; the file is not touched."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    if not os.path.isdir(directory):
        raise ValueError(f"--out {path}: directory {directory} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ValueError(f"--out {path}: directory {directory} is not writable")


def _grid(text: str) -> list[str]:
    """The nonempty comma-separated tokens of ``--grid``, for ``sweep`` and ``verify``."""
    return [tok for tok in text.split(",") if tok.strip()]


def _fields(values: dict) -> str:
    """One line of ``key=value`` words."""
    return " ".join(f"{k}={v}" for k, v in values.items()) + "\n"


def cmd_dims(args: argparse.Namespace) -> tuple:
    lam = parse_frame(args.frame)
    shown = format_frame(lam, args.d)  # refuses a frame of more than d rows
    ds, du = dim_sym(lam), dim_unitary(lam, args.d)
    fields = {"frame": shown, "d": args.d, "dim_sym": ds, "dim_unitary": du, "projector_trace": ds * du}
    return fields, _fields(fields)


def cmd_lr(args: argparse.Namespace) -> tuple:
    lam, mu, nu = map(parse_frame, (args.lam, args.mu, args.nu))
    coeff = lr_coefficient(lam, mu, nu)
    oracle_value = lr_via_characters(lam, mu, nu) if lam.n <= CHARACTER_ORACLE_CAP else None
    agree = None if oracle_value is None else coeff == oracle_value
    obj = {"lam": str(lam), "mu": str(mu), "nu": str(nu), "coefficient": coeff,
           "character_oracle": oracle_value, "agree": agree}
    lines = [f"coefficient={coeff} character_oracle={oracle_value} agree={agree}"]
    if lam.n != mu.n + nu.n:
        obj["note"] = f"size mismatch: {lam.n} != {mu.n} + {nu.n}; coefficient is 0"
        lines.append(obj["note"])
    if args.witness:
        witnesses = [t.render() for t in lr_tableaux(lam, mu, nu)]
        obj["witnesses"] = [w.split("\n") for w in witnesses]
        for i, w in enumerate(witnesses, 1):
            lines += [f"witness {i}:", w]
    return obj, "\n".join(lines) + "\n"


def cmd_char(args: argparse.Namespace) -> tuple:
    lam, ct = parse_frame(args.lam), parse_frame(args.cycles)
    value = character(lam, ct)
    return {"lam": str(lam), "cycle_type": str(ct), "character": value}, f"character={value}\n"


def cmd_horn(args: argparse.Namespace) -> tuple:
    lam, mu, nu = map(parse_frame, (args.lam, args.mu, args.nu))
    _check_fits(args.d, lam, mu, nu)
    results = {}
    if args.basic or not args.feasible:
        results["basic"] = basic_horn_holds(lam, mu, nu)
    if args.feasible or not args.basic:
        results["feasible"] = horn_feasible(lam, mu, nu)
    return {"lam": str(lam), "mu": str(mu), "nu": str(nu), "d": args.d, **results}, _fields(results)


def cmd_spectrum(args: argparse.Namespace) -> tuple:
    lam = parse_frame(args.lam)
    if (args.q is None) == (args.k is None):
        raise ValueError("provide exactly one of --q or --k")
    if args.unnormalized and args.k is None:
        raise ValueError("--unnormalized applies to --k only")
    if args.q is not None:
        table = channel_output_spectrum(lam, args.q, args.d)
    else:
        table = twirl_spectrum(lam, args.k, args.d, normalized=not args.unnormalized)
    return functools.partial(table_to_json_obj, table), functools.partial(table_to_csv, table)


def cmd_sweep(args: argparse.Namespace) -> tuple:
    return None, sweep_to_csv(parse_frame(args.lam), args.d, _grid(args.grid), exact=args.exact)


def cmd_xy(args: argparse.Namespace) -> tuple:
    lam, lam_p = parse_frame(args.lam), parse_frame(args.lam_prime)
    extrema = xy_optimize(lam, lam_p, args.l, args.k, args.d)
    argmax, argmin = (None if t is None else [format_frame(f) for f in t] for t in (extrema.argmax, extrema.argmin))
    obj = {"lam": str(lam), "lam_prime": str(lam_p), "l": args.l, "k": args.k, "d": args.d,
           "x_max": extrema.x, "y_min": extrema.y, "argmax": argmax, "argmin": argmin}
    return obj, f"X={extrema.x} Y={extrema.y} argmax={argmax} argmin={argmin}\n"


def cmd_verify(args: argparse.Namespace) -> tuple:
    grid = {} if args.grid is None else {"q_grid": _grid(args.grid)}
    report = run_suite(args.suite, RunConfig(d_max=args.cap_d, n_max=args.cap_n, seed=args.seed, **grid))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name} ({check.checked} checks)", file=sys.stderr)
    return report.to_json_obj(), None


# Each global flag: its root default and its options; every subparser takes it too, defaulting to SUPPRESS.
GLOBAL_FLAGS = {
    "--d": (2, dict(type=int, help="local dimension / frame row budget of dims, horn, spectrum, sweep and xy, "
                                   "at least 1 (default 2)")),
    "--format": (None, dict(choices=["text", "csv", "json"],
                            help="output format: text or json; csv or json for spectrum; csv for sweep; "
                                 "json for verify (default: the first); others exit 2")),
    "--out": (None, dict(help="output file (default stdout)")),
    "--cap-n": (RunConfig.n_max, dict(type=int, help=f"size cap for verification sweeps, "
                                                     f"{N_MAX_RANGE[0]}..{N_MAX_RANGE[-1]}; "
                                                     "each check runs at min(its own largest n, cap)")),
    "--cap-d": (RunConfig.d_max, dict(type=int, help=f"dimension cap for verification sweeps, "
                                                     f"{D_MAX_RANGE[0]}..{D_MAX_RANGE[-1]}")),
    "--exact": (False, dict(action="store_const", const=True, help="emit exact rationals in sweep cells")),
    "--seed": (RunConfig.seed, dict(type=int, help="seed for sampled checks")),
}
# Each subcommand: its function, help line, the formats it writes (the default first) and its
# arguments, each a name or a (name, options) pair.
SUBCOMMANDS = {
    "dims": (cmd_dims, "dimensions and projector trace of a frame", TEXT_OR_JSON, ["frame"]),
    "lr": (cmd_lr, "Littlewood-Richardson coefficient with character cross-check", TEXT_OR_JSON, [
        "lam", "mu", "nu",
        ("--witness", dict(action="store_true", help="print the witness tableaux")),
    ]),
    "char": (cmd_char, "symmetric-group character at a cycle type", TEXT_OR_JSON, ["lam", "cycles"]),
    "horn": (cmd_horn, "eigenvalue-sum checks for a spectra triple", TEXT_OR_JSON, [
        "lam", "mu", "nu",
        ("--basic", dict(action="store_true", help="only the basic inequality family")),
        ("--feasible", dict(action="store_true", help="only exact feasibility (LR positivity)")),
    ]),
    "spectrum": (cmd_spectrum, "output spectrum over isotypical blocks", ("csv", "json"), [
        "lam",
        ("--q", dict(help="depolarising weight (rational, e.g. 1/4 or 0.25)")),
        ("--k", dict(type=int, help="number of maximally mixed sites instead of --q")),
        ("--unnormalized", dict(action="store_true",
                                help="with --k: weights for the unnormalized projector instead of the flat state")),
    ]),
    "sweep": (cmd_sweep, "spectrum table for a grid of depolarising weights", ("csv",), [
        "lam",
        ("--grid", dict(required=True, help="comma-separated weights, e.g. 0.1,0.2,0.3")),
    ]),
    "xy": (cmd_xy, "extremal dimension products over connecting chains", TEXT_OR_JSON, [
        "lam", "lam_prime", ("l", dict(type=int)), ("k", dict(type=int)),
    ]),
    "verify": (cmd_verify, "run a verification suite and emit its JSON report", ("json",), [
        ("suite", dict(help=" | ".join([*SUITES, "all"]))),
        ("--grid", dict(help="override the q grid for the tail suite")),
    ]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first :func:`main` call; parsing leaves it unchanged."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="isotwirl",
        description="Exact spectra of depolarised permutation-invariant states over isotypical blocks.",
    )
    # The parent's SUPPRESS defaults let a global flag stand on either side of the
    # subcommand without the subparser clobbering a root-level value.
    common = argparse.ArgumentParser(add_help=False)
    for flag, (default, options) in GLOBAL_FLAGS.items():
        parser.add_argument(flag, default=default, **options)
        common.add_argument(flag, default=argparse.SUPPRESS, **options)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line, parents=[common])
        for arg in arguments:
            arg_name, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(arg_name, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, _, formats, _ = SUBCOMMANDS[args.command]
    fmt = args.format or formats[0]
    try:
        if args.d < 1:
            raise ValueError(f"--d must be >= 1, got d={args.d}")
        if fmt not in formats:
            raise ValueError(f"{args.command} writes {' or '.join(formats)}, not {fmt}")
        if args.out:
            _check_out(args.out)
        obj, text = command(args)
        if fmt == "json":
            import json

            text = json.dumps(obj() if callable(obj) else obj, indent=2, sort_keys=True) + "\n"
        elif callable(text):
            text = text()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return VERIFY_FAILURE if args.command == "verify" and not obj["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
