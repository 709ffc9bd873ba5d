"""Command-line front end: queries, sweeps, table emission and verification.

Subcommands: dims, lr, char, horn, spectrum, sweep, xy, verify.
Exit codes: 0 ok, 1 verification failure, 2 usage, input or I/O error.
``--format`` is honoured or refused: a format a command does not write exits 2.
An ``--out`` path whose directory is missing or not writable exits 2 before
the command runs, so a long ``verify`` does not end in an I/O error.
``main`` is the one error boundary: every ``ValueError`` (``InputError``
included) and ``OSError`` becomes a one-line ``error:`` message on stderr.
A ``--d`` below 1 is refused there for every command, before it runs.
Identical invocations produce byte-identical output files.
``argparse`` and ``json`` load on the first :func:`main` call, not on import,
and ``import isotwirl`` does not load this module.
"""

from __future__ import annotations

import functools
import os
import sys

from .frames import dim_sym, dim_unitary, format_frame, parse_frame
from .horn import HornTriple, basic_horn_holds, horn_feasible
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


class InputError(ValueError):
    """Bad user input: reported on stderr, exit code 2."""


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written, before any command runs; the file is not touched."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise InputError(f"--out {path} is a directory")
    if not os.path.isdir(directory):
        raise InputError(f"--out {path}: directory {directory} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise InputError(f"--out {path}: directory {directory} is not writable")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _grid(text: str) -> list[str]:
    """The nonempty comma-separated tokens of ``--grid``, for ``sweep`` and ``verify``."""
    return [tok for tok in text.split(",") if tok.strip()]


def cmd_dims(args: argparse.Namespace) -> int:
    lam = parse_frame(args.frame)
    shown = format_frame(lam, args.d)  # refuses a frame of more than d rows
    ds, du = dim_sym(lam), dim_unitary(lam, args.d)
    fields = {"frame": shown, "d": args.d, "dim_sym": ds, "dim_unitary": du, "projector_trace": ds * du}
    text = _json_dump(fields) if args.format == "json" else " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"
    _emit(text, args.out)
    return 0


def cmd_lr(args: argparse.Namespace) -> int:
    lam = parse_frame(args.lam)
    mu = parse_frame(args.mu)
    nu = parse_frame(args.nu)
    note = None
    if lam.n != mu.n + nu.n:
        note = f"size mismatch: {lam.n} != {mu.n} + {nu.n}; coefficient is 0"
    coeff = lr_coefficient(lam, mu, nu)
    if lam.n <= CHARACTER_ORACLE_CAP:
        oracle_value = lr_via_characters(lam, mu, nu)
        agree = coeff == oracle_value
    else:
        oracle_value, agree = None, None
    witnesses = lr_tableaux(lam, mu, nu) if args.witness else []
    if args.format == "json":
        obj = {
            "lam": str(lam),
            "mu": str(mu),
            "nu": str(nu),
            "coefficient": coeff,
            "character_oracle": oracle_value,
            "agree": agree,
        }
        if note:
            obj["note"] = note
        if args.witness:
            obj["witnesses"] = [t.render().split("\n") for t in witnesses]
        text = _json_dump(obj)
    else:
        lines = [f"coefficient={coeff} character_oracle={oracle_value} agree={agree}"]
        if note:
            lines.append(note)
        for i, t in enumerate(witnesses, 1):
            lines.append(f"witness {i}:")
            lines.append(t.render())
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_char(args: argparse.Namespace) -> int:
    lam = parse_frame(args.lam)
    ct = parse_frame(args.cycles)
    value = character(lam, ct)
    if args.format == "json":
        text = _json_dump({"lam": str(lam), "cycle_type": str(ct), "character": value})
    else:
        text = f"character={value}\n"
    _emit(text, args.out)
    return 0


def cmd_horn(args: argparse.Namespace) -> int:
    lam = parse_frame(args.lam)
    mu = parse_frame(args.mu)
    nu = parse_frame(args.nu)
    triple = HornTriple(lam, mu, nu, args.d)
    results = {}
    if args.basic or not args.feasible:
        results["basic"] = basic_horn_holds(triple)
    if args.feasible or not args.basic:
        results["feasible"] = horn_feasible(triple)
    if args.format == "json":
        text = _json_dump({"lam": str(lam), "mu": str(mu), "nu": str(nu), "d": args.d, **results})
    else:
        text = " ".join(f"{k}={v}" for k, v in results.items()) + "\n"
    _emit(text, args.out)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    lam = parse_frame(args.lam)
    if (args.q is None) == (args.k is None):
        raise InputError("provide exactly one of --q or --k")
    if args.unnormalized and args.k is None:
        raise InputError("--unnormalized applies to --k only")
    if args.q is not None:
        table = channel_output_spectrum(lam, args.q, args.d)
    else:
        table = twirl_spectrum(lam, args.k, args.d, normalized=not args.unnormalized)
    fmt = args.format or "csv"
    text = _json_dump(table_to_json_obj(table)) if fmt == "json" else table_to_csv(table)
    _emit(text, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _emit(sweep_to_csv(parse_frame(args.lam), args.d, _grid(args.grid), exact=args.exact), args.out)
    return 0


def cmd_xy(args: argparse.Namespace) -> int:
    lam = parse_frame(args.lam)
    lam_p = parse_frame(args.lam_prime)
    extrema = xy_optimize(lam, lam_p, args.l, args.k, args.d)
    fmt_triple = (
        lambda t: None if t is None else [format_frame(f) for f in t]
    )
    if args.format == "json":
        text = _json_dump(
            {
                "lam": str(lam),
                "lam_prime": str(lam_p),
                "l": args.l,
                "k": args.k,
                "d": args.d,
                "x_max": extrema.x,
                "y_min": extrema.y,
                "argmax": fmt_triple(extrema.argmax),
                "argmin": fmt_triple(extrema.argmin),
            }
        )
    else:
        text = (
            f"X={extrema.x} Y={extrema.y} "
            f"argmax={fmt_triple(extrema.argmax)} argmin={fmt_triple(extrema.argmin)}\n"
        )
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    grid = {} if args.grid is None else {"q_grid": _grid(args.grid)}
    cfg = RunConfig(d_max=args.cap_d, n_max=args.cap_n, seed=args.seed, **grid)
    report = run_suite(args.suite, cfg)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name} ({check.checked} checks)", file=sys.stderr)
    _emit(_json_dump(report.to_json_obj()), args.out)
    return 0 if report.passed else VERIFY_FAILURE


def _add_global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    import argparse

    # The same flags live on the root parser (with real defaults) and on each
    # subparser (defaulting to SUPPRESS), so they are accepted on either side
    # of the subcommand without the subparser clobbering root-level values.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--d", type=int, default=default(2),
                        help="local dimension / frame row budget of dims, horn, spectrum, sweep and xy, "
                             "at least 1 (default 2)")
    parser.add_argument("--format", choices=["text", "csv", "json"], default=default(None),
                        help="output format: text or json; csv or json for spectrum; csv for "
                             "sweep; json for verify (default: the first); others exit 2")
    parser.add_argument("--out", default=default(None), help="output file (default stdout)")
    parser.add_argument("--cap-n", type=int, default=default(RunConfig.n_max),
                        help=f"size cap for verification sweeps, {N_MAX_RANGE[0]}..{N_MAX_RANGE[-1]}; "
                             "each check runs at min(its own largest n, cap)")
    parser.add_argument("--cap-d", type=int, default=default(RunConfig.d_max),
                        help=f"dimension cap for verification sweeps, {D_MAX_RANGE[0]}..{D_MAX_RANGE[-1]}")
    parser.add_argument("--exact", action="store_const", const=True, default=default(False),
                        help="emit exact rationals in sweep cells")
    parser.add_argument("--seed", type=int, default=default(RunConfig.seed), help="seed for sampled checks")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first :func:`main` call; parsing leaves it unchanged."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="isotwirl",
        description="Exact spectra of depolarised permutation-invariant states over isotypical blocks.",
    )
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimensions and projector trace of a frame", parents=[common])
    p.add_argument("frame")
    p.set_defaults(fn=cmd_dims, formats=TEXT_OR_JSON)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient with character cross-check", parents=[common])
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--witness", action="store_true", help="print the witness tableaux")
    p.set_defaults(fn=cmd_lr, formats=TEXT_OR_JSON)

    p = sub.add_parser("char", help="symmetric-group character at a cycle type", parents=[common])
    p.add_argument("lam")
    p.add_argument("cycles")
    p.set_defaults(fn=cmd_char, formats=TEXT_OR_JSON)

    p = sub.add_parser("horn", help="eigenvalue-sum checks for a spectra triple", parents=[common])
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--basic", action="store_true", help="only the basic inequality family")
    p.add_argument("--feasible", action="store_true", help="only exact feasibility (LR positivity)")
    p.set_defaults(fn=cmd_horn, formats=TEXT_OR_JSON)

    p = sub.add_parser("spectrum", help="output spectrum over isotypical blocks", parents=[common])
    p.add_argument("lam")
    p.add_argument("--q", default=None, help="depolarising weight (rational, e.g. 1/4 or 0.25)")
    p.add_argument("--k", type=int, default=None, help="number of maximally mixed sites instead of --q")
    p.add_argument("--unnormalized", action="store_true",
                   help="with --k: weights for the unnormalized projector instead of the flat state")
    p.set_defaults(fn=cmd_spectrum, formats=("csv", "json"))

    p = sub.add_parser("sweep", help="spectrum table for a grid of depolarising weights", parents=[common])
    p.add_argument("lam")
    p.add_argument("--grid", required=True, help="comma-separated weights, e.g. 0.1,0.2,0.3")
    p.set_defaults(fn=cmd_sweep, formats=("csv",))

    p = sub.add_parser("xy", help="extremal dimension products over connecting chains", parents=[common])
    p.add_argument("lam")
    p.add_argument("lam_prime")
    p.add_argument("l", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(fn=cmd_xy, formats=TEXT_OR_JSON)

    p = sub.add_parser("verify", help="run a verification suite and emit its JSON report", parents=[common])
    p.add_argument("suite", help=" | ".join([*SUITES, "all"]))
    p.add_argument("--grid", default=None, help="override the q grid for the tail suite")
    p.set_defaults(fn=cmd_verify, formats=("json",))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.d < 1:
            raise InputError(f"--d must be >= 1, got d={args.d}")
        if args.format not in (None, *args.formats):
            raise InputError(f"{args.command} writes {' or '.join(args.formats)}, not {args.format}")
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
