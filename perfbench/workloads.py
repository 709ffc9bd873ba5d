"""Workload inputs, the operations they time, and exact checks of every output.

The seed draws the depolarising weights and the order of the operations.  It
never chooses frame sizes, because cost depends strongly on the frame; all
frames come from ``enumerate_frames``, inside the package's caps.

Outputs are checked after the timed phase against references recorded once by
``make_reference.py``: the normalised twirl spectra of every frame the fast
path workloads use (they do not depend on ``q``, so any seed can be checked)
and the per-check counts of ``verify all``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FAST_FRAME_SETS = ((2, 16), (3, 12), (4, 10))
DENSE_SIZES = ((2, 8), (3, 6), (4, 5))
Q_DENOMINATOR_MAX = 12
SWEEP_POINTS = 19
VERIFY_CAP_N = 6
WORKLOADS = ("fastpath-spectra", "sweep-grid", "dense-spectrum", "verify-all")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TWIRL_REFERENCE = REFERENCE_DIR / "twirl_spectra.json"
VERIFY_REFERENCE = REFERENCE_DIR / "verify_counts.json"


@dataclass(frozen=True)
class Op:
    workload: str
    index: int
    d: int = 0
    frame: str = ""  # zero-padded to d rows, as format_frame writes it
    q: tuple[Fraction, ...] = ()
    seed: int = 0


def _random_q(rng: random.Random) -> Fraction:
    b = rng.randint(2, Q_DENOMINATOR_MAX)
    return Fraction(rng.randint(1, b - 1), b)


def _middle(frames: list) -> object:
    return frames[len(frames) // 2]


def plan(workload: str, seed: int) -> list[Op]:
    """The operations of one run, drawn from ``seed``."""
    from isotwirl.frames import enumerate_frames, format_frame

    rng = random.Random(seed)
    if workload == "fastpath-spectra":
        specs = [(d, format_frame(lam, d), (_random_q(rng),))
                 for d, n in FAST_FRAME_SETS for lam in enumerate_frames(d, n)]
    elif workload == "sweep-grid":
        grid_pool = sorted({Fraction(a, b) for b in range(2, Q_DENOMINATOR_MAX + 1) for a in range(1, b)})
        specs = [(d, format_frame(_middle(enumerate_frames(d, n)), d), tuple(rng.sample(grid_pool, SWEEP_POINTS)))
                 for d, n in FAST_FRAME_SETS]
    elif workload == "dense-spectrum":
        specs = [(d, format_frame(_middle(enumerate_frames(d, n)), d), (_random_q(rng),))
                 for d, n in DENSE_SIZES]
    elif workload == "verify-all":
        specs = [(0, "", ())]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(specs)
    return [Op(workload, i, d, frame, q, seed) for i, (d, frame, q) in enumerate(specs)]


def _q_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def run(op: Op, workdir: Path):
    """Execute one operation; the result is checked later by :func:`problems`."""
    from isotwirl import cli, frames, oracle, spectra

    if op.workload == "fastpath-spectra":
        return spectra.channel_output_spectrum(frames.parse_frame(op.frame), op.q[0], op.d)
    if op.workload == "sweep-grid":
        out = workdir / f"sweep-{op.index}.csv"
        code = cli.main(["sweep", op.frame, "--d", str(op.d), "--grid", ",".join(map(_q_text, op.q)),
                         "--exact", "--out", str(out)])
        return code, out
    if op.workload == "dense-spectrum":
        oracle.clear_projector_cache()
        lam = frames.parse_frame(op.frame)
        family = oracle.isotypical_projectors(op.d, lam.n)
        output = oracle.depolarise_n(family[lam], op.q[0])
        norm = frames.dim_sym(lam) * frames.dim_unitary(lam, op.d)
        return {lam_p: proj.hs_product(output) / norm for lam_p, proj in family.items()}
    out = workdir / "verify.json"
    code = cli.main(["verify", "all", "--cap-n", str(VERIFY_CAP_N), "--seed", str(op.seed), "--out", str(out)])
    return code, out


# -- exact checks ---------------------------------------------------------------


def load_twirl_reference() -> dict:
    return json.loads(TWIRL_REFERENCE.read_text())


def load_verify_reference() -> dict[str, int]:
    return json.loads(VERIFY_REFERENCE.read_text())


def mixture(twirl_by_k: list[dict[str, str]], q: Fraction) -> dict[str, Fraction]:
    """sum_k C(n,k) q^k (1-q)^(n-k) times the k-site twirl spectrum, nonzero entries."""
    n = len(twirl_by_k) - 1
    out: dict[str, Fraction] = {}
    for k, spectrum in enumerate(twirl_by_k):
        w = math.comb(n, k) * q**k * (1 - q) ** (n - k)
        for frame, value in spectrum.items():
            out[frame] = out.get(frame, Fraction(0)) + w * Fraction(value)
    return {f: v for f, v in out.items() if v}


def table_problems(weights: dict[str, Fraction], expected: dict[str, Fraction]) -> list[str]:
    """Differences between a weight table and the exact expected table."""
    found = []
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        found.append(f"weights sum to {total}, not 1")
    for frame in sorted(set(weights) | set(expected)):
        got, want = weights.get(frame, Fraction(0)), expected.get(frame, Fraction(0))
        if got != want:
            found.append(f"weight of {frame}: {got} != {want}")
    return found


def sweep_problems(text: str, d: int, frame: str, grid: tuple[Fraction, ...], reference: dict) -> list[str]:
    """Check an exact sweep CSV column by column against the reference mixture."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if header != ["frame"] + [f"q={_q_text(q)}" for q in grid]:
        return [f"unexpected header {header}"]
    block = reference[f"{d},{sum(map(int, frame.split(',')))}"]
    if [r[0] for r in body] != block["frames"]:
        return ["frame axis differs from the reference"]
    found = []
    for j, q in enumerate(grid, start=1):
        column = {r[0]: Fraction(r[j]) for r in body}
        found += [f"q={_q_text(q)}: {p}" for p in table_problems(column, mixture(block["twirl"][frame], q))]
    return found


def verify_problems(report_text: str, reference: dict[str, int]) -> list[str]:
    """A passing report with exactly the reference per-check counts."""
    found = []
    report = json.loads(report_text)
    if report.get("passed") is not True:
        found.append("report does not pass")
    counts = {c["name"]: c["checked"] for c in report.get("checks", [])}
    for name in sorted(set(counts) | set(reference)):
        if counts.get(name) != reference.get(name):
            found.append(f"check {name}: checked {counts.get(name)} != reference {reference.get(name)}")
    found += [f"check {c['name']} failed" for c in report.get("checks", []) if not c.get("passed")]
    return found


def problems(op: Op, output, twirl_reference: dict, verify_reference: dict[str, int]) -> list[str]:
    """Everything wrong with one operation's output; empty when it is exact."""
    from isotwirl import frames, spectra

    if op.workload == "fastpath-spectra":
        n = sum(map(int, op.frame.split(",")))
        weights = {frames.format_frame(lam, op.d): w for lam, w in output}
        expected = mixture(twirl_reference[f"{op.d},{n}"]["twirl"][op.frame], op.q[0])
        return table_problems(weights, expected)
    if op.workload == "dense-spectrum":
        lam = frames.parse_frame(op.frame)
        fast = spectra.channel_output_spectrum(lam, op.q[0], op.d)
        dense = {frames.format_frame(f, op.d): w for f, w in output.items()}
        return table_problems(dense, {frames.format_frame(f, op.d): w for f, w in fast})
    code, path = output
    if code != 0:
        return [f"exit code {code}"]
    if op.workload == "sweep-grid":
        return sweep_problems(path.read_text(), op.d, op.frame, op.q, twirl_reference)
    return verify_problems(path.read_text(), verify_reference)
