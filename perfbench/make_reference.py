"""Record the reference data the benchmark checks outputs against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference/twirl_spectra.json`` (the normalised twirl
spectrum of every frame of the fast-path frame sets, for every k) and
``perfbench/reference/verify_counts.json`` (the per-check counts of
``verify all`` at the benchmark's cap).  Neither depends on the seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from isotwirl.frames import enumerate_frames, format_frame  # noqa: E402
from isotwirl.spectra import twirl_spectrum  # noqa: E402
from isotwirl.verify import RunConfig, run_suite  # noqa: E402

from workloads import FAST_FRAME_SETS, TWIRL_REFERENCE, VERIFY_CAP_N, VERIFY_REFERENCE  # noqa: E402


def twirl_reference() -> dict:
    out = {}
    for d, n in FAST_FRAME_SETS:
        frames = enumerate_frames(d, n)
        out[f"{d},{n}"] = {
            "frames": [format_frame(lam, d) for lam in frames],
            "twirl": {
                format_frame(lam, d): [
                    {format_frame(f, d): f"{w.numerator}/{w.denominator}" for f, w in twirl_spectrum(lam, k, d)}
                    for k in range(n + 1)
                ]
                for lam in frames
            },
        }
    return out


def verify_counts() -> dict[str, int]:
    report = run_suite("all", RunConfig(n_max=VERIFY_CAP_N))
    if not report.passed:
        raise SystemExit("verify all fails; refusing to record it as the reference")
    return {c.name: c.checked for c in report.checks}


def main() -> None:
    TWIRL_REFERENCE.parent.mkdir(exist_ok=True)
    TWIRL_REFERENCE.write_text(json.dumps(twirl_reference(), sort_keys=True, separators=(",", ":")) + "\n")
    VERIFY_REFERENCE.write_text(json.dumps(verify_counts(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
