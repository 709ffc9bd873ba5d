"""Replay a committed record of CLI runs in-process: argv, stdout, stderr and exit code of each.

The record in ``data/cli_record.json`` holds one entry per argv of
:data:`COMMANDS`.  Each run that exits 0 and shows no help is replayed once
more with ``--out``, whose file must hold the recorded stdout.  After a change
meant to move an output, rewrite the record with

    PYTHONPATH=src python tests/test_cli_record.py

and read the diff of the record: every line that moved is a changed output.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from isotwirl import cli

RECORD = Path(__file__).resolve().parent / "data" / "cli_record.json"
# argparse wraps help texts to the terminal width it reads from COLUMNS
COLUMNS = "80"

COMMANDS = [
    ["--help"],
    *([command, "--help"] for command in ("dims", "lr", "char", "horn", "spectrum", "sweep", "xy", "verify")),
    [],
    ["dims", "4,2,1", "--d", "3"],
    ["dims", "4,2,1", "--d", "3", "--format", "json"],
    ["lr", "3,2,1", "2,1", "2,1"],
    ["lr", "3,2,1", "2,1", "2,1", "--format", "json"],
    ["lr", "3,1", "2", "1,1", "--witness"],
    ["lr", "3,1", "2", "1,1", "--witness", "--format", "json"],
    ["lr", "3,1", "1", "1"],
    ["lr", "3,1", "1", "1", "--format", "json"],
    ["lr", "6,5", "6", "5"],
    ["lr", "6,5", "6", "5", "--format", "json"],
    ["char", "2,1", "3"],
    ["char", "2,1", "1,1,1", "--format", "json"],
    ["char", "2,1", "2,2"],
    ["horn", "2,1", "1", "1,1"],
    ["horn", "2,1", "1", "1,1", "--format", "json"],
    ["horn", "2,2", "2", "1,1", "--basic"],
    ["horn", "2,2", "2", "1,1", "--feasible", "--format", "json"],
    ["xy", "4,2", "3,3", "3", "3"],
    ["xy", "4,2", "3,3", "3", "3", "--format", "json"],
    ["spectrum", "4,3,2", "--d", "3", "--q", "2/9"],
    ["spectrum", "4,3,2", "--d", "3", "--q", "2/9", "--format", "json"],
    ["spectrum", "4,3,2", "--d", "3", "--k", "2"],
    ["spectrum", "4,3,2", "--d", "3", "--k", "2", "--format", "json"],
    ["spectrum", "4,3,2", "--d", "3", "--k", "2", "--unnormalized"],
    ["spectrum", "4,3,2", "--d", "3", "--k", "2", "--unnormalized", "--format", "json"],
    ["sweep", "7,5", "--grid", "0.1,0.5,0.9"],
    ["sweep", "7,5", "--grid", "0.1,0.5,0.9", "--exact"],
    ["verify", "saturation", "--cap-n", "5", "--cap-d", "4"],
    ["--d", "0", "dims", "2,1"],
    ["dims", "2,1", "--format", "csv"],
    ["verify", "nope"],
    ["verify", "all", "--cap-n", "65"],
    ["sweep", "4,0", "--grid", ","],
    ["--d", "1000000000000", "horn", "2,1", "1", "1,1"],
]


def run(argv):
    """The exit code of ``cli.main(argv)``; ``--help`` and argparse's refusals end in ``SystemExit``."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_cli_outputs_match_the_record(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    record = json.loads(RECORD.read_text())
    assert [entry["argv"] for entry in record] == COMMANDS
    for entry in record:
        code = run(entry["argv"])
        out, err = capsys.readouterr()
        assert (out, err, code) == (entry["stdout"], entry["stderr"], entry["code"]), entry["argv"]


def test_recorded_outputs_through_out(capsys, monkeypatch, tmp_path):
    # every run that writes a result writes the same bytes to --out, and nothing to stdout
    monkeypatch.setenv("COLUMNS", COLUMNS)
    out = tmp_path / "out"
    for entry in json.loads(RECORD.read_text()):
        if entry["code"] != 0 or "--help" in entry["argv"]:
            continue
        code = run([*entry["argv"], "--out", str(out)])
        assert (*capsys.readouterr(), code) == ("", entry["stderr"], entry["code"]), entry["argv"]
        assert out.read_bytes() == entry["stdout"].encode(), entry["argv"]
        out.unlink()


def write_record():
    os.environ["COLUMNS"] = COLUMNS
    record = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        record.append({"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code})
    RECORD.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    write_record()
