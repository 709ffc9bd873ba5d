import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isotwirl import cli
from isotwirl.verify import SUITES

CLI = [sys.executable, "-m", "isotwirl.cli"]


def run_fresh(*args):
    """``python -m isotwirl.cli`` in a fresh interpreter, for what only a new process shows."""
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """``cli.main`` in this process, read as a subprocess run would be; an exception escaping it fails the test.

    argparse wraps usage and help texts to the width it reads from ``COLUMNS``.
    """
    monkeypatch.setenv("COLUMNS", "80")

    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        return Run(code, *capsys.readouterr())

    return run


def test_dims_text(run_cli):
    res = run_cli("dims", "2,1")
    assert res.returncode == 0
    assert res.stdout == "frame=2,1 d=2 dim_sym=2 dim_unitary=2 projector_trace=4\n"
    res = run_cli("dims", "3", "--d", "2")
    assert "dim_sym=1 dim_unitary=4" in res.stdout


def test_dims_json_and_global_flag_positions(run_cli):
    before = run_cli("--d", "3", "--format", "json", "dims", "2,1")
    after = run_cli("dims", "2,1", "--d", "3", "--format", "json")
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout
    obj = json.loads(after.stdout)
    assert obj["dim_unitary"] == 8 and obj["frame"] == "2,1,0"


def test_dims_errors(run_cli):
    res = run_cli("dims", "2,1,1")
    assert res.returncode == 2 and "more than 2 rows" in res.stderr
    res = run_cli("dims", "1,2")
    assert res.returncode == 2 and "token 2" in res.stderr
    res = run_cli("dims", "2,x")
    assert res.returncode == 2 and "not an integer" in res.stderr


def test_lr_command(run_cli):
    res = run_cli("lr", "2", "1", "1")
    assert res.returncode == 0
    assert "coefficient=1" in res.stdout and "agree=True" in res.stdout
    res = run_cli("lr", "2,2", "2", "1,1")
    assert "coefficient=0" in res.stdout
    res = run_cli("lr", "3,1", "2", "1,1", "--witness")
    assert "witness 1:" in res.stdout and ". . 1" in res.stdout
    res = run_cli("lr", "3", "1", "1")
    assert res.returncode == 0 and "size mismatch" in res.stdout and "coefficient=0" in res.stdout
    # the character oracle runs up to its cap of 10 boxes, the cap included
    assert run_cli("lr", "5,5", "5", "5").stdout == "coefficient=1 character_oracle=1 agree=True\n"


def test_char_command(run_cli):
    res = run_cli("char", "2,1", "3")
    assert res.returncode == 0 and res.stdout == "character=-1\n"
    res = run_cli("char", "2,1", "1,1,1")
    assert res.stdout == "character=2\n"
    res = run_cli("char", "2,1", "2,2")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: size mismatch: frame has 3 boxes, cycle type 4\n"


def test_horn_command(run_cli):
    res = run_cli("horn", "2,1", "1", "1,1")
    assert res.returncode == 0 and res.stdout == "basic=True feasible=True\n"
    res = run_cli("horn", "2,2", "2", "1,1", "--basic")
    assert res.stdout == "basic=False\n"
    res = run_cli("horn", "2,2", "2", "1,1", "--feasible")
    assert res.stdout == "feasible=False\n"
    # no local dimension below 1: --d 0 once printed basic=True feasible=True
    for d in ("0", "-3"):
        res = run_cli("horn", "0", "0", "0", "--d", d)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"error: --d must be >= 1, got d={d}\n"


def test_horn_cost_does_not_grow_with_d():
    # the basic inequalities once looped over every i, j <= d: about 25 minutes at d = 100000; padding the
    # frames to d rows then took 4 s and 1.5 GB at d = 10^8, and exited 2 at this d
    res = subprocess.run([*CLI, "--d", "1000000000000", "horn", "2,1", "1", "1,1"], capture_output=True, text=True,
                         timeout=10)
    assert res.returncode == 0 and res.stdout == "basic=True feasible=True\n"


# one call of every subcommand, valid at every --d >= 1
SUBCOMMAND_ARGS = {
    "dims": ("3",),
    "lr": ("2", "1", "1"),
    "char": ("2,1", "3"),
    "horn": ("2", "1", "1"),
    "spectrum": ("4", "--q", "1/2"),
    "sweep": ("4", "--grid", "0.5"),
    "xy": ("4", "4", "2", "2"),
    "verify": ("tail", "--cap-n", "2"),
}


@pytest.mark.parametrize("command", SUBCOMMAND_ARGS)
def test_d_below_one_refused_by_every_subcommand(command, capsys):
    # lr, char and verify read no --d, yet once exited 0 on --d -1; dims --d -3 blamed the frame
    subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(SUBCOMMAND_ARGS) == set(subcommands.choices)
    call = [command, *SUBCOMMAND_ARGS[command]]
    for d in ("0", "-3"):
        for args in ([*call, "--d", d], ["--d", d, *call]):
            assert cli.main(args) == 2
            assert capsys.readouterr() == ("", f"error: --d must be >= 1, got d={d}\n")
    assert cli.main([*call, "--d", "1"]) == 0
    assert "error" not in capsys.readouterr().err


LONG_Q = "0.12345678901234567890123456789012345678901"


def test_exact_weights_past_the_int_digit_limit(default_digit_limit, capsys):
    # at n = 128 the weights of a q with 41 decimals run to about 5200 digits; spectrum (csv and json)
    # and sweep --exact once exited 2 on str(int).  The limit is not lifted for the caller
    from isotwirl.frames import format_frame, parse_frame
    from isotwirl.spectra import channel_output_spectrum

    table = channel_output_spectrum(parse_frame("64,64"), LONG_Q, 2)
    sys.set_int_max_str_digits(0)
    expected = {format_frame(f, 2): (str(w.numerator), str(w.denominator)) for f, w in table}
    sys.set_int_max_str_digits(4300)
    assert max(len(den) for _, den in expected.values()) > 4300
    assert cli.main(["spectrum", "64,64", "--q", LONG_Q]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert {",".join(row[:2]).strip('"'): (row[2], row[3]) for row in rows} == expected
    assert cli.main(["spectrum", "64,64", "--q", LONG_Q, "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert {e["frame"]: tuple(e["weight"].split("/")) for e in entries} == expected
    assert cli.main(["sweep", "64,64", "--grid", LONG_Q, "--exact"]) == 0
    header, *cells = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert header == ["frame", "q=12345678901234567890123456789012345678901/" + "1" + "0" * 41]
    swept = {",".join(row[:2]).strip('"'): tuple(row[2].split("/")) for row in cells}
    assert {f: v for f, v in swept.items() if v != ("0", "1")} == expected
    assert sys.get_int_max_str_digits() == 4300


def test_out_of_range_weight_quotes_its_input(default_digit_limit, capsys):
    # the parsed Fraction of 1e5000 has 5001 digits: formatting it once raised the digit-limit error
    long_text = "2" + "0" * 100
    for args, shown in (
        (["spectrum", "3,1", "--q", "1e5000"], "1e5000"),
        (["spectrum", "3,1", "--q", "1.5"], "1.5"),
        (["spectrum", "3,1", "--q", long_text], "2" + "0" * 39 + "... (101 characters)"),
        (["spectrum", "3,1", "--q", long_text[:40]], long_text[:40]),  # 40 characters are quoted whole
        (["sweep", "3,1", "--grid", f"0.5,{long_text}"], "2" + "0" * 39 + "... (101 characters)"),
    ):
        assert cli.main(args) == 2
        assert capsys.readouterr() == ("", f"error: depolarising weight must lie in [0, 1], got {shown}\n")


# 5000 decimals: Fraction(str) reads them through int(), past the interpreter's default digit limit
LONG_DECIMAL = "0." + "1" * 5000
LONG_DECIMAL_VALUE = Fraction((10**5000 - 1) // 9, 10**5000)


def test_decimal_past_the_digit_limit_is_read_exactly(default_digit_limit, capsys):
    # spectrum --q, sweep --grid and verify --grid once refused it as "not a rational number"
    from isotwirl.frames import parse_frame, rational_text
    from isotwirl.spectra import channel_output_spectrum, sweep_to_csv, table_to_csv

    lam = parse_frame("3,1")
    assert cli.main(["spectrum", "3,1", "--q", LONG_DECIMAL]) == 0
    assert capsys.readouterr().out == table_to_csv(channel_output_spectrum(lam, LONG_DECIMAL_VALUE, 2))
    assert cli.main(["sweep", "3,1", "--grid", f"1/2,{LONG_DECIMAL}", "--exact"]) == 0
    assert capsys.readouterr().out == sweep_to_csv(lam, 2, [Fraction(1, 2), LONG_DECIMAL_VALUE], exact=True)
    # the report writes q through rational_text, in the config and in the output-mode info
    assert cli.main(["verify", "tail", "--cap-n", "2", "--grid", LONG_DECIMAL]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["q_grid"] == [rational_text(LONG_DECIMAL_VALUE)]
    mode_check = next(c for c in report["checks"] if c["name"] == "output_mode_matches_oracle")
    assert [m["q"] for m in mode_check["info"]["modes"]] == [rational_text(LONG_DECIMAL_VALUE)]
    # a long number outside [0, 1] is named as such, in one short line
    assert cli.main(["spectrum", "3,1", "--q", "1" + "0" * 5000]) == 2
    assert capsys.readouterr() == (
        "", "error: depolarising weight must lie in [0, 1], got " + "1" + "0" * 39 + "... (5001 characters)\n"
    )
    assert cli.main(["spectrum", "3,1", "--q", LONG_DECIMAL + "x"]) == 2
    assert capsys.readouterr().err == "error: '0." + "1" * 38 + "'... (5003 characters) is not a rational number\n"


def test_spectrum_command(tmp_path: Path, run_cli):
    res = run_cli("spectrum", "4,0", "--q", "0")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "frame,weight_numerator,weight_denominator,weight_float"
    assert len(lines) == 2 and lines[1].startswith('"4,0",1,1,')
    res = run_cli("spectrum", "4,0", "--k", "1")
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 3  # support {(4,0), (3,1)}
    # weights sum to one
    total = sum(
        int(line.rsplit(",", 3)[1]) / int(line.rsplit(",", 3)[2]) for line in lines[1:]
    )
    assert abs(total - 1.0) < 1e-15
    out = tmp_path / "table.json"
    res = run_cli("spectrum", "4,0", "--q", "1/2", "--format", "json", "--out", str(out))
    assert res.returncode == 0
    obj = json.loads(out.read_text())
    assert obj["entries"][0]["weight"] == "121/256"


def test_spectrum_errors(run_cli):
    assert run_cli("spectrum", "4,0").returncode == 2
    assert run_cli("spectrum", "4,0", "--q", "1/2", "--k", "1").returncode == 2
    assert run_cli("spectrum", "4,0", "--q", "3/2").returncode == 2
    assert run_cli("spectrum", "4,0", "--k", "9").returncode == 2


def test_sweep_command(run_cli):
    res = run_cli("sweep", "4,0", "--grid", "0,1")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "frame,q=0/1,q=1/1"
    assert lines[1] == '"4,0",1.0,0.3125'
    res_exact = run_cli("sweep", "4,0", "--grid", "0,1", "--exact")
    assert '"4,0",1/1,5/16' in res_exact.stdout
    assert run_cli("sweep", "4,0", "--grid", "").returncode == 2


def test_xy_command(run_cli):
    res = run_cli("xy", "4,0", "3,1", "2", "2")
    assert res.returncode == 0 and res.stdout.startswith("X=1 Y=1")
    res = run_cli("xy", "4,0", "2,2", "3", "1", "--format", "json")
    obj = json.loads(res.stdout)
    assert obj["x_max"] == 0 and obj["argmax"] is None
    assert run_cli("xy", "4,0", "3,1", "1", "1").returncode == 2


def test_verify_small_suite(tmp_path: Path, run_cli):
    out = tmp_path / "report.json"
    res = run_cli("verify", "xybound", "--cap-n", "4", "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["suite"] == "xybound"
    assert all(c["passed"] for c in report["checks"])
    assert "[PASS]" in res.stderr


def test_verify_unknown_suite(run_cli):
    res = run_cli("verify", "bogus")
    assert res.returncode == 2
    assert res.stderr == "error: unknown suite 'bogus'; choose from saturation, support, oracle, tail, xybound, all\n"


def test_dims_refuses_a_d_no_padding_reaches_with_the_frame_as_written(run_cli):
    res = run_cli("dims", "3,1", "--d", "100000000000000000000")
    assert res.returncode == 2
    assert res.stderr == "error: frame 3,1 cannot be padded to 100000000000000000000 rows\n"


def test_verify_keyerror_inside_a_check_is_not_an_unknown_suite(monkeypatch, capsys):
    # the suite name is refused before any check runs; a check's own KeyError propagates
    from isotwirl import verify

    def broken(n_max):
        raise KeyError("inside a check")

    monkeypatch.setattr(verify, "check_xy_entropy_bound", broken)
    with pytest.raises(KeyError, match="inside a check"):
        cli.main(["verify", "xybound", "--cap-n", "3"])
    assert "unknown suite" not in capsys.readouterr().err


def test_verify_failure_exit_code(monkeypatch, capsys):
    from isotwirl.verify import CheckResult, RunConfig, SuiteReport

    broken = CheckResult("broken")
    broken.record(False, "example failure")
    failing = SuiteReport("tail", RunConfig(), [broken])
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: failing)
    assert cli.main(["verify", "tail"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] broken" in captured.err
    assert '"passed": false' in captured.out


def test_verify_defaults_are_the_readme_caps(monkeypatch):
    # --cap-n 6, --cap-d 3, seed 0 and the grid 1/10..9/10: RunConfig holds them, the parser reads them
    from isotwirl.verify import RunConfig, SuiteReport

    readme = RunConfig(d_max=3, n_max=6, q_grid=tuple(Fraction(i, 10) for i in range(1, 10)), seed=0)
    assert RunConfig() == readme
    args = cli.build_parser().parse_args(["verify", "tail"])
    assert (args.cap_n, args.cap_d, args.seed, args.grid) == (6, 3, 0, None)
    made = []
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: made.append(cfg) or SuiteReport(name, cfg, []))
    assert cli.main(["verify", "tail"]) == 0
    assert made == [readme]


def test_out_path_checked_before_any_suite_runs(monkeypatch, capsys, tmp_path: Path):
    def refuse(name, cfg):
        raise AssertionError("a suite ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    for out, reason in (
        (tmp_path / "missing" / "x.json", "does not exist"),
        (tmp_path, "is a directory"),
    ):
        assert cli.main(["verify", "all", "--cap-n", "10", "--cap-d", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")
        assert str(out) in err and reason in err
    assert not (tmp_path / "missing").exists()


def test_out_file_untouched_until_written(monkeypatch, capsys, tmp_path: Path):
    # a command that fails after the --out check leaves an existing file as it was
    out = tmp_path / "report.json"
    out.write_text("kept\n")

    def fail(name, cfg):
        raise ValueError("suite stopped")

    monkeypatch.setattr(cli, "run_suite", fail)
    assert cli.main(["verify", "tail", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: suite stopped\n"
    assert out.read_text() == "kept\n"


def test_verify_deterministic(tmp_path: Path, run_cli):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        res = run_cli("verify", "saturation", "--cap-n", "4", "--out", str(path))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_files_byte_identical(tmp_path: Path, run_cli):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli("sweep", "6,0", "--grid", "0.1,0.5,0.9", "--out", str(path)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


DATA = Path(__file__).parent / "data"
# 19 weights from 0 to 1, one of them written as a decimal
GRID_19 = "0,1/12,1/9,1/7,1/5,2/9,1/4,0.3,1/3,2/5,1/2,4/7,3/5,2/3,3/4,4/5,7/8,11/12,1"


@pytest.mark.parametrize(
    "args, golden",
    [
        # recorded from the per-frame dot-product fast path the lattice push replaced
        (("sweep", "8,4", "--d", "2", "--grid", "1/7,1/2,11/12", "--exact"), "sweep_8_4_d2_exact.csv"),
        (("spectrum", "4,3,2", "--d", "3", "--q", "2/9"), "spectrum_4_3_2_d3_q2_9.csv"),
        # recorded from the sweep that read its cells back from one Fraction table per q
        (("sweep", "7,5,0", "--d", "3", "--grid", GRID_19, "--exact"), "sweep_7_5_0_d3_exact.csv"),
        (("sweep", "7,5,0", "--d", "3", "--grid", GRID_19), "sweep_7_5_0_d3.csv"),
        (("sweep", "5,5,0,0", "--d", "4", "--grid", GRID_19, "--exact"), "sweep_5_5_0_0_d4_exact.csv"),
        (("sweep", "5,5,0,0", "--d", "4", "--grid", GRID_19), "sweep_5_5_0_0_d4.csv"),
        # recorded from the writers that read one Fraction table per spectrum
        (("spectrum", "4,3,2", "--d", "3", "--q", "2/9", "--format", "json"), "spectrum_4_3_2_d3_q2_9.json"),
        (("spectrum", "4,3,2", "--d", "3", "--k", "2"), "spectrum_4_3_2_d3_k2.csv"),
        (("spectrum", "4,3,2", "--d", "3", "--k", "2", "--unnormalized"), "spectrum_4_3_2_d3_k2_unnormalized.csv"),
    ],
)
def test_cli_output_matches_golden_file(args, golden):
    res = subprocess.run([*CLI, *args], capture_output=True)
    assert res.returncode == 0
    assert res.stdout == (DATA / golden).read_bytes()


def test_main_reuses_one_parser_without_carrying_state(tmp_path: Path, capsys, monkeypatch):
    # one process, one parser: no flag of one call leaks into the next
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "a.csv"
    golden = lambda name: (DATA / name).read_text()  # noqa: E731
    usage = run_fresh("sweep")
    cli.build_parser.cache_clear()
    assert cli.main(["sweep", "7,5,0", "--d", "3", "--grid", GRID_19, "--exact", "--out", str(out)]) == 0
    assert out.read_text() == golden("sweep_7_5_0_d3_exact.csv")
    calls = [
        (["sweep", "7,5,0", "--d", "3", "--grid", GRID_19], golden("sweep_7_5_0_d3.csv")),
        (["--d", "4", "sweep", "5,5,0,0", "--grid", GRID_19], golden("sweep_5_5_0_0_d4.csv")),
        (["sweep", "5,5,0,0", "--grid", GRID_19, "--exact", "--d", "4"], golden("sweep_5_5_0_0_d4_exact.csv")),
        (["sweep", "8,4", "--grid", "1/7,1/2,11/12", "--exact"], golden("sweep_8_4_d2_exact.csv")),
    ]
    capsys.readouterr()
    for argv, expected in calls:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep"])
    assert exit_info.value.code == usage.returncode == 2
    assert capsys.readouterr().err == usage.stderr
    assert cli.main(["sweep", "4,0", "--grid", "0.5", "--format", "json"]) == 2
    assert capsys.readouterr().err == "error: sweep writes csv, not json\n"
    assert cli.main(["spectrum", "4,3,2", "--d", "3", "--q", "2/9"]) == 0
    assert capsys.readouterr().out == golden("spectrum_4_3_2_d3_q2_9.csv")
    assert cli.build_parser.cache_info().misses == 1


def test_module_runs_as_a_script():
    # the one help run in a fresh interpreter: ``python -m isotwirl.cli`` reaches main and exits with its code
    res = subprocess.run([*CLI, "--help"], capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"})
    record = json.loads((DATA / "cli_record.json").read_text())
    assert (res.returncode, res.stdout, res.stderr) == (0, record[0]["stdout"], "")
    assert record[0]["argv"] == ["--help"]


def test_importing_the_cli_parses_nothing():
    # pytest has loaded argparse already, so the imports are read in a fresh interpreter
    script = (
        "import sys\n"
        "loaded = lambda: [m for m in ('argparse', 'gettext', 'json', 'isotwirl.cli') if m in sys.modules]\n"
        "import isotwirl\n"
        "print(loaded())\n"
        "from isotwirl import cli\n"
        "print(loaded())\n"
        "cli.main(['dims', '2,1'])\n"
        "print(loaded())\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "[]",
        "['isotwirl.cli']",
        "frame=2,1 d=2 dim_sym=2 dim_unitary=2 projector_trace=4",
        "['argparse', 'gettext', 'isotwirl.cli']",
    ]


ONES_500 = ",".join(["1"] * 500)
# The answer a command gives where it succeeds on an edge case.
ANSWERS = {
    # c^lam_{mu nu} = 0 across sizes is an answer, not an input error
    ("lr", "3,1", "2", "1,1,1"): "size mismatch",
    ("char", "500", ONES_500): "character=1\n",  # the trivial character at the identity
    ("lr", "1000,1000", "1000", "1000"): "coefficient=1 ",  # Pieri: lam/mu is a horizontal strip
    # horn reads the frames' rows, never d of them
    ("--d", "99999999999999999999", "horn", "2,1", "1", "1,1"): "basic=True feasible=True\n",
    ("--d", "1000000000000000000", "horn", "2,1", "1", "1,1"): "basic=True feasible=True\n",
}


@pytest.mark.parametrize(
    "args, code",
    [
        (("dims", "2,1"), 0),
        (("verify", "xybound", "--cap-n", "2"), 0),
        (("xy", "4,0", "3,1", "2", "2", "--d", "7"), 2),
        (("xy", "4,0,0", "3,1", "2", "2", "--d", "1"), 2),
        (("xy", "4,0", "3,1", "1", "1"), 2),
        (("horn", "1,1,1", "1", "1,1"), 2),
        (("spectrum", "2,1,1", "--q", "1/2"), 2),
        (("spectrum", "4,0", "--k", "9"), 2),
        (("sweep", "2,1,1", "--grid", "0.5"), 2),
        (("sweep", "4,0", "--grid", ","), 2),
        (("verify", "all", "--cap-n", "65"), 2),
        (("spectrum", "4,0", "--q", "1/2", "--out", "{missing}/x.csv"), 2),
        (("char", "2,1", "3", "--out", "{missing}/y"), 2),
        (("verify", "tail", "--cap-n", "4", "--out", "{missing}/z.json"), 2),
        (("dims", "2,1", "--format", "csv"), 2),
        (("char", "2,1", "3", "--format", "csv"), 2),
        (("lr", "2", "1", "1", "--format", "csv"), 2),
        (("horn", "2,1", "1", "1,1", "--format", "csv"), 2),
        (("xy", "4,0", "3,1", "2", "2", "--format", "csv"), 2),
        (("verify", "xybound", "--cap-n", "2", "--format", "csv"), 2),
        (("sweep", "4,0", "--grid", "0.5", "--format", "json"), 2),
        (("spectrum", "4,0", "--k", "1", "--format", "text"), 2),
        (("lr", "3,1", "2", "1,1,1"), 0),
        (("verify", "tail", "--cap-n", "2", "--cap-d", "5"), 2),
        (("verify", "tail", "--cap-n", "65"), 2),
        (("spectrum", "65,64", "--q", "1/2"), 2),
        (("verify", "tail", "--cap-n", "2", "--cap-d", "4"), 0),
        (("verify", "tail", "--grid", ","), 2),
        # characters and LR coefficients whose recursion would outgrow the stack
        (("char", "500", ONES_500), 0),
        (("lr", "1000,1000", "1000", "1000"), 0),
        # an empty q grid is refused, not read as the default; --unnormalized needs --k
        (("verify", "tail", "--grid", ""), 2),
        (("spectrum", "2,1", "--q", "1/3", "--unnormalized"), 2),
        # a --d past sys.maxsize: padding the frame to d rows once raised OverflowError; dims prints
        # the padded frame and refuses, horn pads nothing and answers
        (("--d", "99999999999999999999", "dims", "65"), 2),
        (("--d", "99999999999999999999", "horn", "2,1", "1", "1,1"), 0),
        # a --d below sys.maxsize whose padding no memory holds: it once raised MemoryError
        (("--d", "1000000000000000000", "dims", "65"), 2),
        (("--d", "1000000000000000000", "horn", "2,1", "1", "1,1"), 0),
    ],
)
def test_exit_codes_without_traceback(tmp_path: Path, args, code, run_cli):
    args = [a.format(missing=tmp_path / "missing") for a in args]
    res = run_cli(*args)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    if code == 2:
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    if code == 0 and tuple(args) in ANSWERS:
        assert ANSWERS[tuple(args)] in res.stdout


# The CLI's argument grammar: each subcommand's words, one drawn from each pool, and its options, valid and
# invalid values at small sizes only; "{out}" stands for a directory under tmp_path.
FRAMES = ("0", "1", "3", "2,1", "1,1", "2,2", "4,1", "3,1,0", "2,1,1", "3,2,1", "1,2", "x", "", "-1,0")
RATIONALS = ("0", "1", "1/2", "2/9", "0.3", "-1/3", "3/2", "1/0", "abc", "")
INTEGERS = ("-1", "0", "1", "2", "3", "x")
GRIDS = ("0.5", "1/3,1/2", "0,1", ",", "", "2", "abc")
GLOBAL_OPTIONS = {
    "--d": ("-1", "0", "1", "2", "3", "4", "99999999999999999999", "x"),
    "--format": ("text", "csv", "json", "xml"),
    "--out": ("{out}/a.txt", "{out}/missing/a.txt", "{out}"),
    "--cap-n": ("0", "1", "2", "3", "65"),
    "--cap-d": ("1", "2", "3", "4", "5"),
    "--seed": INTEGERS,
    "--exact": None,
}
COMMANDS = {
    "dims": ((FRAMES,), {}),
    "lr": ((FRAMES,) * 3, {"--witness": None}),
    "char": ((FRAMES,) * 2, {}),
    "horn": ((FRAMES,) * 3, {"--basic": None, "--feasible": None}),
    "spectrum": ((FRAMES, ("--q", "--k"), RATIONALS + INTEGERS), {"--unnormalized": None, "--k": INTEGERS}),
    "sweep": ((FRAMES, ("--grid",), GRIDS), {}),
    "xy": ((FRAMES, FRAMES, INTEGERS, INTEGERS), {}),
    # the default cap 6 is not a small size
    "verify": (((*SUITES, "all", "bogus"), ("--cap-n",), ("1", "2", "3")), {"--grid": GRIDS}),
}


def _options(options):
    """One option of ``options`` as argv words: the flag, then a value drawn from its pool if it takes one."""
    return st.sampled_from(sorted(options)).flatmap(
        lambda flag: st.just([flag]) if options[flag] is None
        else st.sampled_from(options[flag]).map(lambda value: [flag, value])
    )


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    pools, own = COMMANDS[command]
    argv = [word for option in draw(st.lists(_options(GLOBAL_OPTIONS), max_size=2)) for word in option]
    argv += [command, *(draw(st.sampled_from(pool)) for pool in pools)]
    options = {**GLOBAL_OPTIONS, **own}
    argv += [word for option in draw(st.lists(_options(options), max_size=3)) for word in option]
    return command, argv


@settings(max_examples=300, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=cli_calls())
def test_cli_contract_on_drawn_argv(tmp_path: Path, call):
    # nothing but argparse's SystemExit escapes main; the exit code is 0, 1 or 2, and 1 only from verify
    command, argv = call
    try:
        code = cli.main([word.format(out=tmp_path) for word in argv])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv
    assert code != 1 or command == "verify", argv
