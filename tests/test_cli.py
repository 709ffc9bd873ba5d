import json
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "isotwirl.cli"]


def run_cli(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


def test_dims_text():
    res = run_cli("dims", "2,1")
    assert res.returncode == 0
    assert res.stdout == "frame=2,1 d=2 dim_sym=2 dim_unitary=2 projector_trace=4\n"
    res = run_cli("dims", "3", "--d", "2")
    assert "dim_sym=1 dim_unitary=4" in res.stdout


def test_dims_json_and_global_flag_positions():
    before = run_cli("--d", "3", "--format", "json", "dims", "2,1")
    after = run_cli("dims", "2,1", "--d", "3", "--format", "json")
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout
    obj = json.loads(after.stdout)
    assert obj["dim_unitary"] == 8 and obj["frame"] == "2,1,0"


def test_dims_errors():
    res = run_cli("dims", "2,1,1")
    assert res.returncode == 2 and "more than 2 rows" in res.stderr
    res = run_cli("dims", "1,2")
    assert res.returncode == 2 and "token 2" in res.stderr
    res = run_cli("dims", "2,x")
    assert res.returncode == 2 and "not an integer" in res.stderr


def test_lr_command():
    res = run_cli("lr", "2", "1", "1")
    assert res.returncode == 0
    assert "coefficient=1" in res.stdout and "agree=True" in res.stdout
    res = run_cli("lr", "2,2", "2", "1,1")
    assert "coefficient=0" in res.stdout
    res = run_cli("lr", "3,1", "2", "1,1", "--witness")
    assert "witness 1:" in res.stdout and ". . 1" in res.stdout
    res = run_cli("lr", "3", "1", "1")
    assert res.returncode == 0 and "size mismatch" in res.stdout and "coefficient=0" in res.stdout


def test_char_command():
    res = run_cli("char", "2,1", "3")
    assert res.returncode == 0 and res.stdout == "character=-1\n"
    res = run_cli("char", "2,1", "1,1,1")
    assert res.stdout == "character=2\n"
    res = run_cli("char", "2,1", "2,2")
    assert res.returncode == 2


def test_horn_command():
    res = run_cli("horn", "2,1", "1", "1,1")
    assert res.returncode == 0 and res.stdout == "basic=True feasible=True\n"
    res = run_cli("horn", "2,2", "2", "1,1", "--basic")
    assert res.stdout == "basic=False\n"
    res = run_cli("horn", "2,2", "2", "1,1", "--feasible")
    assert res.stdout == "feasible=False\n"


def test_spectrum_command(tmp_path: Path):
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


def test_spectrum_errors():
    assert run_cli("spectrum", "4,0").returncode == 2
    assert run_cli("spectrum", "4,0", "--q", "1/2", "--k", "1").returncode == 2
    assert run_cli("spectrum", "4,0", "--q", "3/2").returncode == 2
    assert run_cli("spectrum", "4,0", "--k", "9").returncode == 2


def test_sweep_command():
    res = run_cli("sweep", "4,0", "--grid", "0,1")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "frame,q=0/1,q=1/1"
    assert lines[1] == '"4,0",1.0,0.3125'
    res_exact = run_cli("sweep", "4,0", "--grid", "0,1", "--exact")
    assert '"4,0",1/1,5/16' in res_exact.stdout
    assert run_cli("sweep", "4,0", "--grid", "").returncode == 2


def test_xy_command():
    res = run_cli("xy", "4,0", "3,1", "2", "2")
    assert res.returncode == 0 and res.stdout.startswith("X=1 Y=1")
    res = run_cli("xy", "4,0", "2,2", "3", "1", "--format", "json")
    obj = json.loads(res.stdout)
    assert obj["x_max"] == 0 and obj["argmax"] is None
    assert run_cli("xy", "4,0", "3,1", "1", "1").returncode == 2


def test_verify_small_suite(tmp_path: Path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "xybound", "--cap-n", "4", "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["suite"] == "xybound"
    assert all(c["passed"] for c in report["checks"])
    assert "[PASS]" in res.stderr


def test_verify_unknown_suite():
    res = run_cli("verify", "bogus")
    assert res.returncode == 2 and "unknown suite" in res.stderr


def test_verify_failure_exit_code(monkeypatch, capsys):
    import isotwirl.cli as cli
    from isotwirl.verify import CheckResult, RunConfig, SuiteReport

    failing = SuiteReport(
        "stub", RunConfig(), [CheckResult("broken", False, 1, ["example failure"])]
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: failing)
    assert cli.main(["verify", "stub"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] broken" in captured.err
    assert '"passed": false' in captured.out


def test_out_path_checked_before_any_suite_runs(monkeypatch, capsys, tmp_path: Path):
    import isotwirl.cli as cli

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
    import isotwirl.cli as cli

    out = tmp_path / "report.json"
    out.write_text("kept\n")

    def fail(name, cfg):
        raise ValueError("suite stopped")

    monkeypatch.setattr(cli, "run_suite", fail)
    assert cli.main(["verify", "tail", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: suite stopped\n"
    assert out.read_text() == "kept\n"


def test_verify_deterministic(tmp_path: Path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        res = run_cli("verify", "saturation", "--cap-n", "4", "--out", str(path))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_files_byte_identical(tmp_path: Path):
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
    ],
)
def test_cli_output_matches_golden_file(args, golden):
    res = subprocess.run([*CLI, *args], capture_output=True)
    assert res.returncode == 0
    assert res.stdout == (DATA / golden).read_bytes()


def test_main_reuses_one_parser_without_carrying_state(tmp_path: Path, capsys):
    # one process, one parser: no flag of one call leaks into the next
    from isotwirl import cli

    out = tmp_path / "a.csv"
    golden = lambda name: (DATA / name).read_text()  # noqa: E731
    usage = run_cli("sweep")
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
    refused = ["sweep", "4,0", "--grid", "0.5", "--format", "json"]
    fresh = run_cli(*refused)
    assert cli.main(refused) == fresh.returncode == 2
    assert capsys.readouterr().err == fresh.stderr
    assert cli.main(["spectrum", "4,3,2", "--d", "3", "--q", "2/9"]) == 0
    assert capsys.readouterr().out == golden("spectrum_4_3_2_d3_q2_9.csv")
    assert cli.build_parser.cache_info().misses == 1


ONES_500 = ",".join(["1"] * 500)
# The answer a command gives where it succeeds on an edge case.
ANSWERS = {
    # c^lam_{mu nu} = 0 across sizes is an answer, not an input error
    ("lr", "3,1", "2", "1,1,1"): "size mismatch",
    ("char", "500", ONES_500): "character=1\n",  # the trivial character at the identity
    ("lr", "1000,1000", "1000", "1000"): "coefficient=1 ",  # Pieri: lam/mu is a horizontal strip
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
    ],
)
def test_exit_codes_without_traceback(tmp_path: Path, args, code):
    args = [a.format(missing=tmp_path / "missing") for a in args]
    res = run_cli(*args)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    if code == 2:
        assert res.stderr.splitlines()[-1].startswith("error: ")
    if code == 0 and tuple(args) in ANSWERS:
        assert ANSWERS[tuple(args)] in res.stdout
