"""Tests of the benchmark itself: span arithmetic and the exact output checkers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    tree = [
        spans.Span(0, "root", None, 0.0, 10.0, calls=1, busy=10.0),
        spans.Span(1, "a", 0, 1.0, 4.0, calls=1, busy=3.0),
        spans.Span(2, "c", 1, 2.0, 3.0, calls=1, busy=1.0),
        spans.Span(3, "b", 0, 5.0, 6.0, calls=1, busy=1.0),
        spans.Span(4, "leaf", 3, 5.1, 5.9, calls=4, busy=0.5),  # aggregated leaf
        spans.Span(5, "a", 0, 7.0, 9.0, calls=1, busy=2.0),
    ]
    got = spans.self_times(tree)
    assert got["root"] == (1, pytest.approx(10.0 - 3.0 - 1.0 - 2.0))
    assert got["a"] == (2, pytest.approx((3.0 - 1.0) + 2.0))
    assert got["b"] == (1, pytest.approx(0.5))
    assert got["c"] == (1, pytest.approx(1.0))
    assert got["leaf"] == (4, pytest.approx(0.5))
    assert sum(s for _, s in got.values()) == pytest.approx(10.0)


def test_tracer_nests_and_aggregates_leaves():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda x: x, leaf=True)
    outer = tracer.wrap("outer", lambda: [leaf(i) for i in range(3)])
    outer()
    outer()
    assert [s.name for s in tracer.spans] == ["outer", "leaf", "outer", "leaf"]
    assert [s.calls for s in tracer.spans] == [1, 3, 1, 3]
    totals = spans.self_times(tracer.spans)
    assert totals["leaf"][0] == 6
    assert sum(s for _, s in totals.values()) == pytest.approx(sum(s.busy for s in tracer.spans if s.parent is None))


def test_host_clock_removes_probes_and_scales_by_host_speed():
    clock = worker.HostClock()
    ref = worker.REFERENCE_PROBE_S
    # Probes at the reference speed until t=10, then at half speed.
    clock.starts = [0.5 * i for i in range(40)]
    clock.durations = [ref if t < 10 else 2 * ref for t in clock.starts]
    fast = clock.reference_s(1.1, 3.1)  # probes at 1.5, 2.0, 2.5 and 3.0 s
    assert fast == pytest.approx(2.0 - 4 * ref)
    slow = clock.reference_s(12.1, 16.1)  # eight probes at half speed
    assert slow == pytest.approx((4.0 - 8 * 2 * ref) / 2)
    # Across the change each one-second piece is scaled by the speed around it.
    assert clock.reference_s(8.1, 12.1) == pytest.approx((1 - 2 * ref) + (1 - 3 * ref) + 2 * (1 - 4 * ref) / 2)
    assert clock.speed(1.1, 3.1) == pytest.approx(1.0)
    assert clock.speed(12.1, 16.1) == pytest.approx(0.5)


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _reference_table(d: int, frame: str, q: Fraction) -> dict[str, Fraction]:
    n = sum(map(int, frame.split(",")))
    return workloads.mixture(workloads.load_twirl_reference()[f"{d},{n}"]["twirl"][frame], q)


def test_table_checker_accepts_reference_and_fast_path():
    from isotwirl.frames import format_frame, parse_frame
    from isotwirl.spectra import channel_output_spectrum

    q = Fraction(5, 11)
    expected = _reference_table(2, "9,7", q)
    table = channel_output_spectrum(parse_frame("9,7"), q, 2)
    assert workloads.table_problems({format_frame(f, 2): w for f, w in table}, expected) == []


@pytest.mark.parametrize("compensate", [False, True])
def test_table_checker_rejects_weight_perturbed_by_2_pow_minus_60(compensate):
    expected = _reference_table(3, "5,4,3", Fraction(7, 12))
    perturbed = dict(expected)
    first, second = list(perturbed)[:2]
    perturbed[first] += Fraction(1, 2**60)
    if compensate:  # keeps the total at exactly 1, so only the entry check can catch it
        perturbed[second] -= Fraction(1, 2**60)
    found = workloads.table_problems(perturbed, expected)
    assert any(first in p for p in found)
    assert any("sum" in p for p in found) != compensate


def _passing_report(counts: dict[str, int]) -> str:
    checks = [{"name": name, "passed": True, "checked": c, "failures": []} for name, c in counts.items()]
    return json.dumps({"suite": "all", "checks": checks, "passed": True})


def test_verify_checker_rejects_report_with_missing_check():
    reference = workloads.load_verify_reference()
    assert sum(reference.values()) == 9708
    assert workloads.verify_problems(_passing_report(reference), reference) == []
    missing = dict(reference)
    dropped = sorted(missing)[3]
    del missing[dropped]
    found = workloads.verify_problems(_passing_report(missing), reference)
    assert any(dropped in p for p in found)


def test_problems_rejects_nonzero_exit_code(tmp_path):
    op = workloads.plan("verify-all", 0)[0]
    report = tmp_path / "verify.json"
    report.write_text(_passing_report(workloads.load_verify_reference()))
    args = (workloads.load_twirl_reference(), workloads.load_verify_reference())
    assert workloads.problems(op, (0, report), *args) == []
    assert workloads.problems(op, (1, report), *args) == ["exit code 1"]


def test_plan_depends_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 3) == workloads.plan(name, 3)
    fast = workloads.plan("fastpath-spectra", 3)
    assert len(fast) == 51
    assert sorted(op.frame for op in fast) == sorted(op.frame for op in workloads.plan("fastpath-spectra", 4))
    sweep = workloads.plan("sweep-grid", 3)
    assert all(len(set(op.q)) == workloads.SWEEP_POINTS and all(0 < q < 1 for q in op.q) for op in sweep)
