"""One benchmark pass in a fresh interpreter: set up, time the operations, check them.

``run.py`` starts it as ``python3 perfbench/worker.py <spawn time> <config json>``,
where the spawn time is ``time.monotonic()`` just before the process was
started, so set-up time covers interpreter start, the package import (numpy
included) and input generation.  The result goes to the JSON file named in
the config.
"""

from __future__ import annotations

import bisect
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

MAX_PROBLEMS_REPORTED = 5

# Host-speed probe: a fixed exact sum, run from a wall-clock interval timer
# while a worker sets up and runs an untraced pass.  REFERENCE_PROBE_S fixes
# the scale: it is about the probe's time on the 2-vCPU Intel Xeon VM the
# benchmark was defined on.
PROBE_TERMS = 48
PROBE_INTERVAL_S = 0.025
PROBE_WINDOW_S = 0.25
CHUNK_S = 1.0
REFERENCE_PROBE_S = 1.6e-4


class HostClock:
    """Measures how fast the host runs Python while the operations run.

    On a shared host the same pass can take twice as long from one minute to
    the next, and CPU time moves with wall time.  A timer signal every
    PROBE_INTERVAL_S runs a fixed computation between two bytecodes of
    whatever is running: the sum of 1/k for k up to PROBE_TERMS in ``fractions.Fraction``,
    the standard-library arithmetic the package spends its time in, so that
    the probe slows down as the package does.  ``reference_s`` cuts an
    interval into pieces of at most CHUNK_S, takes the probes' own time out of
    each and scales the rest by the host speed around it: REFERENCE_PROBE_S
    over the median probe time in the piece widened by PROBE_WINDOW_S on each
    side.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _probe(self, signum, frame) -> None:
        t = time.perf_counter()
        total = Fraction(0)
        for k in range(1, PROBE_TERMS + 1):
            total += Fraction(1, k)
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end))

    def speed(self, start: float, end: float) -> float:
        """Host speed around [start, end], 1.0 at the reference speed."""
        window = self.durations[self._between(start - PROBE_WINDOW_S, end + PROBE_WINDOW_S)] or self.durations
        return REFERENCE_PROBE_S / statistics.median(window)

    def reference_s(self, start: float, end: float) -> float:
        """Time from start to end without the probes, at the reference host speed."""
        pieces = max(1, math.ceil((end - start) / CHUNK_S))
        edges = [start + (end - start) * i / pieces for i in range(pieces + 1)]
        return sum((b - a - sum(self.durations[self._between(a, b)])) * self.speed(a, b)
                   for a, b in zip(edges, edges[1:]))


def time_ops(cfg: dict, ops: list, workloads, clock: HostClock | None) -> tuple[dict, list, dict]:
    """The timed phase: (timings, outputs, tracebacks of ops that raised by op index).

    A traced pass gets no clock, so that probes add nothing to any span.
    """
    workdir = Path(cfg["workdir"])
    run_op = workloads.run
    tracer = layer_list = None
    if cfg["trace"]:
        import layers
        import spans

        tracer = spans.Tracer()
        layer_list = layers.make_layers()
        layers.install(tracer, layer_list)
        run_op = tracer.wrap("op", workloads.run)

    outputs, intervals, errors = [], [], {}
    for op in ops:
        t = time.perf_counter()
        try:
            outputs.append(run_op(op, workdir))
        except Exception:  # a raising operation counts as failed; the run goes on
            outputs.append(None)
            errors[op.index] = traceback.format_exc(limit=3)
        intervals.append((t, time.perf_counter()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [end - start for start, end in intervals]
    result = {"wall_s": intervals[-1][1] - intervals[0][0], "latencies": latencies, "peak_rss_mb": peak_rss_mb}
    if clock is not None:
        ref_latencies = [clock.reference_s(start, end) for start, end in intervals]
        result.update(ref_latencies=ref_latencies, wall_ref_s=sum(ref_latencies),
                      host_speed=clock.speed(intervals[0][0], intervals[-1][1]))
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, layer_list)
    return result, outputs, errors


def check(ops: list, outputs: list, errors: dict, workloads) -> dict:
    """Exact checks of every output, run after the timed phase."""
    twirl_reference = workloads.load_twirl_reference()
    verify_reference = workloads.load_verify_reference()
    found = []
    for op, output in zip(ops, outputs):
        if op.index in errors:
            found.append(f"op {op.index} raised: {errors[op.index]}")
            continue
        wrong = workloads.problems(op, output, twirl_reference, verify_reference)
        if wrong:
            found.append(f"op {op.index} ({op.frame or op.workload}): {'; '.join(wrong[:3])}")
    return {"attempted": len(ops), "failed": len(found), "problems": found[:MAX_PROBLEMS_REPORTED]}


def main(argv: list[str]) -> None:
    spawned = float(argv[1])
    cfg = json.loads(argv[2])
    timed = not cfg["setup_only"]
    clock = HostClock()
    with clock:
        sys.path.insert(0, str(Path(cfg["root"]) / "src"))
        import isotwirl  # noqa: F401  (its import, numpy included, is part of set-up)
        import numpy
        import workloads

        ops = workloads.plan(cfg["workload"], cfg["seed"])
        setup_s = time.monotonic() - spawned
        ready = time.perf_counter()
        # Interpreter start-up comes before the first probe; it is scaled like the rest.
        result = {"setup_s": setup_s, "setup_ref_s": clock.reference_s(ready - setup_s, ready),
                  "numpy": numpy.__version__}
        if timed and not cfg["trace"]:
            timings, outputs, errors = time_ops(cfg, ops, workloads, clock)
    if timed and cfg["trace"]:
        timings, outputs, errors = time_ops(cfg, ops, workloads, None)
    if timed:
        result.update(timings, **check(ops, outputs, errors, workloads))
    Path(cfg["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
