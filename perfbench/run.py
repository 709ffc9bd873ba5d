"""Benchmark of isotwirl's two exact routes: the fast path and the dense oracle.

Run from the repository root:

    python3 perfbench/run.py --workload fastpath-spectra --seed 1 --seconds 20 --trace 0

``--workload`` is one of fastpath-spectra, sweep-grid, dense-spectrum,
verify-all, or ``all`` for each in turn.  Every pass runs in a fresh
single-threaded interpreter, one at a time, and every output is checked
exactly after the timed phase.  The last line of standard output is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics, with ``--trace
1`` the per-layer metrics of a traced pass and the tracing overhead against
an untraced pass.  The lines before it give the environment, sample counts,
percentiles, the raw wall-clock times and any failed check.

The end-to-end times ``*_ref_s`` and ``setup_s`` are wall-clock times at the
reference host speed: a probe measures how fast the host runs Python while
the worker runs, and each time is scaled by it (``worker.HostClock``).  On a
shared host the raw times of the same pass differ by up to a factor of two;
they are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Timed passes in a run of --seconds 20; other lengths scale the count, and
# every commit measures the same work.  When the benchmark was defined (2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6) a pass took 4.1, 3.0, 7.1 and
# 19.5 s at the reference host speed, so the timed phases of a run last 16 to
# 21 s.  fastpath-spectra makes 4 passes, not 5: with 5 or 6 its op_tail_ref_s
# falls among the two or three cold-cache ops of each pass, which the seed's
# order picks, and it spread 0.10 to 0.23 over seeds; with 4, 0.017 to 0.143.
PASSES_AT_20_S = {"fastpath-spectra": 4, "sweep-grid": 7, "dense-spectrum": 3, "verify-all": 1}
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it

END_TO_END = (("wall_ref_s", "s"), ("op_p50_ref_s", "s"), ("op_tail_ref_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
TRACE_METRICS = (("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"))
WORKER_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git directory, read without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "isotwirl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                    if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    """Starts worker passes one at a time, each in a fresh interpreter."""

    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload, self.seed, self.workdir, self.deadline = workload, seed, workdir, deadline
        self.count = 0

    def spawn(self, *, setup_only: bool = False, trace: bool = False) -> dict:
        self.count += 1
        out = self.workdir / f"pass-{self.count}.json"
        log = self.workdir / f"pass-{self.count}.log"
        cfg = {"root": str(ROOT), "workload": self.workload, "seed": self.seed, "setup_only": setup_only,
               "trace": trace, "workdir": str(self.workdir), "out": str(out)}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{self.workload}: time limit reached before pass {self.count}")
        with open(log, "w") as err:
            spawned = time.monotonic()
            try:
                proc = subprocess.run([sys.executable, str(HERE / "worker.py"), repr(spawned), json.dumps(cfg)],
                                      cwd=ROOT, env=WORKER_ENV, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err, timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{self.workload}: pass {self.count} exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: pass {self.count} exited {proc.returncode}:\n"
                             + log.read_text()[-2000:])
        return json.loads(out.read_text())


def report_problems(workload: str, passes: list[dict]) -> None:
    for r in passes:
        for p in r.get("problems", []):
            print(f"{workload}: FAILED {p}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result object, environment stamp)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(workload, seed, Path(tmp), deadline)
        warm = runner.spawn(setup_only=True)  # writes bytecode caches, warms the file cache
        env = environment(warm["numpy"])
        if trace:
            untraced, traced = runner.spawn(), runner.spawn(trace=True)
            passes = [untraced, traced]
            values = dict(traced["layers"])
            values["trace.traced_wall_s"] = traced["wall_s"]
            values["trace.untraced_wall_s"] = untraced["wall_s"]
            values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            units = dict(metric_names() + list(TRACE_METRICS))
            print(f"{workload}: tracing overhead {values['trace.overhead_s']:.3f} s "
                  f"(traced {traced['wall_s']:.3f} s, untraced {untraced['wall_s']:.3f} s)")
        else:
            count = max(1, round(seconds * PASSES_AT_20_S[workload] / 20))
            # Set-up samples are taken before and after the timed passes, so
            # they see the host at more than one moment.
            extra = max(0, SETUP_SAMPLES - count)
            setup_passes = [runner.spawn(setup_only=True) for _ in range(extra // 2)]
            passes = [runner.spawn() for _ in range(count)]
            setup_passes += passes + [runner.spawn(setup_only=True) for _ in range(extra - extra // 2)]
            setups = [r["setup_ref_s"] for r in setup_passes]
            raw = [x for r in passes for x in r["latencies"]]
            latencies = [x for r in passes for x in r["ref_latencies"]]
            walls = [r["wall_ref_s"] for r in passes]
            op_tail, pct = tail(latencies)
            wall_tail, wall_pct = tail(walls)
            values = {
                "wall_ref_s": statistics.median(walls),
                "op_p50_ref_s": statistics.median(latencies),
                "op_tail_ref_s": op_tail,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            }
            units = dict(END_TO_END)
            print(f"{workload}: wall_ref_s of each run: {' '.join(f'{w:.4f}' for w in walls)} s")
            raw_walls = " ".join(f"{r['wall_s']:.4f}" for r in passes)
            speeds = " ".join(f"{r['host_speed']:.3f}" for r in passes)
            print(f"{workload}: raw wall_s of each run: {raw_walls} s; host speed: {speeds}")
            print(f"{workload}: wall_ref_s median of {len(walls)} runs; highest percentile with "
                  f"{TAIL_BEYOND} runs beyond it: " + (f"p{wall_pct:.1f} = {wall_tail:.4f} s" if wall_pct < 100
                                                       else f"none (needs more than {TAIL_BEYOND} runs)"))
            print(f"{workload}: op_p50_ref_s and op_tail_ref_s over {len(latencies)} ops; op_tail_ref_s is "
                  f"p{pct:.1f}; setup_s median of {len(setups)} set-ups; peak_rss_mb median of {len(passes)} runs")
            raw_tail, _ = tail(raw)
            print(f"{workload}: raw wall_s = {statistics.median(r['wall_s'] for r in passes)} s, "
                  f"op_p50_s = {statistics.median(raw)} s, op_tail_s = {raw_tail} s, "
                  f"setup_s = {statistics.median(r['setup_s'] for r in setup_passes)} s")
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    report_problems(workload, passes)
    for name, value in values.items():
        print(f"{workload}: {name} = {value} {units[name]}")
    print(f"{workload}: fail_ratio = {failed / attempted} ({failed} of {attempted} ops)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()}}
    return result, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isotwirl" / "__init__.py").is_file():
        print(f"error: no isotwirl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], env = measure(name, args.seed, args.seconds, bool(args.trace))
            print(f"{name}: environment {json.dumps(env, sort_keys=True)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
