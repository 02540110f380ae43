#!/usr/bin/env python3
"""The repository benchmark: one process, one thread, closed-loop jobs.

Run from the repository root::

    python3 perfbench/run.py --workload paper_apps_warm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that reports the per-layer split
(see ``perfbench/README.md``).  Human-readable lines go first; the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is nonzero when any job failed,
any result was wrong or any simulated counter differed from its pin.
"""

from __future__ import annotations

import os
import sys

# Before NumPy loads: one BLAS/OpenMP thread, so reference solves start no
# helper threads, and no REPRO_* switch from the caller's environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS = os.path.join(HERE, "pins.json")

SETUP_REPS = 3  # set-up runs per process; setup_s is their median
# The timed phase runs at least jobs 0..FIXED_JOBS-1, a fixed amount of
# work: sim_ticks, the pins and peak memory cover exactly those, and p90
# has at least 10 samples above it.
FIXED_JOBS = 100
TRACE_SHARE = 1 / 3  # traced run: untraced pass gets this share of --seconds
TRACE_MIN_JOBS = 10


# Host speed on a shared machine drifts by up to 2x in bursts of a few
# seconds.  A fixed kernel of interpreter work and small NumPy calls, which
# never touches the program, is timed right before and right after every
# job and every set-up; host times are reported scaled to the kernel's
# reference time, so drift shared by kernel and job cancels.  The kernel
# allocates no garbage-collected containers, so a program's garbage cannot
# be collected inside it.  Host times read as if every job ran at the
# speed that gives the kernel CALIBRATION_S (about its median time on the
# 2-core host the bounds were set on).
CALIBRATION_S = 0.0025
_CALIBRATION_ROWS = np.random.default_rng(0).standard_normal((64, 64))


def calibration() -> float:
    """Seconds one run of the calibration kernel takes now."""
    d = {k: 0.0 for k in range(64)}
    t0 = 0.0
    for i in range(500):
        if i == 100:  # the first pass only warms the caches the job left cold
            t0 = time.perf_counter()
        b = _CALIBRATION_ROWS[i % 64] * 1.5 + 2.0
        k = int(np.argmax(b))
        d[k] += float(b[k])
    return time.perf_counter() - t0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _purge_repro() -> None:
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    gc.collect()


def run_jobs(wl, seed: int, seconds: float, min_jobs: int, start: int = 0,
             tracer=None) -> Tuple[list, list]:
    """The closed loop: make, run (the only timed step), finish and check.

    Runs jobs ``start, start + 1, ...`` until the timed job walls sum to
    ``seconds`` and at least ``min_jobs`` ran.  Each job is validated as
    soon as it returns and its inputs and outputs are dropped, so memory
    does not grow with the job count.  Returns the jobs and, when traced,
    their folded traces.
    """
    from time import perf_counter

    jobs, traces = [], []
    busy = 0.0
    while busy < seconds or len(jobs) < min_jobs:
        job = wl.make(seed, start + len(jobs))
        before = calibration()
        if tracer is not None:
            tracer.begin()
        t0 = perf_counter()
        try:
            job.out = wl.run(job)
        except Exception as exc:  # a failed job is counted, not fatal
            job.error = f"{type(exc).__name__}: {exc}"
        job.wall_s = perf_counter() - t0
        if tracer is not None:
            trace = tracer.end()
            job.wall_s = trace.wall_s
            traces.append(trace)
        job.speed = CALIBRATION_S / (0.5 * (before + calibration()))
        if job.error is None:
            wl.finish(job)
            job.error = wl.check(job)
        job.inputs = job.out = None
        busy += job.wall_s
        jobs.append(job)
    return jobs, traces


def failures(jobs, label: str = "") -> List[str]:
    """One message per failed job (raised, did not recover, or wrong)."""
    return [f"{label}job {job.index}: {job.error}" for job in jobs if job.error]


def pin_record(jobs) -> Dict[str, object]:
    """Simulated totals over jobs 0..FIXED_JOBS-1 plus a digest of every job's."""
    from workloads import SIM_FIELDS

    first = jobs[:FIXED_JOBS]
    record: Dict[str, object] = {
        f: sum(job.sim[i] for job in first) for i, f in enumerate(SIM_FIELDS)
    }
    digest = hashlib.sha256(repr([job.sim for job in first]).encode())
    record["digest"] = digest.hexdigest()
    return record


def check_pin(name: str, seed: int, record: Dict[str, object]) -> Optional[str]:
    with open(PINS) as fh:
        pins = json.load(fh)
    expected = pins.get(name, {}).get(str(seed))
    if expected is None:
        print(f"note: no pinned counters for {name} seed {seed}")
        return None
    if expected != record:
        return f"simulated counters differ from the pin: {record} != {expected}"
    return None


def _percentile(values: List[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(wl_cls, seed: int, seconds: float):
    from workloads import SIM_FIELDS

    setup = []  # (seconds, speed)
    for _ in range(SETUP_REPS):
        _purge_repro()
        wl = wl_cls()
        before = calibration()
        t0 = time.perf_counter()
        wl.setup()
        took = time.perf_counter() - t0
        setup.append((took, CALIBRATION_S / (0.5 * (before + calibration()))))
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")

    # Peak memory is read after the fixed jobs, so it does not grow with
    # how many more jobs a fast host fits in.
    jobs, _ = run_jobs(wl, seed, 0.0, FIXED_JOBS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = sum(job.wall_s for job in jobs)
    jobs += run_jobs(wl, seed, seconds - busy, 0, start=len(jobs))[0]
    failed = failures(jobs)
    problems = [] if failed else [check_pin(wl.name, seed, pin_record(jobs))]

    ok = [job for job in jobs if job.error is None]
    walls_ms = [job.wall_s * job.speed * 1e3 for job in jobs]
    busy = sum(job.wall_s * job.speed for job in jobs)
    rounds = sum(job.sim[SIM_FIELDS.index("comm_rounds")] for job in ok)
    metrics = {
        "setup_s": (statistics.median(t * speed for t, speed in setup), "s"),
        "job_ms_p50": (statistics.median(walls_ms), "ms"),
        "job_ms_p90": (_percentile(walls_ms, 90), "ms"),
        "jobs_per_s": (len(jobs) / busy, "1/s"),
        "sim_ticks": (sum(job.sim[SIM_FIELDS.index("time")] for job in ok[:FIXED_JOBS]),
                      "ticks"),
        "host_us_per_round": (busy * 1e6 / max(rounds, 1), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "jobs timed": len(jobs),
        "failed_share": len(failed) / len(jobs),
        "set-up runs, unscaled (s)": [round(t, 4) for t, _ in setup],
        "job ms p50, unscaled": round(statistics.median(j.wall_s * 1e3 for j in jobs), 3),
        "host speed vs reference (median)": round(statistics.median(j.speed for j in jobs), 4),
    }
    return jobs, failed, [p for p in problems if p], metrics, info


def traced(wl_cls, seed: int, seconds: float):
    import layers

    wl = wl_cls()
    wl.setup()
    plain, _ = run_jobs(wl, seed, seconds * TRACE_SHARE, TRACE_MIN_JOBS)

    tracer = layers.install()
    try:
        wl = wl_cls()
        wl.setup()  # a fresh session: the same plan-cache state as above
        jobs, traces = run_jobs(wl, seed, 0.0, len(plain), tracer=tracer)
    finally:
        tracer.uninstall()

    failed = failures(plain, "untraced ") + failures(jobs, "traced ")
    problems = []
    for a, b in zip(plain, jobs):
        if a.error is None and b.error is None and a.sim != b.sim:
            problems.append(f"job {a.index}: traced counters {b.sim} != untraced {a.sim}")
    problems += layers.cross_check(tracer, jobs, traces)
    metrics = layers.layer_metrics(tracer, jobs, traces)
    metrics["trace.overhead_ratio"] = (
        sum(job.wall_s for job in jobs) / sum(job.wall_s for job in plain), "ratio"
    )
    info = {
        "jobs traced": len(jobs),
        "spans per job (median)": statistics.median(t.spans for t in traces),
    }
    return plain + jobs, failed, problems, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no program source at {os.path.relpath(SRC)}/repro")
    if not os.path.isfile(PINS):
        return _fail("pinned counters file is missing")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    wl_cls = WORKLOADS.get(args.workload)
    if wl_cls is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    mode = traced if args.trace else untraced
    jobs, failed, problems, metrics, info = mode(wl_cls, args.seed, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for problem in failed + problems:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
