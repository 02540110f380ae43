"""The benchmark's four workloads.

Each workload is a closed loop of *jobs*: the harness makes job ``j``'s
inputs, runs it (the only timed step), then reads its simulated counters
(:meth:`finish`) and validates its result against serial/NumPy references
(:meth:`check`); the next job starts after that.  Every input comes from
``numpy.random.default_rng([seed, stream, j])``, so a seed fixes the
whole job sequence.

The ``repro`` package is imported inside :meth:`setup`, never at module
import, because set-up time includes importing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

# rng streams: the warm-up job and the timed jobs.  The warm-up job is the
# same for every seed, so set-up does the same work on every run.
WARMUP, TIMED = 0, 1
SIM_FIELDS = ("time", "flops", "elements_transferred", "comm_rounds", "local_moves")


@dataclass
class Job:
    index: int
    inputs: Dict[str, Any]
    out: Any = None
    error: Optional[str] = None
    wall_s: float = 0.0
    speed: float = 1.0  # reference calibration time / calibration time around the job
    sim: Tuple[float, ...] = ()
    program: Optional[Dict[str, int]] = None  # the program's own counters
    extra: Dict[str, Any] = field(default_factory=dict)


def _rng(seed: int, stream: int, j: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, j])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _sim(snapshot) -> Tuple[float, ...]:
    return tuple(float(getattr(snapshot, f)) for f in SIM_FIELDS)


def _program(counters) -> Dict[str, int]:
    return {
        "plan_hits": counters.plan_hits,
        "plan_misses": counters.plan_misses,
        "abft_corrected": counters.abft_corrected,
        "abft_recomputed": counters.abft_recomputed,
    }


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def _check_simplex(A, b, c, status, objective, x) -> Optional[str]:
    from repro.algorithms import serial

    ref_status, ref_obj, _, _, _ = serial.simplex_solve(A, b, c)
    if status != ref_status:
        return f"simplex status {status!r}, serial reference {ref_status!r}"
    if not np.isclose(objective, ref_obj, rtol=1e-9, atol=1e-12):
        return f"simplex objective {objective!r}, serial reference {ref_obj!r}"
    x = np.asarray(x)
    if x.min(initial=0.0) < -1e-9 or (A @ x - b).max(initial=0.0) > 1e-9 * b.max():
        return "simplex solution is infeasible"
    return None


def _check_solve(A, b, x, serial_too: bool) -> Optional[str]:
    ref = np.linalg.solve(A, b)
    scale = np.abs(ref).max()
    if not np.allclose(x, ref, rtol=0.0, atol=1e-9 * scale):
        return f"gaussian error {np.abs(x - ref).max():.3e} vs numpy solve"
    if serial_too:
        from repro.algorithms import serial

        ref = serial.gaussian_solve(A, b).value
        if not np.allclose(x, ref, rtol=0.0, atol=1e-9 * scale):
            return f"gaussian error {np.abs(x - ref).max():.3e} vs serial solve"
    return None


class _LongLived:
    """A workload whose jobs share one session: counters are per-job deltas."""

    def _opened(self, job: Job) -> Job:
        job.extra["before"] = self.session.snapshot()
        job.extra["program"] = _program(self.session.machine.counters)
        return job

    def finish(self, job: Job) -> None:
        job.sim = _sim(self.session.snapshot() - job.extra.pop("before"))
        job.program = _delta(
            _program(self.session.machine.counters), job.extra.pop("program")
        )


class PaperAppsWarm(_LongLived):
    """The paper's three applications on one long-lived 1024-processor cube.

    Each job: a partial-pivoting Gaussian solve of a random order-127
    system, a 64x48 feasible-LP simplex, and an 8-step 256x256 integer
    matvec power iteration.  No observers are attached.
    """

    name = "paper_apps_warm"
    n_dims = 10

    def setup(self) -> None:
        from repro import Session

        self.session = Session(self.n_dims)
        self.run(self.make(0, 0, WARMUP))

    def make(self, seed: int, j: int, stream: int = TIMED) -> Job:
        from repro import workloads as W

        rng = _rng(seed, stream, j)
        A, b, _ = W.random_system(127, seed=_sub_seed(rng))
        lp = W.feasible_lp(64, 48, seed=_sub_seed(rng))
        # Entries in {-1, 0, 1} keep every partial sum of 8 products far
        # below 2**53, so the float result must equal int64 NumPy exactly.
        M = rng.integers(-1, 2, size=(256, 256))
        x0 = rng.integers(-1, 2, size=256)
        return self._opened(Job(j, {
            "A": A, "b": b, "lp": lp, "M": M, "x0": x0,
            "M_float": M.astype(np.float64), "x0_float": x0.astype(np.float64),
        }))

    def run(self, job: Job) -> Any:
        from repro.algorithms import gaussian, simplex

        s = self.session
        inp = job.inputs
        x = gaussian.solve(s.matrix(inp["A"]), inp["b"]).x
        lp = inp["lp"]
        lp_res = simplex.solve(s.machine, lp.A, lp.b, lp.c)
        dM = s.matrix(inp["M_float"])
        y = inp["x0_float"]
        for _ in range(8):
            y = dM.matvec(s.row_vector(y, dM)).to_numpy()
        return x, lp_res, y

    def check(self, job: Job) -> Optional[str]:
        x, lp_res, y = job.out
        inp = job.inputs
        err = _check_solve(inp["A"], inp["b"], x, serial_too=True)
        if err:
            return err
        lp = inp["lp"]
        err = _check_simplex(
            lp.A, lp.b, lp.c, lp_res.status, lp_res.objective, lp_res.x
        )
        if err:
            return err
        ref = inp["x0"]
        for _ in range(8):
            ref = inp["M"] @ ref
        if not np.array_equal(y, ref.astype(np.float64)):
            return "matvec power iteration differs from int64 NumPy"
        return None


class GraphSparse(_LongLived):
    """BFS and SSSP from vertex 0 on a fresh random graph per job.

    Degree 3, 96 to 192 vertices, on one long-lived 256-processor cube,
    so each new graph's partition misses the plan cache.
    """

    name = "graph_sparse"
    n_dims = 8

    def setup(self) -> None:
        from repro import Session
        from repro.algorithms import graph  # noqa: F401  (loads repro.sparse)

        self.session = Session(self.n_dims)
        self.run(self.make(0, 0, WARMUP))

    def make(self, seed: int, j: int, stream: int = TIMED) -> Job:
        from repro import workloads as W

        rng = _rng(seed, stream, j)
        n = int(rng.integers(96, 193))
        g = W.random_graph(n, 3.0, seed=_sub_seed(rng))
        return self._opened(Job(j, {"graph": g}))

    def run(self, job: Job) -> Any:
        from repro.algorithms import graph

        g = job.inputs["graph"]
        return (
            graph.bfs(self.session, g, 0).values,
            graph.sssp(self.session, g, 0).values,
        )

    def check(self, job: Job) -> Optional[str]:
        from repro.algorithms import graph

        g = job.inputs["graph"]
        levels, dist = job.out
        if not np.array_equal(levels, graph.bfs_reference(g, 0)):
            return "bfs levels differ from bfs_reference"
        if not np.array_equal(dist, graph.sssp_reference(g, 0)):
            return "sssp distances differ from sssp_reference"
        return None


class HardenedFaulted:
    """``run_resilient`` under seeded fault plans, sanitizer and ABFT on.

    Each job runs an integer Gaussian solve and then an integer LP, each
    on a fresh 256-processor session under its own plan: a link kill, a
    node kill, two drops, a bit flip, a link corruption, a slow link and
    a node heal.  The checkpoint strategy cycles by job index.  Pairing
    the two keeps the job-time distribution single-peaked, so its median
    is steady.
    """

    name = "hardened_faulted"
    n_dims = 8
    gaussian_order = 16
    simplex_size = 24
    strategies = ("host", "diskless", "incremental")

    def setup(self) -> None:
        import repro.faults  # noqa: F401
        import repro.abft.manager  # noqa: F401
        import repro.check.sanitizer  # noqa: F401

        self.run(self.make(0, 0, WARMUP))

    def make(self, seed: int, j: int, stream: int = TIMED) -> Job:
        from repro import Session
        from repro.faults import (
            CheckpointStore,
            FaultPlan,
            gaussian_workload,
            simplex_workload,
        )

        rng = _rng(seed, stream, j)
        n = self.gaussian_order
        A = rng.integers(-4, 5, size=(n, n)) + n * np.eye(n)
        b = rng.integers(-4, 5, size=n).astype(np.float64)
        m = self.simplex_size
        P = rng.integers(1, 10, size=(m, m)).astype(np.float64)
        q = rng.integers(m, 4 * m, size=m).astype(np.float64)
        c = rng.integers(1, 10, size=m).astype(np.float64)
        parts = []
        for make in (lambda: gaussian_workload(A, b, checkpoint_every=4),
                     lambda: simplex_workload(P, q, c)):
            dry = Session(self.n_dims)
            baseline = np.asarray(make()(dry, CheckpointStore(dry)))
            plan = FaultPlan.random(
                self.n_dims,
                seed=_sub_seed(rng),
                horizon=0.6 * dry.time,
                link_kills=1,
                node_kills=1,
                drops=2,
                bit_flips=1,
                link_corruptions=1,
                link_slows=1,
                node_heals=1,
            )
            parts.append((make, plan, baseline))
        return Job(j, {"parts": parts, "strategy": self.strategies[j % 3]})

    def run(self, job: Job) -> Any:
        from repro import Session
        from repro.faults import CheckpointPolicy, run_resilient

        out = []
        for make, plan, _ in job.inputs["parts"]:
            session = Session(self.n_dims, faults=plan, sanitize=True, abft=True)
            report = run_resilient(
                session,
                make(),
                max_recoveries=3,
                policy=CheckpointPolicy(strategy=job.inputs["strategy"], every=4),
            )
            out.append((session, report))
        return out

    def finish(self, job: Job) -> None:
        sims = [_sim(session.snapshot()) for session, _ in job.out]
        job.sim = tuple(map(sum, zip(*sims)))
        job.program = {}
        for session, report in job.out:
            counts = _program(session.machine.counters)
            counts["recoveries"] = report.recoveries
            counts["promotions"] = report.promotions
            for key, value in counts.items():
                job.program[key] = job.program.get(key, 0) + value

    def check(self, job: Job) -> Optional[str]:
        for (_, report), (_, _, baseline) in zip(job.out, job.inputs["parts"]):
            if not report.recovered:
                return f"resilient run did not recover: {report.error}"
            if not np.array_equal(np.asarray(report.result), baseline):
                return "recovered result differs from the fault-free run"
        return None


class BatchSweep:
    """One ``repro.batch.sweep`` of 64 Gaussian and one of 32 simplex lanes.

    Gaussian orders alternate 12 and 16 (two stacked groups); the LPs are
    16x12.  The problem data is passed explicitly, on a 64-processor cube.
    """

    name = "batch_sweep"
    n_dims = 6

    def setup(self) -> None:
        import repro.batch  # noqa: F401

        self.run(self.make(0, 0, WARMUP))

    def make(self, seed: int, j: int, stream: int = TIMED) -> Job:
        from repro import workloads as W

        rng = _rng(seed, stream, j)
        solves = []
        for lane in range(64):
            n = 12 if lane % 2 == 0 else 16
            A = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            solves.append({"n_dims": self.n_dims, "n": n, "seed": lane,
                           "A": A, "b": b})
        lps = []
        for lane in range(32):
            lp = W.feasible_lp(16, 12, seed=_sub_seed(rng))
            lps.append({"n_dims": self.n_dims, "n": 12, "m": 16, "seed": lane,
                        "A": lp.A, "b": lp.b, "c": lp.c})
        return Job(j, {"gaussian": solves, "simplex": lps})

    def run(self, job: Job) -> Any:
        from repro.batch import sweep

        return (
            sweep("gaussian", job.inputs["gaussian"]),
            sweep("simplex", job.inputs["simplex"]),
        )

    def finish(self, job: Job) -> None:
        lanes = job.out[0] + job.out[1]
        job.sim = tuple(
            float(sum(getattr(o["cost"], f) for o in lanes)) for f in SIM_FIELDS
        )
        job.extra["stacked_lane_ratio"] = sum(o["batched"] for o in lanes) / len(lanes)

    def check(self, job: Job) -> Optional[str]:
        solves, lps = job.out
        for entry, out in zip(job.inputs["gaussian"], solves):
            err = _check_solve(entry["A"], entry["b"], out["x"], serial_too=False)
            if err:
                return f"lane {out['index']}: {err}"
        for entry, out in zip(job.inputs["simplex"], lps):
            err = _check_simplex(entry["A"], entry["b"], entry["c"],
                                 out["status"], out["objective"], out["x"])
            if err:
                return f"lane {out['index']}: {err}"
        return None


WORKLOADS = {
    w.name: w for w in (PaperAppsWarm, GraphSparse, HardenedFaulted, BatchSweep)
}
