"""Differential oracle registry: every algorithm vs its serial reference.

Each :class:`OracleCase` builds one deterministic problem instance from a
seed, solves it with the distributed algorithm on a given
:class:`~repro.core.session.Session`, solves the same instance with the
``repro.algorithms.serial`` / NumPy reference, and reports the divergence.
:func:`run_differential` sweeps every case across a matrix of machine
configurations (cost models × plan cache on/off × tracing on/off), always
with the :class:`~repro.check.MachineSanitizer` attached, plus
fault-recovery and silent-data-corruption (ABFT) axes for the tier-1
workloads — so a regression that only
bites with, say, the plan cache off and tracing on is reported with the
offending configuration attached.

Problem sizes are deliberately small (``n_dims=4`` by default, 16
processors): the oracle checks *semantics*, not scale, and the whole sweep
must stay fast enough to run in CI on every push.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..core.session import Session
from .. import workloads


@dataclass(frozen=True)
class OracleCase:
    """One algorithm, its reference, and the comparison contract.

    ``run(session, seed)`` returns ``(got, want)`` as host arrays computed
    from the *same* seeded instance.  ``exact`` cases must match
    bit-for-bit (integer outputs, order-only transforms); the rest compare
    within ``tol`` (absolute + relative, via ``np.allclose``).
    """

    name: str
    run: Callable[[Session, int], Tuple[np.ndarray, np.ndarray]]
    exact: bool = False
    tol: float = 1e-8


@dataclass
class CaseResult:
    """The outcome of one (case, configuration) cell."""

    case: str
    config: Dict[str, object]
    passed: bool
    max_error: float = 0.0
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "config": self.config,
            "passed": self.passed,
            "max_error": self.max_error,
            "detail": self.detail,
        }


# -- case implementations -------------------------------------------------------


def _matvec_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import matvec, serial

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((12, 9))
    x = rng.standard_normal(9)
    dA = session.matrix(A)
    got = matvec.matvec(dA, session.row_vector(x, dA)).y.to_numpy()
    return got, serial.matvec(A, x).value


def _vecmat_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import matvec, serial

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((11, 13))
    x = rng.standard_normal(11)
    dA = session.matrix(A)
    got = matvec.vecmat(session.col_vector(x, dA), dA).y.to_numpy()
    return got, serial.vecmat(x, A).value


def _gaussian_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import gaussian

    A, b, _ = workloads.diagonally_dominant_system(14, seed)
    got = gaussian.solve(session.matrix(A), b).x
    return got, np.linalg.solve(A, b)


def _simplex_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import serial, simplex

    lp = workloads.feasible_lp(6, 9, seed)
    res = simplex.solve(session.machine, lp.A, lp.b, lp.c)
    status, objective, x, iterations, _ = serial.simplex_solve(lp.A, lp.b, lp.c)
    # Same pivot rules on both sides, so statuses, iteration counts and
    # iterates all agree; fold everything into one comparison vector.
    got = np.concatenate(
        [[float(res.status == status), res.objective, res.iterations], res.x]
    )
    want = np.concatenate([[1.0, objective, iterations], x])
    return got, want


def _fft_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import fft

    rng = np.random.default_rng(seed)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    got = fft.fft(session.machine, values).values
    return got, np.fft.fft(values)


def _sort_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import sort

    rng = np.random.default_rng(seed)
    values = rng.standard_normal(37)
    res = sort.bitonic_sort(session.vector(values))
    return res.values.to_numpy(), np.sort(values)


def _histogram_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import histogram

    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, 50)
    res = histogram.histogram(
        session.vector(values), bins=8, value_range=(0.0, 1.0)
    )
    want, _ = np.histogram(values, bins=8, range=(0.0, 1.0))
    return res.counts, want


def _qr_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import qr

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((12, 7))
    b = rng.standard_normal(12)
    got = qr.qr_solve(session.matrix(A), b)
    want, *_ = np.linalg.lstsq(A, b, rcond=None)
    return got, want


def _tridiagonal_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import tridiagonal

    rng = np.random.default_rng(seed)
    n = 21
    a = rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    b = np.abs(a) + np.abs(c) + rng.uniform(1.0, 2.0, n)
    d = rng.standard_normal(n)
    a[0] = c[-1] = 0.0
    got = tridiagonal.solve(session.machine, a, b, c, d).x
    T = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
    return got, np.linalg.solve(T, d)


def _lu_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import triangular

    A, b, _ = workloads.diagonally_dominant_system(13, seed)
    fact = triangular.lu_factor(session.matrix(A))
    got = triangular.lu_solve(fact, b)
    return got, np.linalg.solve(A, b)


def _cg_case(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    from ..algorithms import iterative

    rng = np.random.default_rng(seed)
    M = rng.standard_normal((10, 10))
    A = M @ M.T + 10.0 * np.eye(10)  # SPD, well conditioned
    b = rng.standard_normal(10)
    res = iterative.conjugate_gradient(session.matrix(A), b, tol=1e-12)
    return res.x, np.linalg.solve(A, b)


# -- sparse / graph cases (optional scipy + NetworkX references) -----------------

_INT_INF = np.iinfo(np.int64).max


def _require_reference(module: str, case: str):
    """Import an optional reference package or fail with an install hint.

    The sparse compute paths themselves are NumPy-only; scipy and NetworkX
    are used *exclusively* as oracle references, via the ``repro[sparse]``
    extra.  A missing package turns the cell into a
    :class:`~repro.errors.ConfigError` naming the cell and the fix.
    """
    import importlib

    from ..errors import ConfigError

    try:
        return importlib.import_module(module)
    except ImportError as exc:
        raise ConfigError(
            f"oracle case {case!r} needs the optional reference package "
            f"{module.split('.')[0]!r}; install the extras with "
            f"pip install 'repro[sparse]'"
        ) from exc


def _sparse_operands(seed: int, shape=(13, 9), density: float = 0.35):
    """Seeded integer operands: a sparse matrix, a vector, an absence mask.

    Small positive integers keep every semiring's arithmetic exact, so
    all sparse cells compare bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    D = ((rng.random(shape) < density) * rng.integers(1, 9, shape)).astype(
        np.int64
    )
    x = rng.integers(1, 9, size=shape[1]).astype(np.int64)
    absent = rng.random(shape[1]) < 0.3
    return D, x, absent


def _spmv_case(semiring: str):
    def run(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        sps = _require_reference("scipy.sparse", f"spmv:{semiring}")
        from ..sparse import SparseMatrix, SparseVector, spmv

        D, x, absent = _sparse_operands(seed)
        machine = session.machine
        if semiring == "plus_times":
            S = sps.csr_matrix(D)
            A = SparseMatrix.from_dense(machine, D)
            xv = SparseVector.from_numpy(machine, np.where(absent, 0, x))
            return spmv(A, xv, semiring).to_numpy(), S @ np.where(absent, 0, x)
        if semiring == "or_and":
            pattern = D != 0
            S = sps.csr_matrix(pattern.astype(np.int64))
            A = SparseMatrix.from_dense(machine, pattern)
            xv = SparseVector.from_numpy(machine, ~absent, fill=False)
            return (
                spmv(A, xv, semiring).to_numpy(),
                (S @ (~absent).astype(np.int64)) > 0,
            )
        # min_plus: the scipy CSR supplies structure + values; the dense
        # reference masks absent entries exactly like the annihilator rule.
        dense = sps.csr_matrix(D).toarray()
        A = SparseMatrix.from_dense(machine, D)
        xv = SparseVector.from_numpy(
            machine, np.where(absent, _INT_INF, x), fill=_INT_INF
        )
        valid = (dense != 0) & ~absent[None, :]
        terms = np.where(valid, dense + x[None, :], _INT_INF)
        want = terms.min(axis=1, initial=_INT_INF)
        return spmv(A, xv, semiring).to_numpy(), want

    return run


def _spgemm_case(semiring: str):
    def run(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        sps = _require_reference("scipy.sparse", f"spgemm:{semiring}")
        from ..sparse import SparseMatrix, spgemm

        rng = np.random.default_rng(seed)
        D = ((rng.random((11, 8)) < 0.35) * rng.integers(1, 9, (11, 8))).astype(
            np.int64
        )
        E = ((rng.random((8, 9)) < 0.35) * rng.integers(1, 9, (8, 9))).astype(
            np.int64
        )
        machine = session.machine
        if semiring == "plus_times":
            want = (sps.csr_matrix(D) @ sps.csr_matrix(E)).toarray()
            A = SparseMatrix.from_dense(machine, D)
            B = SparseMatrix.from_dense(machine, E)
            return spgemm(A, B, semiring).to_dense(), want
        if semiring == "or_and":
            SA = sps.csr_matrix((D != 0).astype(np.int64))
            SB = sps.csr_matrix((E != 0).astype(np.int64))
            want = (SA @ SB).toarray() > 0
            A = SparseMatrix.from_dense(machine, D != 0)
            B = SparseMatrix.from_dense(machine, E != 0)
            return spgemm(A, B, semiring).to_dense(), want
        # min_plus: data is >= 1 so every path cost is >= 2 and the dense
        # zero background cannot collide with a computed entry.
        valid = (D != 0)[:, :, None] & (E != 0)[None, :, :]
        terms = np.where(
            valid, D[:, :, None] + E[None, :, :], _INT_INF
        )
        want = terms.min(axis=1, initial=_INT_INF)
        want = np.where(want == _INT_INF, 0, want)
        A = SparseMatrix.from_dense(machine, D)
        B = SparseMatrix.from_dense(machine, E)
        return spgemm(A, B, semiring).to_dense(), want

    return run


#: Seeded random-graph instances per graph cell (ISSUE floor: >= 5).
GRAPH_SEEDS = 5


def _graph_case(kind: str):
    def run(session: Session, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        nx = _require_reference("networkx", f"graph:{kind}")
        from ..algorithms import graph as galg

        gots, wants = [], []
        for offset in range(GRAPH_SEEDS):
            g = workloads.random_graph(16, 3.0, seed=seed + offset)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_weighted_edges_from(
                zip(g.rows.tolist(), g.cols.tolist(), g.weights.tolist())
            )
            if kind == "bfs":
                got = galg.bfs(session, g, 0).values
                want = np.full(g.n, -1, dtype=np.int64)
                for node, d in nx.single_source_shortest_path_length(
                    nxg, 0
                ).items():
                    want[node] = d
            elif kind == "sssp":
                got = galg.sssp(session, g, 0).values
                want = np.full(g.n, -1, dtype=np.int64)
                for node, d in nx.single_source_dijkstra_path_length(
                    nxg, 0, weight="weight"
                ).items():
                    want[node] = int(d)
            else:
                got = galg.connected_components(session, g).values
                want = np.empty(g.n, dtype=np.int64)
                for comp in nx.connected_components(nxg):
                    label = min(comp)
                    for node in comp:
                        want[node] = label
            gots.append(got)
            wants.append(want)
        return np.concatenate(gots), np.concatenate(wants)

    return run


#: The registry, ordered roughly by how much machinery each case exercises.
CASES: Tuple[OracleCase, ...] = (
    OracleCase("matvec", _matvec_case),
    OracleCase("vecmat", _vecmat_case),
    OracleCase("gaussian", _gaussian_case, tol=1e-7),
    OracleCase("simplex", _simplex_case, tol=1e-7),
    OracleCase("fft", _fft_case, tol=1e-7),
    OracleCase("bitonic_sort", _sort_case, exact=True),
    OracleCase("histogram", _histogram_case, exact=True),
    OracleCase("qr_solve", _qr_case, tol=1e-6),
    OracleCase("tridiagonal", _tridiagonal_case, tol=1e-7),
    OracleCase("lu_solve", _lu_case, tol=1e-7),
    OracleCase("conjugate_gradient", _cg_case, tol=1e-6),
    # Sparse primitives vs scipy.sparse, one cell per registered semiring;
    # graph algorithms vs NetworkX over GRAPH_SEEDS seeded random graphs.
    # All integer data: every sparse cell is exact.
    OracleCase("spmv:plus_times", _spmv_case("plus_times"), exact=True),
    OracleCase("spmv:min_plus", _spmv_case("min_plus"), exact=True),
    OracleCase("spmv:or_and", _spmv_case("or_and"), exact=True),
    OracleCase("spgemm:plus_times", _spgemm_case("plus_times"), exact=True),
    OracleCase("spgemm:min_plus", _spgemm_case("min_plus"), exact=True),
    OracleCase("spgemm:or_and", _spgemm_case("or_and"), exact=True),
    OracleCase("graph:bfs", _graph_case("bfs"), exact=True),
    OracleCase("graph:sssp", _graph_case("sssp"), exact=True),
    OracleCase("graph:cc", _graph_case("cc"), exact=True),
)


# -- configuration matrix --------------------------------------------------------

#: (cost_model, plan_cache, trace) cells.  The full matrix covers every
#: combination that has its own code path; ``quick`` keeps one cell with
#: each feature on and one with each feature off.
FULL_MATRIX: Tuple[Tuple[str, bool, bool], ...] = tuple(
    (cm, cache, trace)
    for cm in ("cm2", "unit")
    for cache in (True, False)
    for trace in (False, True)
)
QUICK_MATRIX: Tuple[Tuple[str, bool, bool], ...] = (
    ("cm2", True, False),
    ("unit", False, True),
)


def _compare(
    case: OracleCase, got: np.ndarray, want: np.ndarray
) -> Tuple[bool, float, str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False, float("inf"), f"shape {got.shape} != {want.shape}"
    if case.exact:
        if np.array_equal(got, want):
            return True, 0.0, ""
        bad = int(np.flatnonzero(np.ravel(got != want))[0])
        return False, float("inf"), f"first mismatch at flat index {bad}"
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    ok = bool(np.allclose(got, want, rtol=case.tol, atol=case.tol))
    return ok, err, "" if ok else f"max |got-want| = {err:g}"


def run_case(
    case: OracleCase,
    cost_model: str,
    plan_cache: bool,
    trace: bool,
    seed: int,
    n_dims: int = 4,
) -> CaseResult:
    """One (case, configuration) cell, sanitizer always attached."""
    config = {
        "cost_model": cost_model,
        "plan_cache": plan_cache,
        "trace": trace,
        "n_dims": n_dims,
        "seed": seed,
    }
    session = Session(
        n_dims,
        cost_model=cost_model,
        plan_cache=plan_cache,
        trace=trace,
        sanitize=True,
    )
    try:
        got, want = case.run(session, seed)
    except Exception as exc:  # a crash is a divergence with a traceback
        return CaseResult(
            case.name, config, False,
            float("inf"), f"{type(exc).__name__}: {exc}",
        )
    ok, err, detail = _compare(case, got, want)
    return CaseResult(case.name, config, ok, err, detail)


# -- fault-recovery axis ---------------------------------------------------------


def _recovery_workloads(seed: int):
    """The tier-1 workloads as ``(name, program_factory, check)`` triples.

    The sizes and seeds are the oracle's own; the resilient programs and the
    checks (``""`` when correct) come from :data:`repro.workloads.WORKLOADS`.
    """
    A, b, _ = workloads.diagonally_dominant_system(12, seed)
    lp = workloads.feasible_lp(5, 8, seed)
    W = workloads.WORKLOADS
    # Integer-valued data keeps sum-reductions exact, so the recovered
    # result stays bit-identical to fault-free even though the survivor
    # subcube reduces in a different association order.
    matvec = W["matvec"].problem(10, seed, reps=3)
    cells = (("gaussian", (A, b)), ("simplex", lp), ("matvec", matvec))
    return tuple(
        (name, partial(W[name].resilient, data), partial(W[name].check, data))
        for name, data in cells
    )


def run_recovery_case(
    name: str,
    make_workload,
    check: Callable[[np.ndarray], str],
    seed: int,
    n_dims: int = 4,
) -> CaseResult:
    """Kill a node mid-run; the recovered result must match fault-free.

    Self-calibrating: the fault-free run measures total simulated time,
    then a node kill is scheduled at 40% of it and the workload re-run
    under :func:`repro.faults.run_resilient` on a fresh session.  The
    fault-free result must first pass ``check`` (``""`` when correct).
    """
    from ..faults.checkpoint import CheckpointStore
    from ..faults.plan import FaultPlan, NodeKill
    from ..faults.recovery import run_resilient

    config = {
        "cost_model": "cm2",
        "axis": "fault-recovered",
        "n_dims": n_dims,
        "seed": seed,
    }
    clean = Session(n_dims, cost_model="cm2", sanitize=True)
    baseline = make_workload()(clean, CheckpointStore(clean))
    detail = check(baseline)
    if detail:
        return CaseResult(
            f"recovery:{name}", config, False, float("inf"),
            f"fault-free run diverges from reference: {detail}",
        )
    kill_at = 0.4 * clean.time
    plan = FaultPlan([NodeKill(time=kill_at, pid=1)])
    faulted = Session(n_dims, cost_model="cm2", faults=plan, sanitize=True)
    report = run_resilient(faulted, make_workload())
    config["kill_at"] = kill_at
    if report.error is not None:
        return CaseResult(
            f"recovery:{name}", config, False, float("inf"),
            f"unrecovered: {report.error}",
        )
    if not np.array_equal(np.asarray(report.result), np.asarray(baseline)):
        err = float(np.max(np.abs(np.asarray(report.result) - baseline)))
        return CaseResult(
            f"recovery:{name}", config, False, err,
            "recovered result is not bit-identical to the fault-free run",
        )
    config["recovered"] = report.recovered
    config["final_p"] = report.final_p
    return CaseResult(f"recovery:{name}", config, True)


def run_sdc_case(
    name: str,
    make_workload,
    check: Callable[[np.ndarray], str],
    seed: int,
    n_dims: int = 4,
    flips: int = 1,
) -> CaseResult:
    """Inject silent data corruption mid-run; ABFT must restore the result.

    Self-calibrating like :func:`run_recovery_case`: the fault-free run
    (no ABFT) measures total simulated time, then ``flips`` bit flips are
    scheduled at the same instant (40% of it) and the workload re-run with
    the checksum layer attached.  One flip must be corrected in place with
    zero replays; two or more land in one checksum block, escalate to
    :class:`~repro.errors.CorruptionError` and replay from checkpoint.
    Either way the recovered result must equal the fault-free baseline
    bit-for-bit (the workloads use integer-valued data, so every
    reduction is exact).
    """
    from ..faults.checkpoint import CheckpointStore
    from ..faults.plan import BitFlip, FaultPlan
    from ..faults.recovery import run_resilient

    config = {
        "cost_model": "cm2",
        "axis": "sdc-recovered",
        "n_dims": n_dims,
        "seed": seed,
        "flips": flips,
    }
    label = f"sdc:{name}" if flips == 1 else f"sdc-multi:{name}"
    clean = Session(n_dims, cost_model="cm2", sanitize=True)
    baseline = make_workload()(clean, CheckpointStore(clean))
    detail = check(baseline)
    if detail:
        return CaseResult(
            label, config, False, float("inf"),
            f"fault-free run diverges from reference: {detail}",
        )
    flip_at = 0.4 * clean.time
    # All flips hit distinct bytes of the most recently protected array at
    # the same instant: one is a correctable single-byte error, two or
    # more defeat the single-error checksum and force a replay.
    events = [
        BitFlip(time=flip_at, pid=1, slot=3 + 8 * k, bit=2, target=0)
        for k in range(flips)
    ]
    plan = FaultPlan(events)
    # Periodic scrubbing bounds detection latency: even a flip landing in
    # a block the workload never reads again is swept within one interval.
    from ..abft import ABFTManager

    faulted = Session(
        n_dims,
        cost_model="cm2",
        faults=plan,
        sanitize=True,
        abft=ABFTManager(scrub_interval=16),
    )
    report = run_resilient(faulted, make_workload())
    counters = faulted.machine.counters
    config["flip_at"] = flip_at
    config["fired"] = faulted.faults.stats.bit_flips
    config["detected"] = counters.abft_detected
    config["corrected"] = counters.abft_corrected
    config["recomputed"] = counters.abft_recomputed
    if report.error is not None:
        return CaseResult(
            label, config, False, float("inf"),
            f"unrecovered: {report.error}",
        )
    if faulted.faults.stats.bit_flips != flips:
        return CaseResult(
            label, config, False, float("inf"),
            f"only {faulted.faults.stats.bit_flips} of {flips} flips landed "
            f"(sdc_skipped={faulted.faults.stats.sdc_skipped})",
        )
    if counters.abft_detected == 0:
        return CaseResult(
            label, config, False, float("inf"),
            "corruption landed but the checksum layer never detected it",
        )
    if not np.array_equal(np.asarray(report.result), np.asarray(baseline)):
        err = float(np.max(np.abs(np.asarray(report.result) - baseline)))
        return CaseResult(
            label, config, False, err,
            "SDC-recovered result is not bit-identical to the fault-free run",
        )
    config["recovered"] = report.recovered
    config["recoveries"] = report.recoveries
    return CaseResult(label, config, True)


# -- batched-execution axis ------------------------------------------------------


def run_batched_case(
    workload: str,
    seed: int,
    n_dims: int = 4,
    n_lanes: int = 4,
) -> CaseResult:
    """Stack ``n_lanes`` seeded instances; every lane must be bit-identical
    to its own scalar run (results *and* simulated ticks) and close to the
    serial reference.

    The batched hypervisor (:mod:`repro.batch`) is imported only here, so
    batch-off oracle axes never load it.
    """
    from ..batch import sweep as batch_sweep

    config = {
        "cost_model": "cm2",
        "axis": "batched",
        "n_dims": n_dims,
        "seed": seed,
        "n_lanes": n_lanes,
    }
    label = f"batched:{workload}"
    grid = [
        {"n_dims": n_dims, "n": 10, "seed": seed + lane, "cost_model": "cm2"}
        for lane in range(n_lanes)
    ]
    try:
        batched = batch_sweep(workload, grid)
        scalar = [
            _scalar_rerun(workload, entry) for entry in grid
        ]
    except Exception as exc:
        return CaseResult(
            label, config, False, float("inf"), f"{type(exc).__name__}: {exc}"
        )
    if not all(r["batched"] for r in batched):
        return CaseResult(
            label, config, False, float("inf"),
            "compatible lanes were not stacked",
        )
    key = "y" if workload == "matvec" else "x"
    for lane, (got, want) in enumerate(zip(batched, scalar)):
        if not np.array_equal(got[key], want[key]):
            err = float(np.max(np.abs(got[key] - want[key])))
            return CaseResult(
                label, config, False, err,
                f"lane {lane} result differs from its scalar run",
            )
        if got["time"] != want["time"]:
            return CaseResult(
                label, config, False, float("inf"),
                f"lane {lane} simulated time {got['time']} != scalar "
                f"{want['time']}",
            )
        if not np.allclose(got[key], want["reference"], rtol=1e-7, atol=1e-7):
            err = float(np.max(np.abs(got[key] - want["reference"])))
            return CaseResult(
                label, config, False, err,
                f"lane {lane} diverges from the serial reference",
            )
    return CaseResult(label, config, True)


def _scalar_rerun(workload: str, params: dict) -> dict:
    """One grid entry on a scalar Session (sanitized) plus its reference."""
    from ..algorithms import serial
    from ..batch.sweep import _scalar_workload, make_problem

    data = make_problem(workload, params)
    session = Session(
        params["n_dims"], cost_model=params.get("cost_model"), sanitize=True
    )
    out = _scalar_workload(workload, params, data)(session)
    if workload == "gaussian":
        out["reference"] = np.linalg.solve(data["A"], data["b"])
    elif workload == "simplex":
        out["reference"] = serial.simplex_solve(
            data["A"], data["b"], data["c"]
        )[2]
    else:
        out["reference"] = data["A"] @ data["x"]
    return out


# -- the sweep -------------------------------------------------------------------


def run_differential(
    seed: int = 0,
    n_dims: int = 4,
    quick: bool = False,
) -> dict:
    """Sweep all cases across the configuration matrix; returns a report.

    The report dict has ``passed`` (bool), ``cells`` (every cell outcome)
    and ``failures`` (the failing subset, with configs) — ready for JSON.
    """
    matrix = QUICK_MATRIX if quick else FULL_MATRIX
    results: List[CaseResult] = []
    for case in CASES:
        for cm, cache, trace in matrix:
            results.append(run_case(case, cm, cache, trace, seed, n_dims))
    recovery = _recovery_workloads(seed)
    for name, make_workload, check in recovery:
        results.append(
            run_recovery_case(name, make_workload, check, seed, n_dims)
        )
    for name, make_workload, check in recovery:
        results.append(run_sdc_case(name, make_workload, check, seed, n_dims))
    # One multi-error cell: defeats the single-error code, must replay.
    g_name, g_factory, g_check = recovery[0]
    results.append(
        run_sdc_case(g_name, g_factory, g_check, seed, n_dims, flips=2)
    )
    # Batched-execution axis: lanes vs their own scalar runs, bit-for-bit.
    batched_workloads = ("gaussian", "matvec") if quick else (
        "gaussian", "simplex", "matvec"
    )
    for workload in batched_workloads:
        results.append(run_batched_case(workload, seed, n_dims))
    failures = [r for r in results if not r.passed]
    return {
        "passed": not failures,
        "seed": seed,
        "n_dims": n_dims,
        "matrix": [list(cell) for cell in matrix],
        "cases": len(CASES),
        "cells": [r.as_dict() for r in results],
        "failures": [r.as_dict() for r in failures],
    }


__all__ = [
    "CASES",
    "CaseResult",
    "FULL_MATRIX",
    "OracleCase",
    "QUICK_MATRIX",
    "run_batched_case",
    "run_case",
    "run_differential",
    "run_recovery_case",
    "run_sdc_case",
]
