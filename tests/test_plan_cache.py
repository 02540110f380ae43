"""Golden equivalence of the communication plan cache.

The cache accelerates wall-clock simulation only: with the cache enabled,
simulated ticks, every :class:`CostSnapshot` field and every functional
result must be *bit-identical* to the cache-disabled run (which rebuilds
every plan along the same path).  These tests pin that invariant on the
iterative solvers — bare and with ABFT, the sanitizer and a fail-stop fault
plan attached — and on a remap-heavy loop, and
cover the cache's lifecycle: per-machine invalidation, the environment
kill-switch, LRU eviction and the observability counters.
"""

import numpy as np
import pytest

from repro import Session, workloads as W
from repro.algorithms import gaussian, simplex
from repro.faults import FaultPlan
from repro.core import DistributedMatrix, DistributedVector
from repro.embeddings import (
    ColAlignedEmbedding,
    MatrixEmbedding,
    RowAlignedEmbedding,
    VectorOrderEmbedding,
    remap_vector,
    transpose,
)
from repro.embeddings.remap import redistribute_matrix
from repro.machine import CostModel, Hypercube
from repro.machine.plans import MISSING, PlanCache


SNAPSHOT_FIELDS = ("time", "flops", "elements_transferred", "comm_rounds",
                   "local_moves")


def assert_snapshots_identical(snap_on, snap_off):
    for field in SNAPSHOT_FIELDS:
        on, off = getattr(snap_on, field), getattr(snap_off, field)
        assert on == off, f"CostSnapshot.{field}: cache-on {on} != cache-off {off}"


def run_gaussian(plan_cache, **opts):
    A, b, _ = W.diagonally_dominant_system(31, seed=7)
    s = Session(6, plan_cache=plan_cache, **opts)
    res = gaussian.solve(s.matrix(A), b)
    return s.snapshot(), res.x, s


def run_simplex(plan_cache, **opts):
    lp = W.feasible_lp(16, 12, seed=3)
    s = Session(6, plan_cache=plan_cache, **opts)
    res = simplex.solve(s.machine, lp.A, lp.b, lp.c)
    return s.snapshot(), res.x, s


def run_remap_loop(plan_cache):
    """A remap-heavy loop: band walk + order changes + transpose/redistribute."""
    machine = Hypercube(6, CostModel.cm2(), plan_cache=plan_cache)
    emb = MatrixEmbedding.default(machine, 24, 24)
    A = W.dense_matrix(24, 24, seed=5)
    M = emb.scatter(A)
    v_h = W.dense_vector(24, seed=6)
    outputs = []
    for _ in range(3):
        # vector order -> row aligned -> column bands
        vo = VectorOrderEmbedding(machine, 24)
        pv = vo.scatter(v_h)
        row = RowAlignedEmbedding(emb, None)
        pv = remap_vector(pv, vo, row)
        cur = ColAlignedEmbedding(emb, 0)
        pc = cur.scatter(v_h)
        for band in range(1, emb.Pc):
            nxt = ColAlignedEmbedding(emb, band)
            pc = remap_vector(pc, cur, nxt)
            cur = nxt
        # embedding changes of the matrix itself
        Mt, emb_t = transpose(M, emb)
        M2 = redistribute_matrix(Mt, emb_t, emb_t)
        alt = MatrixEmbedding(
            machine, 24, 24,
            row_dims=emb.col_dims, col_dims=emb.row_dims,
        )
        M3 = redistribute_matrix(M2, emb_t, alt)
        outputs.append((pv.data.copy(), pc.data.copy(), M3.data.copy()))
    return machine.snapshot(), outputs, machine


def _fail_stop_faults(runner):
    """A seeded fail-stop plan (two drops, one link kill) landing mid-run."""
    horizon = runner(plan_cache=True)[0].time
    return {"faults": FaultPlan.random(6, seed=11, horizon=horizon)}


#: Observers attached to both runs of a cache on/off pair.  The ABFT wire
#: word and the sanitizer's audits must not see which arm ran.
OBSERVERS = {
    "": lambda runner: {},
    "abft": lambda runner: {"abft": True},
    "abft-sanitize": lambda runner: {"abft": True, "sanitize": True},
    "faults": _fail_stop_faults,
}


@pytest.mark.parametrize(
    "runner, observers",
    [
        pytest.param(runner, obs, id=f"{name}-{obs}" if obs else name)
        for obs in OBSERVERS
        for name, runner in (("gaussian", run_gaussian),
                             ("simplex", run_simplex))
    ],
)
def test_solvers_bit_identical(runner, observers):
    opts = OBSERVERS[observers](runner)
    snap_on, x_on, s_on = runner(plan_cache=True, **opts)
    snap_off, x_off, s_off = runner(plan_cache=False, **opts)
    assert_snapshots_identical(snap_on, snap_off)
    assert np.array_equal(x_on, x_off)
    # the enabled run actually exercised the cache; the disabled one didn't
    assert s_on.machine.plans.hits > 0
    assert s_off.machine.plans.hits == 0 and s_off.machine.plans.misses == 0
    assert len(s_off.machine.plans) == 0
    if "faults" in opts:
        assert s_on.machine.faults.stats.link_kills == 1
        assert s_on.machine.faults.stats.drops > 0


def test_remap_loop_bit_identical():
    snap_on, out_on, m_on = run_remap_loop(plan_cache=True)
    snap_off, out_off, m_off = run_remap_loop(plan_cache=False)
    assert_snapshots_identical(snap_on, snap_off)
    for (a_on, b_on, c_on), (a_off, b_off, c_off) in zip(out_on, out_off):
        assert np.array_equal(a_on, a_off)
        assert np.array_equal(b_on, b_off)
        assert np.array_equal(c_on, c_off)
    # iterations 2 and 3 replay iteration 1's plans
    assert m_on.plans.hits > m_on.plans.misses


def test_repeated_solves_hit_cache():
    A, b, _ = W.diagonally_dominant_system(31, seed=9)
    s = Session(6, plan_cache=True)
    gaussian.solve(s.matrix(A), b)
    first = (s.machine.plans.hits, s.machine.plans.misses)
    gaussian.solve(s.matrix(A), b)
    second_misses = s.machine.plans.misses - first[1]
    # a second identical solve constructs no new plans
    assert second_misses == 0
    assert s.machine.plans.hits > first[0]


def test_fresh_machine_fresh_cache():
    """Plans never leak across machines or cost models."""
    m1 = Hypercube(4, CostModel.cm2(), plan_cache=True)
    emb = MatrixEmbedding.default(m1, 8, 8)
    M = emb.scatter(W.dense_matrix(8, 8, seed=1))
    transpose(M, emb)
    assert len(m1.plans) > 0

    m2 = Hypercube(4, CostModel.cm2(), plan_cache=True)
    assert len(m2.plans) == 0
    assert m2.plans.hits == 0 and m2.plans.misses == 0
    assert m2.plans is not m1.plans

    # a machine with a different cost model starts cold too, and replaying
    # the same workload charges per its own model, untouched by m1's cache
    m3 = Hypercube(4, CostModel.unit(), plan_cache=True)
    assert len(m3.plans) == 0
    emb3 = MatrixEmbedding.default(m3, 8, 8)
    M3 = emb3.scatter(W.dense_matrix(8, 8, seed=1))
    transpose(M3, emb3)
    m4 = Hypercube(4, CostModel.unit(), plan_cache=False)
    emb4 = MatrixEmbedding.default(m4, 8, 8)
    M4 = emb4.scatter(W.dense_matrix(8, 8, seed=1))
    transpose(M4, emb4)
    assert_snapshots_identical(m3.snapshot(), m4.snapshot())


def test_env_var_disables_cache(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
    s = Session(4)
    assert not s.machine.plans.enabled
    # explicit opt-in overrides the environment
    s2 = Session(4, plan_cache=True)
    assert s2.machine.plans.enabled
    monkeypatch.setenv("REPRO_PLAN_CACHE", "off")
    assert not Hypercube(4).plans.enabled
    monkeypatch.delenv("REPRO_PLAN_CACHE")
    assert Hypercube(4).plans.enabled


def test_disabled_cache_stores_nothing():
    cache = PlanCache(Hypercube(2, plan_cache=False), enabled=False)
    assert cache.lookup("k") is MISSING
    calls = []
    assert cache.memo("k", lambda: calls.append(1) or 42) == 42
    assert cache.memo("k", lambda: calls.append(1) or 42) == 42
    assert len(calls) == 2  # recomputed every call
    assert len(cache) == 0


def test_lru_eviction():
    machine = Hypercube(2, plan_cache=True)
    cache = PlanCache(machine, maxsize=2, enabled=True)
    cache.store("a", 1)
    cache.store("b", 2)
    cache.lookup("a")  # refresh "a"
    cache.store("c", 3)  # evicts "b", the least recently used
    assert cache.lookup("b") is MISSING
    assert cache.lookup("a") == 1
    assert cache.lookup("c") == 3
    assert cache.evictions == 1


def test_report_mentions_plan_cache():
    s = Session(4, plan_cache=True)
    A, b, _ = W.diagonally_dominant_system(7, seed=2)
    gaussian.solve(s.matrix(A), b)
    assert "plan cache" in s.report()
    s_off = Session(4, plan_cache=False)
    assert "plan cache        : disabled" in s_off.report()


def test_plan_stats_on_counters():
    s = Session(4, plan_cache=True)
    A, b, _ = W.diagonally_dominant_system(7, seed=2)
    gaussian.solve(s.matrix(A), b)
    stats = s.machine.counters.plan_stats()
    assert stats["hits"] == s.machine.plans.hits > 0
    assert stats["misses"] == s.machine.plans.misses > 0
    # observability resets with the counters, like every other statistic
    s.reset_counters()
    assert s.machine.plans.hits == 0
