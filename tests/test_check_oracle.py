"""The differential oracle: every algorithm vs its serial reference.

These tests exercise the registry machinery itself (a deliberately broken
case must be reported as a divergence with its offending configuration)
plus a quick slice of the real sweep; ``python -m repro check`` runs the
full matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.oracle import (
    CASES,
    FULL_MATRIX,
    OracleCase,
    QUICK_MATRIX,
    run_case,
    run_differential,
    run_recovery_case,
    run_sdc_case,
    _recovery_workloads,
)


def test_case_registry_covers_the_algorithms():
    names = {case.name for case in CASES}
    assert {
        "matvec", "vecmat", "gaussian", "simplex", "fft", "bitonic_sort",
        "histogram", "qr_solve", "tridiagonal", "lu_solve",
        "conjugate_gradient",
    } <= names


def test_full_matrix_shape():
    # cost models x plan-cache on/off x trace on/off
    assert len(FULL_MATRIX) == 8
    assert len(set(FULL_MATRIX)) == 8
    assert set(QUICK_MATRIX) <= set(FULL_MATRIX)


def test_quick_differential_passes():
    report = run_differential(seed=0, n_dims=3, quick=True)
    assert report["passed"], report["failures"]
    assert report["failures"] == []
    # every case ran in every quick cell, plus the recovery axis (3 node
    # kills), the SDC axis (3 single flips + 1 multi-flip escalation) and
    # the batched-execution axis (gaussian + matvec in quick mode)
    assert len(report["cells"]) == len(CASES) * len(QUICK_MATRIX) + 7 + 2


def test_divergent_case_is_reported_with_config():
    def broken(session, seed):
        rng = np.random.default_rng(seed)
        got = rng.standard_normal(5)
        return got, got + 1.0  # always off by one

    case = OracleCase(name="broken", run=broken, tol=1e-8)
    result = run_case(
        case, cost_model="unit", plan_cache=False, trace=False, seed=0,
        n_dims=3,
    )
    assert not result.passed
    assert result.case == "broken"
    assert result.config["cost_model"] == "unit"
    assert result.max_error is not None and result.max_error > 0.5


def test_crashing_case_is_a_divergence_not_an_error():
    def crashes(session, seed):
        raise RuntimeError("kaboom")

    case = OracleCase(name="crashes", run=crashes)
    result = run_case(
        case, cost_model="cm2", plan_cache=True, trace=False, seed=0,
        n_dims=3,
    )
    assert not result.passed
    assert "kaboom" in result.detail


def test_recovery_case_matches_fault_free_baseline():
    name, make_workload, reference = _recovery_workloads(seed=0)[0]
    result = run_recovery_case(
        name, make_workload, reference, seed=0, n_dims=4
    )
    assert result.passed, result.detail
    assert result.config["axis"] == "fault-recovered"
    assert result.config["recovered"]
    assert result.config["final_p"] < 16


@pytest.mark.parametrize(
    "run_cell", [run_recovery_case, run_sdc_case], ids=["recovery", "sdc"]
)
def test_simplex_cells_check_the_fault_free_result(run_cell):
    """A feasible but suboptimal fault-free x (zeros) fails the cell before
    any fault is injected, however faithfully recovery reproduces it."""
    name, make_workload, check = _recovery_workloads(seed=0)[1]
    assert name == "simplex"

    def suboptimal():
        program = make_workload()
        return lambda session, store: np.zeros_like(program(session, store))

    result = run_cell(name, suboptimal, check, seed=0, n_dims=4)
    assert not result.passed
    assert result.detail.startswith("fault-free run diverges from reference")
