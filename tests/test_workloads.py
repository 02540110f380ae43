"""Unit tests for the workload generators and the application registry."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import workloads as W


class TestDense:
    def test_matrix_shape_and_determinism(self):
        A = W.dense_matrix(5, 7, seed=3)
        B = W.dense_matrix(5, 7, seed=3)
        assert A.shape == (5, 7)
        assert np.array_equal(A, B)
        assert not np.array_equal(A, W.dense_matrix(5, 7, seed=4))

    def test_vector(self):
        v = W.dense_vector(9, seed=1, scale=2.0)
        assert v.shape == (9,)
        assert np.array_equal(v, W.dense_vector(9, seed=1, scale=2.0))


class TestLinearSystems:
    def test_diagonally_dominant_is_dominant(self):
        A, b, x = W.diagonally_dominant_system(12, seed=0)
        off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
        assert np.all(np.abs(np.diag(A)) > off)
        assert np.allclose(A @ x, b)

    def test_random_system_consistent(self):
        A, b, x = W.random_system(8, seed=5)
        assert np.allclose(A @ x, b)
        assert np.allclose(np.linalg.solve(A, b), x)


class TestLPs:
    def test_feasible_lp_is_feasible_at_zero(self):
        lp = W.feasible_lp(6, 4, seed=0)
        assert np.all(lp.b >= 0)
        assert np.all(lp.A >= 0)
        assert np.all(lp.c > 0)

    def test_feasible_lp_bounded(self):
        scipy = pytest.importorskip("scipy")
        from scipy.optimize import linprog
        lp = W.feasible_lp(6, 4, seed=1)
        res = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=(0, None),
                      method="highs")
        assert res.status == 0  # optimal, not unbounded

    def test_two_phase_lp_has_negative_rhs_and_is_feasible(self):
        scipy = pytest.importorskip("scipy")
        from scipy.optimize import linprog
        found_negative = False
        for seed in range(6):
            lp = W.two_phase_lp(6, 4, seed=seed)
            res = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=(0, None),
                          method="highs")
            assert res.status == 0, f"seed {seed} not solvable"
            found_negative |= bool(np.any(lp.b < 0))
        assert found_negative

    def test_unbounded_lp(self):
        scipy = pytest.importorskip("scipy")
        from scipy.optimize import linprog
        lp = W.unbounded_lp()
        res = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=(0, None),
                      method="highs")
        assert res.status == 3  # unbounded

    def test_infeasible_lp(self):
        scipy = pytest.importorskip("scipy")
        from scipy.optimize import linprog
        lp = W.infeasible_lp()
        res = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=(0, None),
                      method="highs")
        assert res.status == 2  # infeasible

    def test_instances_are_deterministic(self):
        a = W.feasible_lp(4, 3, seed=7)
        b = W.feasible_lp(4, 3, seed=7)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.c, b.c)


# ---------------------------------------------------------------------------
# the application registry
# ---------------------------------------------------------------------------


def _perturbed(name, out):
    """A wrong answer each ``check`` must reject."""
    out = np.array(out, copy=True)
    if name == "gaussian":
        out[0] += 1e-3
    elif name == "simplex":
        out = np.zeros_like(out)  # feasible (b > 0) but suboptimal
    else:  # matvec: one unit off; bfs: the last vertex one level off
        out[-1 if name == "bfs" else 0] += 1
    return out


@pytest.mark.parametrize("size", [8, 12])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_registry_entry_runs_resilient_and_checks(name, seed, size):
    from repro import Session
    from repro.faults import CheckpointStore

    entry = W.WORKLOADS[name]
    data = entry.problem(size, seed)
    plain = Session(3)
    out = entry.run(plain, data)
    resilient = Session(3)
    got = entry.resilient(data)(resilient, CheckpointStore(resilient))
    assert np.array_equal(got, out)
    assert got.dtype == out.dtype
    if name != "gaussian":  # gaussian also pays for its checkpoint saves
        assert resilient.snapshot() == plain.snapshot()
    assert entry.check(data, out) == ""
    assert entry.check(data, _perturbed(name, out)) != ""


def test_unknown_workload_is_a_config_error():
    from repro.errors import ConfigError
    from repro.metrics import warehouse as wh

    with pytest.raises(ConfigError, match="mystery"):
        W.program("mystery", 8, 0)
    spec = wh.RunSpec("resilience", {"n_dims": 3, "size": 8,
                                     "workload": "mystery"}, reps=1)
    with pytest.raises(ConfigError, match="mystery"):
        wh.run_spec(spec, validate=False)


_LIGHT_IMPORT = """
import json, sys
import repro.workloads
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""


def _subprocess_json(code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin",
                         "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_importing_the_registry_stays_light():
    loaded = _subprocess_json(_LIGHT_IMPORT)
    assert "repro.workloads" in loaded
    for heavy in ("repro.faults", "repro.sparse", "repro.batch",
                  "repro.abft", "repro.metrics", "repro.algorithms.graph"):
        assert not any(
            m == heavy or m.startswith(heavy + ".") for m in loaded
        ), heavy


_CONSUMER_RUNS = {
    "warehouse": """
from repro.metrics import warehouse as wh
spec = wh.RunSpec("resilience", {"n_dims": 3, "size": 8, "workload": "matvec",
                  "strategy": "host", "every": 2}, reps=1)
ok = wh.run_spec(spec, validate=True)["validated"] is True
""",
    "cli": """
import contextlib, io
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    ok = main(["faults", "-n", "3", "--workload", "simplex", "--size", "8",
               "--json"]) == 0
""",
}


@pytest.mark.parametrize("consumer", sorted(_CONSUMER_RUNS))
def test_resilient_consumers_never_import_chaos(consumer):
    """The warehouse and the CLI reach the resilient programs through the
    registry, never through the chaos harness."""
    sub = _subprocess_json(
        "import json, sys\n" + _CONSUMER_RUNS[consumer]
        + 'print(json.dumps([ok, "repro.faults.chaos" in sys.modules]))\n'
    )
    assert sub == [True, False]
