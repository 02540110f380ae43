"""Batched entry points: the scalar solver texts, run on stacked lanes.

Each function runs ``n_runs`` independent problems in lock-step on a
:class:`~.session.BatchSession` and holds no algorithm logic: it stacks
the host data in (run axis first), calls the one lane-aware text in
:mod:`repro.algorithms` on the batched machine (steps where lanes diverge
go through :mod:`.lanewise`), and packages the lanes out in a
``Batch*Result`` whose ``.lane(k)`` is lane ``k`` in the scalar result
type, bit-identical to the same problem solved alone.

* :func:`gaussian_solve` — :func:`repro.algorithms.gaussian.solve`,
  ``'partial'`` or ``'none'`` pivoting;
* :func:`simplex_solve` — :func:`repro.algorithms.simplex.solve` for LPs
  with ``b >= 0`` (no per-lane phase I); lanes stop independently;
* :func:`matvec` / :func:`vecmat` — fully uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms import gaussian, matvec as _matvec, simplex
from ..algorithms.gaussian import GaussianResult
from ..algorithms.simplex import SimplexResult
from ..machine.counters import CostSnapshot
from .counters import lane_cost
from .session import BatchSession


@dataclass
class BatchGaussianResult:
    """Stacked solutions plus per-lane provenance and cost."""

    x: np.ndarray             # (n_runs, n)
    pivots: np.ndarray        # (n_runs, n) int64
    pivot_values: np.ndarray  # (n_runs, n)
    cost: CostSnapshot        # vector-valued: fields are (n_runs,) arrays

    def lane(self, lane: int) -> GaussianResult:
        """One lane's outcome in the scalar result type."""
        return GaussianResult(
            x=self.x[lane].copy(),
            pivots=self.pivots[lane].tolist(),
            cost=lane_cost(self.cost, lane),
        )


def gaussian_solve(
    session: BatchSession,
    A: np.ndarray,
    b: np.ndarray,
    pivoting: str = "partial",
    tol: float = 1e-12,
) -> BatchGaussianResult:
    """Solve ``A[k] x = b[k]`` for every lane ``k`` in one stacked pass.

    ``A`` has shape ``(n_runs, n, n)``, ``b`` has ``(n_runs, n)``.  Raises
    :class:`SingularMatrixError` if *any* lane hits a singular step (the
    batch shares one instruction stream; filter inputs or fall back to
    scalar solves for mixed feasibility).
    """
    res = gaussian.solve(
        session.matrix(A), b, pivoting=pivoting, tol=tol, keep_tableau=True
    )
    # Each pivot row is final once used: the pivots are the diagonal.
    T = session.to_host(res.tableau)
    return BatchGaussianResult(
        x=res.x,
        pivots=np.stack(res.pivots, axis=1),
        pivot_values=np.diagonal(T, axis1=1, axis2=2).copy(),
        cost=res.cost,
    )


@dataclass
class BatchSimplexResult:
    """Stacked LP outcomes plus per-lane provenance and cost."""

    status: np.ndarray         # (n_runs,) str
    objective: np.ndarray      # (n_runs,)
    x: np.ndarray              # (n_runs, n)
    iterations: np.ndarray     # (n_runs,) int64
    basis: np.ndarray          # (n_runs, m) int64
    cost: CostSnapshot         # vector-valued
    duals: np.ndarray = None          # (n_runs, m)
    reduced_costs: np.ndarray = None  # (n_runs, n)
    pivots: np.ndarray = None  # (n_runs, steps, 2) int64, -1 once stopped

    def lane(self, lane: int) -> SimplexResult:
        """One lane's outcome in the scalar result type."""
        unbounded = str(self.status[lane]) == "unbounded"
        return SimplexResult(
            status=str(self.status[lane]),
            objective=float(self.objective[lane]),
            x=self.x[lane].copy(),
            iterations=int(self.iterations[lane]),
            phase1_iterations=0,
            basis=self.basis[lane].tolist(),
            pivots=[(r, j) for r, j in self.pivots[lane].tolist() if r >= 0],
            cost=lane_cost(self.cost, lane),
            duals=None if unbounded else self.duals[lane].copy(),
            reduced_costs=(
                None if unbounded else self.reduced_costs[lane].copy()
            ),
        )


def simplex_solve(
    session: BatchSession,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    rule: str = "dantzig",
    tol: float = 1e-9,
    max_iters: int = None,
) -> BatchSimplexResult:
    """Solve ``max c[k]·x s.t. A[k] x <= b[k], x >= 0`` per lane.

    Requires ``b >= 0`` everywhere (the all-slack basis is feasible, so
    there is no per-lane phase I); :func:`repro.batch.sweep` routes LPs
    with negative ``b`` to scalar sessions.  Lanes reach optimality or
    unboundedness independently: a finished lane stops charging while the
    others keep pivoting.
    """
    res = simplex.solve(
        session.machine, A, b, c, rule=rule, tol=tol, max_iters=max_iters
    )
    steps = np.array(res.pivots, dtype=np.int64).reshape(-1, 2, session.n_runs)
    return BatchSimplexResult(
        status=res.status.astype(str),
        objective=res.objective,
        x=res.x,
        iterations=res.iterations,
        basis=np.asarray(res.basis),
        cost=res.cost,
        duals=res.duals,
        reduced_costs=res.reduced_costs,
        pivots=steps.transpose(2, 0, 1),
    )


@dataclass
class BatchMatvecResult:
    """Stacked products plus the vector-valued cost."""

    y: np.ndarray      # (n_runs, R) for matvec, (n_runs, C) for vecmat
    cost: CostSnapshot

    def lane_cost(self, lane: int) -> CostSnapshot:
        return lane_cost(self.cost, lane)


def matvec(session: BatchSession, A: np.ndarray, x: np.ndarray) -> BatchMatvecResult:
    """``y[k] = A[k] @ x[k]`` per lane: the scalar recipe on stacked arrays."""
    M = session.matrix(A)
    xv = session.row_vector(x, like=M)
    res = _matvec.matvec(M, xv)
    return BatchMatvecResult(y=session.to_host(res.y), cost=res.cost)


def vecmat(session: BatchSession, x: np.ndarray, A: np.ndarray) -> BatchMatvecResult:
    """``y[k] = x[k] @ A[k]`` per lane."""
    M = session.matrix(A)
    xv = session.col_vector(x, like=M)
    res = _matvec.vecmat(xv, M)
    return BatchMatvecResult(y=session.to_host(res.y), cost=res.cost)
