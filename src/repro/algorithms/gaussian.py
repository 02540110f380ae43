"""Application 2: Gaussian elimination with partial pivoting.

The paper's second application.  Written entirely in the four primitives:

* pivot search      — ``argreduce`` (arg-max of |column k| over candidate rows);
* row swap          — two ``extract`` / two ``insert`` (or *no* data motion
  with implicit pivoting, which only tracks the permutation);
* multiplier column — ``extract`` column k, scale, mask;
* elimination       — one rank-1 update (``distribute`` + local arithmetic);
* back substitution — column sweeps: ``extract`` column k, axpy.

Per elimination step the communication is a constant number of ``lg p``
round collectives while the arithmetic is the ``O(m/p)`` local rank-1
update, so for ``m > p lg p`` the arithmetic dominates and the whole solve
is processor-time optimal to a constant — the paper's headline claim,
audited in :mod:`repro.analysis.optimality`.

Pivoting strategies
-------------------
``'partial'``
    classic partial pivoting with physical row swaps (two extracts + two
    inserts per swap);
``'implicit'``
    partial pivoting *without* moving rows: the pivot order is tracked and
    back substitution reads rows in pivot order — trading the swap traffic
    for one mask update per step (an ablation target: see
    ``benchmarks/bench_ablation.py``);
``'none'``
    no pivoting (diagonal pivots; fails on zero diagonals).

On top of the factorisation: :func:`solve` (one RHS), :func:`solve_multi`
(blocked RHS), :func:`invert` and :func:`determinant`.

The functions take any :class:`~repro.core.arrays.DistributedMatrix`
subclass, so the naive baseline runs the *identical* algorithm text with
its own primitive implementations.  :func:`eliminate`,
:func:`back_substitute` and :func:`solve` also run on a batched machine
(:mod:`repro.batch`, ``'partial'`` or ``'none'`` pivoting): the row swap
and the host-side pivot tests go through :mod:`.lanes`, so each lane
takes its own pivots and stays bit-identical to a scalar run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..machine.counters import CostSnapshot
from ..core.arrays import DistributedMatrix, DistributedVector, iota
from ..errors import ConfigError, ShapeError
from .lanes import (
    any_lane, extract_at, from_host, get_at, host_value, immediate,
    insert_at, lane_shape, merge, to_host,
)

PIVOTING_MODES = ("partial", "implicit", "none")


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when no acceptable pivot exists at some elimination step."""


@dataclass
class GaussianResult:
    """Solution plus provenance: pivot order and simulated cost."""

    x: np.ndarray
    pivots: List[int]
    cost: CostSnapshot
    tableau: Optional[DistributedMatrix] = None


@dataclass
class Elimination:
    """A forward-eliminated tableau.

    ``pivots[k]`` is the row used as the k-th pivot; with explicit swapping
    it records which row was *brought to* position k (so the tableau is
    upper triangular in place), with implicit pivoting the rows stay put
    and ``pivots`` is the row permutation back substitution must follow.
    ``pivot_values[k]`` is the pivot element — their product (signed by the
    permutation parity) is the determinant.
    """

    tableau: DistributedMatrix
    pivots: List[int]
    pivot_values: List[float]
    pivoting: str

    def row_of_step(self, k: int) -> int:
        """The tableau row holding the k-th pivot after elimination."""
        return self.pivots[k] if self.pivoting == "implicit" else k

    def permutation_sign(self) -> float:
        """Parity of the pivot permutation (the determinant's sign factor)."""
        if self.pivoting != "implicit":  # one transposition per row swap
            swaps = sum(piv != k for k, piv in enumerate(self.pivots))
        else:  # sort the row permutation by transpositions, counting them
            perm, swaps = list(self.pivots), 0
            for i in range(len(perm)):
                while perm[i] != i:
                    j = perm[i]
                    perm[i], perm[j] = perm[j], j
                    swaps += 1
        return -1.0 if swaps % 2 else 1.0


def eliminate(
    T: DistributedMatrix,
    pivoting: str = "partial",
    tol: float = 1e-12,
    start: int = 0,
    pivots: Optional[List[int]] = None,
    pivot_values: Optional[List[float]] = None,
    on_step: Optional[callable] = None,
) -> Elimination:
    """Forward-eliminate an ``n × w`` tableau (``w >= n``).

    Columns ``n..w-1`` ride along as right-hand sides.  See the module
    docstring for the pivoting modes.

    ``start``/``pivots``/``pivot_values`` resume a partially eliminated
    tableau (degraded-mode recovery): ``T`` must be the tableau as it
    stood after step ``start - 1``, with ``pivots``/``pivot_values`` the
    history of steps ``0..start-1``.  ``on_step(k, T, pivots,
    pivot_values)`` fires after each completed step with ``k`` steps done
    and the *current* tableau — checkpoint hooks save from here.
    """
    machine = T.machine
    # A batched machine shares one row order across lanes: no 'implicit'.
    modes = PIVOTING_MODES if machine.n_runs is None else ("partial", "none")
    if pivoting not in modes:
        raise ConfigError(f"pivoting must be one of {modes}, got {pivoting!r}")
    n, w = T.shape
    if w < n:
        raise ShapeError("tableau must have at least as many columns as rows")
    pivots = list(pivots) if pivots is not None else []
    pivot_values = list(pivot_values) if pivot_values is not None else []
    if not (0 <= start <= n):
        raise ConfigError(f"start must be in [0, {n}], got {start}")
    if len(pivots) != start or len(pivot_values) != start:
        raise ConfigError(
            f"resuming at step {start} requires {start} prior pivots/values, "
            f"got {len(pivots)}/{len(pivot_values)}"
        )
    row_iota = None
    not_pivoted = None  # implicit mode: rows still awaiting their pivot

    for k in range(start, n):
        with machine.phase("pivot-search"):
            col = T.extract(axis=1, index=k)
            if row_iota is None:
                row_iota = iota(col.embedding)
                if pivoting == "implicit":
                    # Reconstruct the pending-rows mask from the pivot
                    # history on resume: rows already used as pivots are out.
                    not_pivoted = row_iota >= 0
                    for used in pivots:
                        not_pivoted = not_pivoted & ~row_iota.eq(int(used))
            if pivoting == "none":
                prow = k
                pval = col.get_global(k)
                if any_lane(abs(pval) <= tol):
                    raise SingularMatrixError(
                        f"zero diagonal at step {k} with pivoting='none'"
                    )
            else:
                if pivoting == "partial":
                    candidates = row_iota >= k
                else:
                    candidates = not_pivoted
                pval, prow = abs(col).argreduce("max", valid=candidates)
                if any_lane(prow < 0) or any_lane(abs(pval) <= tol):
                    raise SingularMatrixError(
                        f"no pivot above tolerance at elimination step {k}"
                    )
        pivots.append(host_value(machine, prow, int))

        if pivoting == "partial":
            swap = prow != k  # per lane on a batched machine
            if any_lane(swap):
                with machine.phase("row-swap"):
                    T = _swap_rows(T, k, prow, swap)
            prow = k

        with machine.phase("update"):
            pivot_row = T.extract(axis=0, index=int(prow))
            pivot_val = pivot_row.get_global(k)
            pivot_values.append(host_value(machine, pivot_val))
            col = T.extract(axis=1, index=k)
            if pivoting == "implicit":
                below = not_pivoted & ~row_iota.eq(int(prow))
                not_pivoted = not_pivoted & ~row_iota.eq(int(prow))
            else:
                below = row_iota > k
            mults = below.where(col / immediate(machine, pivot_val), 0.0)
            T = T.sub_outer(mults, pivot_row)
            # The eliminated column is exactly zero in those rows in real
            # arithmetic; enforce it so round-off cannot leak into later
            # pivot searches.
            zero_col = below.where(0.0, T.extract(axis=1, index=k))
            T = T.insert(axis=1, index=k, vector=zero_col)
        if on_step is not None:
            on_step(k + 1, T, pivots, pivot_values)
    return Elimination(T, pivots, pivot_values, pivoting)


def _swap_rows(T: DistributedMatrix, k: int, prow: int, act=None):
    """Exchange rows ``k`` and ``prow``: two extracts, two inserts."""
    rk = extract_at(T, 0, k, act)
    rp = extract_at(T, 0, prow, act)
    T = insert_at(T, 0, k, rp, act)
    return insert_at(T, 0, prow, rk, act)


def jordan_pivot(
    T: DistributedMatrix,
    r: int,
    j: int,
    row_iota: DistributedVector,
    act=None,
) -> DistributedMatrix:
    """Pivot on ``(r, j)``: the Gauss-Jordan (and simplex) step.

    Scales row ``r`` to a unit pivot, eliminates column ``j`` from the
    other rows (one rank-1 update) and pins it to the exact unit vector,
    so round-off cannot accumulate there.  Per lane in ``act`` if batched.
    """
    machine = T.machine
    prow = extract_at(T, 0, r, act)
    pval = get_at(prow, j, act)
    prow = prow * immediate(machine, 1.0 / pval)
    T = insert_at(T, 0, r, prow, act)
    col = extract_at(T, 1, j, act)
    not_r = ~row_iota.eq(immediate(machine, r))
    mcol = not_r.where(col, 0.0)
    T = merge(T.sub_outer(mcol, prow), T, act)
    unit = row_iota.eq(immediate(machine, r)).where(1.0, 0.0)
    return insert_at(T, 1, j, unit, act)


def back_substitute(
    elim: "Elimination | DistributedMatrix",
    rhs_col: Optional[int] = None,
    tol: float = 1e-12,
) -> np.ndarray:
    """Solve one right-hand side of an eliminated tableau by column sweeps.

    ``rhs_col`` selects which tableau column is the RHS (default: column
    ``n``, the classic augmented system).  Retires one unknown per sweep:
    read ``x_k`` from the pivot row of step ``k``, subtract ``x_k ×``
    column ``k`` from the RHS in the rows whose pivots are still pending.
    Accepts a bare upper-triangular tableau for convenience.
    """
    if isinstance(elim, DistributedMatrix):
        n = elim.shape[0]
        elim = Elimination(elim, list(range(n)), [], "partial")
    T = elim.tableau
    n, w = T.shape
    if rhs_col is None:
        rhs_col = n
    if not (n <= rhs_col < w):
        raise ConfigError(
            f"rhs_col {rhs_col} out of the RHS range [{n}, {w}) — "
            "expected an n x (n+k) tableau"
        )
    machine = T.machine
    x = np.zeros(lane_shape(machine, n))
    with machine.phase("back-substitution"):
        rhs = T.extract(axis=1, index=rhs_col)
        row_iota = iota(rhs.embedding)
        pending = row_iota >= 0  # rows whose unknown is still unsolved
        for k in range(n - 1, -1, -1):
            r = elim.row_of_step(k)
            diag = T.get_global(r, k)
            if any_lane(abs(diag) <= tol):
                raise SingularMatrixError(
                    f"zero diagonal at back-substitution step {k}"
                )
            xk = rhs.get_global(r) / diag
            x[..., k] = xk
            pending = pending & ~row_iota.eq(r)
            if k:
                colk = T.extract(axis=1, index=k)
                rhs = rhs - pending.where(colk, 0.0) * immediate(machine, xk)
    return x


def _order(A: DistributedMatrix) -> int:
    n, n2 = A.shape
    if n != n2:
        raise ShapeError(f"A must be square, got {A.shape}")
    return n


def _rhs_column(A: DistributedMatrix, b: np.ndarray) -> np.ndarray:
    """Host ``b`` as one right-hand-side column (per lane if batched)."""
    want = lane_shape(A.machine, _order(A))
    b = np.asarray(b, dtype=np.float64)
    if b.shape != want:
        raise ShapeError(f"b must have shape {want}, got {b.shape}")
    return b[..., None]


def _augmented(A: DistributedMatrix, rhs: np.ndarray) -> DistributedMatrix:
    """``[A | rhs]`` in a fresh aspect-matched embedding.

    Assembling it on the host is front-end set-up, the same untimed load
    the paper's timings exclude.
    """
    host = np.concatenate([to_host(A), rhs], axis=-1)
    return from_host(type(A), A.machine, host)


def _factor_solve(A, rhs, pivoting, tol):
    """Eliminate ``[A | rhs]`` once, back-substitute every RHS column."""
    n = _order(A)
    machine = A.machine
    T = _augmented(A, rhs)
    start = machine.snapshot()
    with machine.phase("gaussian"):
        elim = eliminate(T, pivoting=pivoting, tol=tol)
        xs = [back_substitute(elim, n + j, tol) for j in range(rhs.shape[-1])]
    return elim, xs, machine.elapsed_since(start)


def solve(
    A: DistributedMatrix,
    b: np.ndarray,
    pivoting: str = "partial",
    tol: float = 1e-12,
    keep_tableau: bool = False,
) -> GaussianResult:
    """Solve ``A x = b`` for a distributed square ``A`` and host ``b``.

    Builds the augmented ``[A | b]`` tableau in a fresh aspect-matched
    embedding, then forward elimination + back substitution.  On a batched
    machine ``b`` is ``(n_runs, n)`` and the result's ``x`` and ``pivots``
    carry one row / one ``(n_runs,)`` entry per lane.
    """
    elim, (x,), cost = _factor_solve(A, _rhs_column(A, b), pivoting, tol)
    return GaussianResult(
        x=x,
        pivots=elim.pivots,
        cost=cost,
        tableau=elim.tableau if keep_tableau else None,
    )


def solve_multi(
    A: DistributedMatrix,
    B: np.ndarray,
    pivoting: str = "partial",
    tol: float = 1e-12,
) -> GaussianResult:
    """Solve ``A X = B`` for ``k`` right-hand sides with one factorisation.

    Eliminates the blocked tableau ``[A | B]`` once (the RHS columns ride
    through the rank-1 updates for free) and back-substitutes each column.
    """
    n = _order(A)
    B = np.asarray(B, dtype=np.float64)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape[0] != n:
        raise ShapeError(f"B must have {n} rows, got {B.shape}")
    elim, xs, cost = _factor_solve(A, B, pivoting, tol)
    return GaussianResult(x=np.column_stack(xs), pivots=elim.pivots, cost=cost)


def invert(
    A: DistributedMatrix,
    pivoting: str = "partial",
    tol: float = 1e-12,
) -> GaussianResult:
    """The matrix inverse via ``solve_multi(A, I)``."""
    return solve_multi(A, np.eye(_order(A)), pivoting=pivoting, tol=tol)


def determinant(
    A: DistributedMatrix,
    tol: float = 1e-12,
) -> float:
    """The determinant: product of the pivots times the permutation sign.

    Returns 0.0 for (numerically) singular matrices.
    """
    _order(A)
    machine = A.machine
    T = type(A).from_numpy(machine, A.to_numpy())
    with machine.phase("gaussian"):
        try:
            elim = eliminate(T, pivoting="partial", tol=tol)
        except SingularMatrixError:
            return 0.0
    det = elim.permutation_sign()
    for v in elim.pivot_values:
        det *= v
    return float(det)


def gauss_jordan(
    A: DistributedMatrix,
    b: np.ndarray,
    tol: float = 1e-12,
) -> GaussianResult:
    """Solve ``A x = b`` by Gauss-Jordan elimination (no back substitution).

    Each step normalises the pivot row and eliminates the pivot column in
    *every* other row — roughly 1.5x the arithmetic of LU forward
    elimination, but the solution falls straight out of the final RHS
    column (handy when back substitution's n sequential host reads would
    dominate, i.e. small n on large p).  Partial pivoting with physical
    row swaps.
    """
    T = _augmented(A, _rhs_column(A, b))
    n = T.shape[0]
    machine = A.machine
    pivots: List[int] = []
    row_iota = None

    start = machine.snapshot()
    with machine.phase("gauss-jordan"):
        for k in range(n):
            with machine.phase("pivot-search"):
                col = T.extract(axis=1, index=k)
                if row_iota is None:
                    row_iota = iota(col.embedding)
                pval, prow = abs(col).argreduce("max", valid=row_iota >= k)
                if prow < 0 or abs(pval) <= tol:
                    raise SingularMatrixError(
                        f"no pivot above tolerance at step {k}"
                    )
            pivots.append(int(prow))
            if prow != k:
                with machine.phase("row-swap"):
                    T = _swap_rows(T, k, prow)
            with machine.phase("update"):
                T = jordan_pivot(T, k, k, row_iota)
        x_vec = T.extract(axis=1, index=n)
    x = x_vec.to_numpy()
    return GaussianResult(
        x=x, pivots=pivots, cost=machine.elapsed_since(start)
    )
