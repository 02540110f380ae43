"""Per-lane variants of the slice primitives for batched execution.

The solver texts in :mod:`repro.algorithms` run unchanged on a batched
machine; where lanes pivot on different rows/columns their lane-aware
steps (:mod:`repro.algorithms.lanes`) call these helpers, since the
uniform ``extract`` / ``insert`` primitives no longer apply: lane ``k``
needs slice ``index[k]``.  These helpers perform all lanes' slice
operations in one stacked pass while charging the *exact* cost sequence
the scalar primitive charges per lane (lane-masked through the
active-lanes context), so batched lanes stay bit-identical to scalar
runs.

Charge fidelity: :func:`repro.core.primitives.extract` charges one local
pass over the slice extent plus one full-share communication round per
orthogonal grid dimension (its only path, with the plan cache on or off —
``REPRO_PLAN_CACHE=0`` just rebuilds the plans every call);
:func:`~repro.core.primitives.insert` charges one local pass;
:meth:`~repro.machine.hypercube.Hypercube.read_scalar` charges one
single-element bus transfer.  Each helper below replays exactly that.

Inactive lanes: indices are clamped to 0 so the stacked computation stays
in bounds; their data is either never written (:func:`lane_insert` masks
writes by the active mask) or restored by :func:`merge_lanes`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..comm.collectives import subcube_base
from ..core.arrays import DistributedMatrix, DistributedVector
from ..core.primitives import _aligned_embedding
from ..errors import ConfigError, ShapeError
from ..machine.pvar import PVar


def _lane_indices(machine, index, extent: int, act: Optional[np.ndarray]):
    """Validate per-lane (or shared) indices; clamp inactive lanes to 0."""
    n_runs = machine.n_runs
    if n_runs is None:
        raise ConfigError("lanewise primitives require a batched machine")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim == 0:
        idx = np.full(n_runs, idx)  # the same slice in every lane
    if idx.shape != (n_runs,):
        raise ShapeError(
            f"per-lane index must have shape ({n_runs},), got {idx.shape}"
        )
    act = np.ones(n_runs, bool) if act is None else np.asarray(act, bool)
    if act.shape != (n_runs,):
        raise ShapeError(
            f"lane mask must have shape ({n_runs},), got {act.shape}"
        )
    live = idx[act]
    if live.size and (live.min() < 0 or live.max() >= extent):
        raise IndexError(
            f"per-lane index out of range [0, {extent}) in an active lane"
        )
    return np.where(act, idx, 0), act


def _lane_slices(M: DistributedMatrix, axis: int, index, act):
    """Per-lane (grid coordinate, local slot) of the slices, and the mask."""
    if axis not in (0, 1):
        raise ConfigError(f"axis must be 0 or 1, got {axis}")
    emb = M.embedding
    extent = emb.R if axis == 0 else emb.C
    idx, act = _lane_indices(emb.machine, index, extent, act)
    if axis == 0:
        owners, slots = emb.row_owner_table()
    else:
        owners, slots = emb.col_owner_table()
    return owners[idx], slots[idx], act


def lane_extract(
    M: DistributedMatrix,
    axis: int,
    index,
    act: Optional[np.ndarray] = None,
) -> DistributedVector:
    """Extract slice ``index[k]`` along ``axis`` in lane ``k``.

    Returns the replicated aligned vector, exactly as the scalar
    ``extract`` with ``replicate=True`` does; charges (one local slice
    pass + one share round per orthogonal dimension) land only on the
    lanes where ``act``.
    """
    owners, slots, act = _lane_slices(M, axis, index, act)
    emb = M.embedding
    machine = emb.machine
    data = M.pvar.data
    n_runs = machine.n_runs
    # Per-lane slot selection: lane k picks local slot slots[k] on the
    # slice's local axis.
    ax = axis + 1
    shape = list(data.shape)
    shape[ax] = 1
    sel = np.broadcast_to(slots[None, None, None, :], shape)
    local = np.take_along_axis(data, sel, axis=ax).squeeze(ax)

    vec_emb = _aligned_embedding(emb, axis, None)
    across = vec_emb.across_dims
    if across:
        # Per-lane broadcast-replay: lane k's root band sits at the pid
        # whose ``across`` bits carry the node code of its owning grid
        # coordinate (cf. ``_root_pid_map``); gather each lane from its
        # own roots.
        codes = np.asarray(emb.code(owners), dtype=np.int64)
        base = subcube_base(machine, across)
        spread = np.zeros(n_runs, dtype=np.int64)
        for j, d in enumerate(across):
            spread |= ((codes >> j) & 1) << d
        root_map = base[:, None] | spread[None, :]  # (p, n_runs)
        sel = np.broadcast_to(root_map[:, None, :], local.shape)
        out = np.take_along_axis(local, sel, axis=0)
    else:
        out = np.ascontiguousarray(local)

    with machine.lanes(act):
        machine.charge_local(local.shape[1])
        share = max(local.shape[1], 1)
        for d in across:
            machine.charge_comm_round(share, dim=d)
    return M._vector_cls(PVar(machine, out), vec_emb)


def lane_insert(
    M: DistributedMatrix,
    axis: int,
    index,
    vec: DistributedVector,
    act: Optional[np.ndarray] = None,
) -> DistributedMatrix:
    """Write ``vec`` into slice ``index[k]`` along ``axis`` in lane ``k``.

    ``vec`` must be replicated and aligned with the slice (the form
    :func:`lane_extract` returns).  Lanes outside ``act`` keep their
    matrix data untouched and charge nothing.
    """
    owners, slots, act = _lane_slices(M, axis, index, act)
    emb = M.embedding
    machine = emb.machine
    if not vec.embedding.compatible(_aligned_embedding(emb, axis, None)):
        raise ConfigError(
            "lane_insert requires a replicated aligned vector (as returned "
            "by lane_extract); remap before inserting"
        )
    grid_r, grid_c = emb.grid_coords()
    grid = grid_r if axis == 0 else grid_c
    band = grid[:, None] == owners[None, :]  # (p, n_runs)
    data = M.pvar.data
    ax = axis + 1  # the slice's local axis
    shape = [1, 1, 1, machine.n_runs]
    shape[ax] = data.shape[ax]
    slotm = np.arange(data.shape[ax])[:, None] == slots[None, :]
    slotm = slotm.reshape(shape)
    writemask = band[:, None, None, :] & slotm & act
    out = np.where(writemask, np.expand_dims(vec.pvar.data, ax), data)

    with machine.lanes(act):
        machine.charge_local(vec.pvar.local_size)
    return type(M)(PVar(machine, out), emb)


def lane_get_global(
    vec: DistributedVector,
    index,
    act: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fetch element ``index[k]`` of lane ``k`` to the host.

    One charged bus read (as the scalar ``get_global``), lane-masked.
    Returns an ``(n_runs,)`` array; inactive lanes hold element 0.
    """
    machine = vec.machine
    idx, act = _lane_indices(machine, index, len(vec), act)
    pids, slots = vec.embedding.owner_slot(idx)
    lanes = np.arange(machine.n_runs)
    values = vec.pvar.data[pids, slots, lanes].copy()
    time = machine._round_cost.get(1)
    if time is None:
        time = machine._round_cost[1] = machine.cost_model.comm_round(1)
    with machine.lanes(act):  # one single-element bus read, as read_scalar
        machine.counters.charge_transfer(1, 1, time)
    return values


def merge_lanes(new, old, act: np.ndarray):
    """Keep ``new``'s data in the lanes where ``act``, ``old``'s elsewhere.

    Host-side lane bookkeeping, free of charge: the scalar path's inactive
    lanes simply would not have executed the producing operation.
    """
    machine = new.machine
    if type(new) is not type(old) or new.pvar.data.shape != old.pvar.data.shape:
        raise ConfigError("merge_lanes requires same-shaped arrays")
    mask = np.asarray(act, dtype=bool).reshape(
        (1,) * (new.pvar.data.ndim - 1) + (machine.n_runs,)
    )
    data = np.where(mask, new.pvar.data, old.pvar.data)
    return type(new)(PVar(machine, data), new.embedding)
