"""Changing embeddings: vector remaps, matrix redistribution, transpose.

"The primitives may indicate a change from one embedding to another"
(abstract).  This module implements those changes:

* :func:`remap_vector` — move a vector between any two
  :class:`~.vector.VectorEmbedding`\\ s (vector order ↔ row order ↔ column
  order, residence changes, replication);
* :func:`redistribute_matrix` — move a matrix between two
  :class:`~.matrix.MatrixEmbedding`\\ s (grid reshape, layout change);
* :func:`transpose` — transpose a matrix, which on the cube is a *stable
  dimension permutation* (the row and column dimension sets swap roles).

Cost fidelity: the data motion between primary copies is charged by
running the e-cube :class:`~repro.machine.router.Router` over the exact
multiset of (source, destination, element-count) messages the change
induces, so congestion effects are captured; a replicated destination then
pays real broadcast rounds over the orthogonal subcube.  Each change is
reduced once to a :class:`~repro.machine.plans.RemapPlan` (pack, route,
unpack) and replayed from the machine's plan cache; a disabled cache
rebuilds the same plan on every call.  The functional
data movement itself is performed through a host-side image, which is
exact and keeps the simulator fast.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import EmbeddingError, ShapeError
from ..machine.hypercube import Hypercube
from ..machine.plans import RemapPlan
from ..machine.pvar import PVar
from ..machine.router import Router, RouteStats
from ..machine.hypercube import maybe_span
from .. import comm
from .gray import deposit_bits
from .matrix import MatrixEmbedding
from .vector import VectorEmbedding, _AlignedEmbedding


def _route_stats(
    machine: Hypercube, src_pid: np.ndarray, dst_pid: np.ndarray
) -> "RouteStats | None":
    """Uncharged :class:`RouteStats` of one element flowing src→dst per
    array entry, or ``None`` when no element changes processors.

    The message multiset is deduplicated to one message per (src, dst)
    pair.  ``Router.simulate`` ends in one ``charge_transfer(element_hops,
    rounds, time)`` call, so replaying the returned stats later (see
    :meth:`RemapPlan.charge`) is bit-identical to charging here.  An
    attached sanitizer audits the stats' e-cube conservation at build
    time, since the replay only checks that it charged what they record.
    """
    moving = src_pid != dst_pid
    if not np.any(moving):
        return None
    pair = src_pid[moving].astype(np.int64) * machine.p + dst_pid[moving]
    pairs, counts = np.unique(pair, return_counts=True)
    src, dst = pairs // machine.p, pairs % machine.p
    sizes = counts.astype(np.float64)
    stats = Router(machine).simulate(src, dst, sizes, charge=False)
    for audit in machine.hooks.audit_route:
        audit(machine, src, dst, sizes, stats, before=None, from_cache=False)
    return stats


def _charge_remap(machine: Hypercube, key, src, dst, owner_pids) -> None:
    """Charge one embedding change: pack, route, unpack.

    ``owner_pids()`` returns the ``(src_pid, dst_pid)`` owner maps of every
    element; the resulting :class:`RemapPlan` is memoized under ``key``
    (rebuilt on every call when the plan cache is disabled).
    """

    def build() -> RemapPlan:
        src_pid, dst_pid = owner_pids()
        return RemapPlan(
            src_local=src.local_size,
            dst_local=dst.local_size,
            route=_route_stats(machine, src_pid, dst_pid),
        )

    machine.plans.memo(key, build).charge(machine)


def _row_pid_parts(emb: MatrixEmbedding) -> np.ndarray:
    """Per-global-row contribution to the owner pid (length ``R``)."""
    gr, _ = emb.row_owner_table()
    return deposit_bits(emb.code(gr), emb.row_dims)


def _col_pid_parts(emb: MatrixEmbedding) -> np.ndarray:
    """Per-global-column contribution to the owner pid (length ``C``)."""
    gc, _ = emb.col_owner_table()
    return deposit_bits(emb.code(gc), emb.col_dims)


def remap_vector(
    pvar: PVar,
    src: VectorEmbedding,
    dst: VectorEmbedding,
) -> PVar:
    """Move a vector from embedding ``src`` to embedding ``dst``.

    Charges the primary-to-primary routing plus, when ``dst`` is
    replicated, a broadcast over its orthogonal subcube.  Also charges one
    local pack/unpack pass on each side.
    """
    if src.machine is not dst.machine:
        raise EmbeddingError(
            f"embeddings live on different machines: {src.signature()} vs "
            f"{dst.signature()}"
        )
    if src.L != dst.L:
        raise ShapeError(
            f"vector length mismatch: {src.L} ({src.signature()}) != "
            f"{dst.L} ({dst.signature()})"
        )
    machine = src.machine
    if src.compatible(dst):
        return pvar

    with maybe_span(
        machine, "remap_vector", "remap",
        src=type(src).__name__, dst=type(dst).__name__, L=src.L,
    ):
        host = src.gather(pvar)

        _charge_remap(
            machine,
            ("remap-vector", src.signature(), dst.signature()),
            src,
            dst,
            lambda: (src.owner_slot_table()[0], dst.owner_slot_table()[0]),
        )

        out = dst.scatter(host)
        if dst.replicated:
            if not isinstance(dst, _AlignedEmbedding):
                raise EmbeddingError(
                    f"replicated destination must be an aligned embedding, "
                    f"got {type(dst).__name__} {dst.signature()}"
                )
            # Primary copies live at across-coordinate 0 (grid Gray rank 0);
            # replicate them over the orthogonal subcube with a real
            # broadcast.
            out = comm.broadcast(
                machine, out, dims=dst.across_dims, root_rank=0
            )
        return out


def redistribute_matrix(
    pvar: PVar,
    src: MatrixEmbedding,
    dst: MatrixEmbedding,
) -> PVar:
    """Move a matrix between two embeddings of the same global shape."""
    if src.machine is not dst.machine:
        raise EmbeddingError(
            f"embeddings live on different machines: {src.signature()} vs "
            f"{dst.signature()}"
        )
    if (src.R, src.C) != (dst.R, dst.C):
        raise ShapeError(
            f"matrix shape mismatch: {src.R}x{src.C} ({src.signature()}) "
            f"!= {dst.R}x{dst.C} ({dst.signature()})"
        )
    machine = src.machine
    if src == dst:
        return pvar

    with maybe_span(
        machine, "redistribute", "remap", R=src.R, C=src.C,
    ):
        host = src.gather(pvar)

        # Owner pids separate over the axes (pid = row_part | col_part), so
        # the R x C owner maps are two outer ORs.
        _charge_remap(
            machine,
            ("redistribute", src.signature(), dst.signature()),
            src,
            dst,
            lambda: (
                _row_pid_parts(src)[:, None] | _col_pid_parts(src)[None, :],
                _row_pid_parts(dst)[:, None] | _col_pid_parts(dst)[None, :],
            ),
        )
        return dst.scatter(host)


def transpose(
    pvar: PVar,
    src: MatrixEmbedding,
    same_grid: bool = False,
) -> Tuple[PVar, MatrixEmbedding]:
    """Transpose an embedded matrix.

    Two destination embeddings are supported:

    * ``same_grid=False`` (default): the destination is
      :meth:`~.matrix.MatrixEmbedding.transposed` — the row and column
      cube-dimension sets *swap roles*.  Element ``(j, i)`` of the result
      then lives exactly where ``(i, j)`` already sits, so the transpose is
      almost free: a local block transpose, no communication.  This is the
      embedding-change flexibility the primitives are designed around.

    * ``same_grid=True``: the destination keeps the source's dimension
      assignment (``row_dims`` still carry the row axis), which is what a
      caller needs to combine ``A`` and ``A^T`` elementwise.  This is the
      classic *stable dimension permutation*: data crosses the cube and
      the router charges the real congestion.
    """
    machine = src.machine
    if same_grid:
        dst = MatrixEmbedding(
            machine,
            src.C,
            src.R,
            row_dims=src.row_dims,
            col_dims=src.col_dims,
            row_layout_kind=src._row_layout_kind,
            col_layout_kind=src._col_layout_kind,
            coding=src.coding,
        )
    else:
        dst = src.transposed()

    host = src.gather(pvar)
    # Swap only the matrix axes: a batched host image keeps its trailing
    # run axis in place.
    hostT = np.ascontiguousarray(np.swapaxes(host, 0, 1))

    with maybe_span(
        machine, "transpose", "remap", R=src.R, C=src.C, same_grid=same_grid,
    ):
        if not same_grid:
            # Relabelling transpose: ``transposed()`` swaps the dimension
            # sets and layouts, so ``dst.owner(j, i) == src.owner(i, j)``
            # identically — the message multiset is empty and the router
            # would charge nothing.  Skip the R x C owner computation.
            machine.charge_local(src.local_size)
            machine.charge_local(dst.local_size)
            return dst.scatter(hostT), dst

        # Element (i, j) moves to where (j, i) of the destination lives.
        _charge_remap(
            machine,
            ("transpose-samegrid", src.signature()),
            src,
            dst,
            lambda: (
                _row_pid_parts(src)[:, None] | _col_pid_parts(src)[None, :],
                _col_pid_parts(dst)[:, None] | _row_pid_parts(dst)[None, :],
            ),
        )
        return dst.scatter(hostT), dst
