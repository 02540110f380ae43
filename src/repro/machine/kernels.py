"""Processor-inner kernels for the primitives' order-free local work.

Every :class:`~repro.machine.pvar.PVar` is stored processor-major,
``(p, *local)``.  A NumPy reduction over a short local (*slot*) axis of
such a block runs one inner loop per processor: on a ``(1024, 4)`` block
``max(axis=1)`` makes 1024 loops of length 4 and costs ~10x the same
reduction over a contiguous copy with the slot axis outermost, where each
step is one pass over all processors.  The kernels here work in that
processor-inner layout and hand back processor-major results.

Only *order-free* work moves: max, min, logical and/or, compare, select
and gathers, whose per-element result does not depend on the order the
slots are combined in, so every result equals the processor-major NumPy
call it replaces.  Two notes on "equals":

* A max/min is a left fold over the slots.  NumPy's processor-major
  reduction is the same fold up to its SIMD width (8 float64 slots on
  AVX-512, 4 on AVX2) and folds in vector lanes beyond it.  The lanes can
  only change *which zero* a max/min of a ``+0.0``/``-0.0`` tie returns;
  the fold here picks the same zero on every host.
* Sums and products are not order-free: NumPy's pairwise summation of a
  contiguous inner axis of 8 or more elements decides their rounding, so
  they keep the processor-major reduction (with the batched run axis
  moved inward, see :func:`slot_reduce`).

A slot axis of extent 1 is a view, not a reduction.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

import numpy as np

INT64_MAX = np.iinfo(np.int64).max

#: Combining ufuncs whose per-element reduction result is order-free.
ORDER_FREE = frozenset((np.maximum, np.minimum, np.logical_or, np.logical_and))
_LOGICAL = (np.logical_or, np.logical_and)


def slot_major(a: np.ndarray, axis: int) -> np.ndarray:
    """A contiguous copy of ``a`` with slot axis ``axis`` outermost."""
    order = (axis,) + tuple(range(axis)) + tuple(range(axis + 1, a.ndim))
    return np.ascontiguousarray(a.transpose(order))


def gather_slice(data: np.ndarray, pids: np.ndarray, axis: int, slot: int) -> np.ndarray:
    """``data[pids, slot]`` (``axis=1``) or ``data[pids, :, slot]`` (``axis=2``).

    Slice ``slot`` of processor ``pid``'s leading local axis is row
    ``pid * k + slot`` of the flat ``(p * k, ...)`` view, so an ``axis=1``
    slice is one gather of contiguous rows rather than ``p`` short strided
    copies.  An ``axis=2`` slice is a strided view: ``take`` copies it
    contiguous and then gathers, which beats fancy indexing's per-row loop.
    """
    if axis == 1:
        k = data.shape[1]
        rows = data.reshape((-1,) + data.shape[2:])
        return rows.take(pids * k + slot, axis=0)
    return data[:, :, slot].take(pids, axis=0)


def slot_reduce(
    ufunc: Callable[..., np.ndarray],
    data: np.ndarray,
    axis: int,
    run_axis: bool = False,
) -> np.ndarray:
    """``ufunc.reduce(data, axis)`` over slot axis ``axis`` (never axis 0).

    Order-free ufuncs reduce processor-inner.  Others (sum, product)
    keep NumPy's processor-major reduction; with a trailing run axis (``run_axis``, a
    batched machine) the axis the scalar path reduces as its contiguous
    last axis is moved innermost first, so every lane reproduces the
    scalar path's pairwise accumulation bit for bit.
    """
    if ufunc in ORDER_FREE:
        if ufunc in _LOGICAL:
            data = data.astype(bool, copy=False)
        if data.shape[axis] == 1:
            return np.squeeze(data, axis)
        return ufunc.reduce(slot_major(data, axis), axis=0)
    if run_axis and axis == data.ndim - 2:
        return ufunc.reduce(
            np.ascontiguousarray(np.moveaxis(data, axis, -1)), axis=-1
        )
    return ufunc.reduce(data, axis=axis)


def masked_arg_extreme(
    ufunc: Callable[..., np.ndarray],
    values: np.ndarray,
    mask: np.ndarray,
    gidx: np.ndarray,
    axis: int,
    ident: Any,
) -> Tuple[np.ndarray, np.ndarray]:
    """Arg-reduce the candidate slots (``mask``) over slot axis ``axis``.

    ``ufunc`` is ``np.maximum`` or ``np.minimum``; ``mask`` and ``gidx``
    (each slot's global index) broadcast against ``values``.  Returns,
    per processor, the extreme over the candidates and the smallest
    global index attaining it.  A processor with no candidate gets
    ``ident`` and ``INT64_MAX``.  Emptiness comes from the mask, never
    from the value, so a candidate equal to the identity (``-inf`` under
    max, ``iinfo.max`` under int64 min) keeps its index.  A NaN extreme
    has no index (``INT64_MAX``).
    """
    data = np.where(mask, values, ident)
    cand = np.where(mask, gidx, INT64_MAX)
    data, cand = slot_major(data, axis), slot_major(cand, axis)
    best = ufunc.reduce(data, axis=0)
    return best, np.where(data == best, cand, INT64_MAX).min(axis=0)


__all__ = [
    "INT64_MAX",
    "ORDER_FREE",
    "gather_slice",
    "masked_arg_extreme",
    "slot_major",
    "slot_reduce",
]
