"""Lane-aware steps for the solver texts that also run batched.

Gaussian elimination and the simplex method are written once.  On an
ordinary machine (``machine.n_runs is None``) each helper is the plain
scalar step.  On a batched machine (:mod:`repro.batch`) the host values
the text branches on (pivot indices and values, termination tests) are
``(n_runs,)`` arrays, and the steps where lanes diverge go through the
lane-masked primitives of :mod:`repro.batch.lanewise`, imported only on
that path: a scalar run never loads :mod:`repro.batch`.  Batched host
data carries the run axis first, as :class:`repro.batch.BatchSession`
takes it.  ``act`` is the mask of lanes that execute a step.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..embeddings.matrix import MatrixEmbedding
from ..machine.pvar import LaneValues


def lane_shape(machine, *shape: int) -> tuple:
    """Host shape of per-run data: ``shape``, run axis first when batched."""
    return shape if machine.n_runs is None else (machine.n_runs, *shape)


def immediate(machine, value: Any) -> Any:
    """A host immediate for PVar arithmetic: one value per lane if batched."""
    return value if machine.n_runs is None else LaneValues(value)


def any_lane(cond: Any) -> bool:
    """A host truth test that holds if it holds in some lane."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def host_value(machine, value: Any, kind: type = float, act=None) -> Any:
    """``kind(value)``, or an ``(n_runs,)`` array, -1 outside ``act``."""
    if machine.n_runs is None:
        return kind(value)
    if np.ndim(value) == 0:
        value = np.full(machine.n_runs, value)
    value = np.asarray(value, dtype=kind)
    return value.copy() if act is None else np.where(act, value, -1)


def set_at(machine, host: Any, index: Any, value: Any, act=None) -> None:
    """``host[index] = value``; per lane in ``act`` when batched."""
    if machine.n_runs is None:
        host[index] = value
        return
    lanes = np.flatnonzero(act)
    host[lanes, index[lanes]] = value[lanes]


def extract_at(M, axis: int, index: Any, act=None):
    """``M.extract(axis, index)``, slice ``index[k]`` in lane ``k``."""
    if M.machine.n_runs is None:
        return M.extract(axis=axis, index=int(index))
    from ..batch.lanewise import lane_extract

    return lane_extract(M, axis, index, act=act)


def insert_at(M, axis: int, index: Any, vec, act=None):
    """``M.insert(axis, index, vec)``, slice ``index[k]`` in lane ``k``."""
    if M.machine.n_runs is None:
        return M.insert(axis=axis, index=int(index), vector=vec)
    from ..batch.lanewise import lane_insert

    return lane_insert(M, axis, index, vec, act=act)


def get_at(vec, index: Any, act=None) -> Any:
    """``vec.get_global(index)``; lanes outside ``act`` read 1.0 (divisor)."""
    if vec.machine.n_runs is None:
        return vec.get_global(int(index))
    from ..batch.lanewise import lane_get_global

    values = lane_get_global(vec, index, act=act)
    return values if act is None else np.where(act, values, 1.0)


def merge(new, old, act=None):
    """``new``, except that lanes outside ``act`` keep ``old``."""
    if act is None:
        return new
    from ..batch.lanewise import merge_lanes

    return merge_lanes(new, old, act)


def to_host(M) -> np.ndarray:
    """Gather ``M`` to the host, run axis first when batched."""
    host = M.to_numpy()
    return host if M.machine.n_runs is None else np.moveaxis(host, -1, 0)


def from_host(cls, machine, host: np.ndarray):
    """Embed host data (run axis first when batched) as a ``cls`` matrix."""
    if machine.n_runs is None:
        return cls.from_numpy(machine, host)
    host = np.ascontiguousarray(np.moveaxis(host, 0, -1))
    emb = MatrixEmbedding.default(machine, host.shape[0], host.shape[1])
    return cls(emb.scatter(host), emb)


class LaneStatus:
    """Per-lane termination of a solver loop.

    ``active`` masks the lanes still iterating (``None`` on a scalar
    machine); a lane that never stops reports the initial ``status`` and
    ``iterations``.
    """

    def __init__(self, machine, status: str, iterations: int) -> None:
        n_runs = machine.n_runs
        self.active, self.status, self.iterations = None, status, iterations
        if n_runs is not None:
            self.active = np.ones(n_runs, dtype=bool)
            self.status = np.full(n_runs, status, dtype=object)
            self.iterations = np.full(n_runs, iterations, dtype=np.int64)

    def stop(self, cond: Any, status: str, it: int) -> bool:
        """Retire the lanes where ``cond`` holds; True once none is left."""
        if self.active is None:
            if cond:
                self.status, self.iterations = status, it
            return bool(cond)
        done = self.active & cond
        self.status[done] = status
        self.iterations[done] = it
        self.active = self.active & ~done
        return not self.active.any()
