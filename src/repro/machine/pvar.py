"""Processor variables: the SIMD register file of the simulated machine.

A :class:`PVar` models one variable that exists in the local memory of every
processor of the hypercube.  Physically it is a single NumPy array whose
axis 0 is the processor index — the whole machine's copies live side by side
so that one vectorised NumPy operation models one SIMD instruction executed
by all processors at once (the idiom recommended by the scientific-python
optimisation guides: keep the hot loop inside NumPy).

Every elementwise operation charges the machine ``t_a`` per *local* element:
all processors operate in lock step, so the machine-level time of a SIMD
instruction is the per-processor local workload, not the global one.  This
matches the CM's virtual-processor model, where a physical processor loops
over the virtual processors assigned to it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Tuple, Union

import numpy as np
from ..errors import ConfigError, ShapeError
from .kernels import slot_reduce

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .hypercube import Hypercube

Scalar = Union[int, float, bool, np.generic]


def _local_size(shape: Tuple[int, ...]) -> int:
    size = 1
    for extent in shape[1:]:
        size *= extent
    return max(size, 1)


def _machine_local_size(machine: "Hypercube", shape: Tuple[int, ...]) -> int:
    """Local element count of ``shape``, excluding any trailing run axis.

    On a batched machine (``machine.n_runs`` set) every PVar carries a
    trailing run axis; per-lane costs are the per-processor local workload
    of ONE lane, so the run extent never enters a charge volume.
    """
    if machine.n_runs is not None:
        shape = shape[:-1]
    return _local_size(shape)


class LaneValues:
    """Per-lane host immediates for a batched machine.

    Wraps an ``(n_runs,)`` array so that each simulation lane of a
    :class:`~repro.batch.machine.BatchHypercube` sees its own scalar
    immediate.  Arithmetic with a PVar broadcasts the wrapped vector
    against the trailing run axis, exactly as a plain Python scalar
    broadcasts on the scalar path — host immediates are free on both.
    """

    __slots__ = ("data",)

    def __init__(self, values: Any) -> None:
        self.data = np.asarray(values)
        if self.data.ndim != 1:
            raise ShapeError(
                f"LaneValues expects a 1-D per-lane vector, got shape "
                f"{self.data.shape}"
            )


class PVar:
    """A per-processor variable of uniform local shape.

    Parameters
    ----------
    machine:
        The owning :class:`~repro.machine.hypercube.Hypercube`; receives the
        cost charges.
    data:
        Array of shape ``(p, *local_shape)``.  Axis 0 must equal the
        machine's processor count.
    """

    __slots__ = ("machine", "data")

    def __init__(self, machine: "Hypercube", data: np.ndarray) -> None:
        data = np.asarray(data)
        if data.ndim < 1 or data.shape[0] != machine.p:
            raise ShapeError(
                f"PVar data must have shape (p={machine.p}, ...), got {data.shape}"
            )
        n_runs = machine.n_runs
        if n_runs is not None and (data.ndim < 2 or data.shape[-1] != n_runs):
            raise ShapeError(
                f"PVar data on a batched machine must have shape "
                f"(p={machine.p}, ..., n_runs={n_runs}), got {data.shape}"
            )
        self.machine = machine
        self.data = data
        faults = machine.faults
        if faults is not None:
            # Candidate target for silent stored-bit flips (no-ABFT runs;
            # the checksum registry takes over when a manager is attached).
            faults.register_memory(self)

    # -- construction helpers ------------------------------------------------

    @property
    def local_shape(self) -> Tuple[int, ...]:
        if self.machine.n_runs is not None:
            return self.data.shape[1:-1]
        return self.data.shape[1:]

    @property
    def local_size(self) -> int:
        return _machine_local_size(self.machine, self.data.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def copy(self) -> "PVar":
        """A charged local copy (one memory pass)."""
        self.machine.charge_local(self.local_size)
        return PVar(self.machine, self.data.copy())

    def assign(self, other: "PVarOrScalar") -> "PVar":
        """In-place store honouring the machine's activity context.

        Outside any :meth:`~repro.machine.hypercube.Hypercube.where` block
        this is a plain overwrite; inside, only active processors commit
        the store and the rest keep their old values — the Connection
        Machine's conditional-store semantics.  One local pass either way
        (SIMD executes everywhere).  Returns ``self`` for chaining.
        """
        src = self._coerce(other)
        src = np.broadcast_to(src, self.data.shape)
        mask = self.machine.active_mask
        self.machine.charge_local(self.local_size)
        if mask is None:
            self.data = np.array(src)
        else:
            m = mask
            if m.ndim > self.data.ndim:
                extra = m.shape[self.data.ndim:]
                if all(s == 1 for s in extra):
                    m = m.reshape(m.shape[: self.data.ndim])
                else:
                    raise ShapeError(
                        f"context mask shape {mask.shape} incompatible with "
                        f"target shape {self.data.shape}"
                    )
            if self.machine.n_runs is None:
                while m.ndim < self.data.ndim:
                    m = m[..., None]
            else:
                # Batched machines: every mask carries the trailing run
                # axis, so missing *local* axes are inserted in the middle
                # (right after the processor axis) to keep runs aligned.
                while m.ndim < self.data.ndim:
                    m = np.expand_dims(m, 1)
            try:
                m = np.broadcast_to(m, self.data.shape)
            except ValueError:
                raise ShapeError(
                    f"context mask shape {mask.shape} incompatible with "
                    f"target shape {self.data.shape}"
                ) from None
            self.data = np.where(m, src, self.data)
        return self

    def astype(self, dtype: Any) -> "PVar":
        self.machine.charge_local(self.local_size)
        return PVar(self.machine, self.data.astype(dtype))

    def reshape_local(self, *shape: int) -> "PVar":
        """Reinterpret the local block shape; free (no data motion)."""
        n_runs = self.machine.n_runs
        if n_runs is not None:
            return PVar(
                self.machine, self.data.reshape(self.machine.p, *shape, n_runs)
            )
        return PVar(self.machine, self.data.reshape(self.machine.p, *shape))

    # -- elementwise engine ----------------------------------------------------

    def _coerce(self, other: "PVarOrScalar") -> np.ndarray:
        if isinstance(other, PVar):
            if other.machine is not self.machine:
                raise ConfigError("cannot combine PVars from different machines")
            return other.data
        if isinstance(other, LaneValues):
            n_runs = self.machine.n_runs
            if n_runs is None or other.data.shape != (n_runs,):
                raise ShapeError(
                    f"LaneValues of shape {other.data.shape} requires a "
                    f"batched machine with n_runs={other.data.shape[0]}"
                )
            return other.data  # broadcasts against the trailing run axis
        if isinstance(other, np.ndarray):
            raise TypeError(
                "raw ndarrays cannot mix with PVars; wrap with machine.pvar()"
            )
        return np.asarray(other)

    # Padding slots (see repro.embeddings) routinely hold zeros that user
    # arithmetic divides by; results there are masked at every consumption
    # boundary, so the spurious divide/invalid warnings are silenced here.

    def _binary(self, other: "PVarOrScalar", fn: Callable[..., np.ndarray]) -> "PVar":
        rhs = self._coerce(other)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fn(self.data, rhs)
        return self._charged(out)

    def _rbinary(self, other: "PVarOrScalar", fn: Callable[..., np.ndarray]) -> "PVar":
        rhs = self._coerce(other)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fn(rhs, self.data)
        return self._charged(out)

    def _logical(self, other: "PVarOrScalar", fn: Callable[..., np.ndarray]) -> "PVar":
        # Logical ops raise no floating-point warnings: no errstate entry.
        return self._charged(fn(self.data, self._coerce(other)))

    def _charged(self, out: np.ndarray) -> "PVar":
        result = PVar(self.machine, out)
        self.machine.charge_flops(
            max(self.local_size, _machine_local_size(self.machine, out.shape))
        )
        return result

    def _unary(self, fn: Callable[..., np.ndarray]) -> "PVar":
        self.machine.charge_flops(self.local_size)
        with np.errstate(divide="ignore", invalid="ignore"):
            return PVar(self.machine, fn(self.data))

    # arithmetic
    def __add__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.add)

    def __radd__(self, other: "PVarOrScalar") -> "PVar":
        return self._rbinary(other, np.add)

    def __sub__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.subtract)

    def __rsub__(self, other: "PVarOrScalar") -> "PVar":
        return self._rbinary(other, np.subtract)

    def __mul__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.multiply)

    def __rmul__(self, other: "PVarOrScalar") -> "PVar":
        return self._rbinary(other, np.multiply)

    def __truediv__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.divide)

    def __rtruediv__(self, other: "PVarOrScalar") -> "PVar":
        return self._rbinary(other, np.divide)

    def __floordiv__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.floor_divide)

    def __mod__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.mod)

    def __pow__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.power)

    def __neg__(self) -> "PVar":
        return self._unary(np.negative)

    def __abs__(self) -> "PVar":
        return self._unary(np.abs)

    def abs(self) -> "PVar":
        return self.__abs__()

    def sqrt(self) -> "PVar":
        return self._unary(np.sqrt)

    def reciprocal(self) -> "PVar":
        self.machine.charge_flops(self.local_size)
        with np.errstate(divide="ignore", invalid="ignore"):
            return PVar(self.machine, 1.0 / self.data)

    # comparisons (return boolean PVars)
    def __lt__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.less)

    def __le__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.less_equal)

    def __gt__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.greater)

    def __ge__(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.greater_equal)

    def eq(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.equal)

    def ne(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.not_equal)

    # logical (boolean PVars)
    def __and__(self, other: "PVarOrScalar") -> "PVar":
        return self._logical(other, np.logical_and)

    def __or__(self, other: "PVarOrScalar") -> "PVar":
        return self._logical(other, np.logical_or)

    def __xor__(self, other: "PVarOrScalar") -> "PVar":
        return self._logical(other, np.logical_xor)

    def __invert__(self) -> "PVar":
        self.machine.charge_flops(self.local_size)
        return PVar(self.machine, np.logical_not(self.data))

    def minimum(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.minimum)

    def maximum(self, other: "PVarOrScalar") -> "PVar":
        return self._binary(other, np.maximum)

    def where(self, if_true: "PVarOrScalar", if_false: "PVarOrScalar") -> "PVar":
        """SIMD select: ``self ? if_true : if_false`` (self must be boolean)."""
        lhs = self._coerce(if_true)
        rhs = self._coerce(if_false)
        out = np.where(self.data, lhs, rhs)
        self.machine.charge_flops(_machine_local_size(self.machine, out.shape))
        return PVar(self.machine, out)

    # -- local (intra-processor) reductions -----------------------------------

    def _charge_local_reduce(self, axis: int) -> int:
        """Charge a reduction over local ``axis``; return its data axis."""
        if not self.local_shape:
            raise ShapeError("cannot locally reduce a scalar PVar")
        # A tree reduction over k local elements costs k-1 combining steps
        # executed serially by each (physical) processor.
        self.machine.charge_flops(max(self.local_size - self.local_size // self.local_shape[axis], 0))
        return axis + 1

    def _local_reduce(self, ufunc: Callable[..., np.ndarray], axis: int) -> "PVar":
        red = self._charge_local_reduce(axis)
        out = slot_reduce(ufunc, self.data, red, self.machine.n_runs is not None)
        return PVar(self.machine, out)

    def local_sum(self, axis: int = 0) -> "PVar":
        return self._local_reduce(np.add, axis)

    def local_prod(self, axis: int = 0) -> "PVar":
        return self._local_reduce(np.multiply, axis)

    def local_min(self, axis: int = 0) -> "PVar":
        return self._local_reduce(np.minimum, axis)

    def local_max(self, axis: int = 0) -> "PVar":
        return self._local_reduce(np.maximum, axis)

    def local_any(self, axis: int = 0) -> "PVar":
        return self._local_reduce(np.logical_or, axis)

    def local_all(self, axis: int = 0) -> "PVar":
        return self._local_reduce(np.logical_and, axis)

    def local_argmax(self, axis: int = 0) -> "PVar":
        red = self._charge_local_reduce(axis)
        return PVar(self.machine, np.argmax(self.data, axis=red))

    def local_argmin(self, axis: int = 0) -> "PVar":
        red = self._charge_local_reduce(axis)
        return PVar(self.machine, np.argmin(self.data, axis=red))

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PVar(p={self.machine.p}, local_shape={self.local_shape}, "
            f"dtype={self.dtype})"
        )


PVarOrScalar = Union[PVar, Scalar]
