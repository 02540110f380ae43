"""Processor-inner kernels against their processor-major references.

Every kernel in :mod:`repro.machine.kernels` replaces a processor-major
NumPy formulation.  Hypothesis draws machines of 1 to 1024 processors,
local extents 1 to 9, float64 / int64 / bool blocks with and without a
trailing run axis (of 1 to 21 lanes), and values from a small pool
holding +-0.0, +-inf and repeats (so ties are common).  Results must be ``np.array_equal`` to the
processor-major reference with equal dtype and, for floats, equal sign
bits.

Max and min are left folds over the slots.  NumPy's processor-major
reduction is the same fold only up to its SIMD width, past which the
vector lanes may pick the other zero of a ``+0.0``/``-0.0`` tie, so sign
bits are compared against an explicit processor-major left fold.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import Session
from repro.algorithms.naive import NaiveMatrix, NaiveVector
from repro.batch import BatchSession
from repro.core import DistributedMatrix, DistributedVector, primitives
from repro.machine import CostModel, Hypercube, PVar
from repro.machine.kernels import (
    INT64_MAX,
    gather_slice,
    masked_arg_extreme,
    slot_reduce,
)

FLOATS = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]
INTS = [0, 1, -1, 7, np.iinfo(np.int64).max, np.iinfo(np.int64).min]


@st.composite
def blocks(draw, ndim=None, dtypes=("f", "i", "b")):
    """A ``(p, *local[, runs])`` block; returns ``(data, batched)``.

    Blocks with a long run axis keep to 64 processors.
    """
    batched = draw(st.booleans())
    runs = draw(st.sampled_from([1, 2, 3, 16, 21]))
    p_max = 64 if batched and runs >= 16 else 1024
    p = draw(st.integers(min_value=1, max_value=p_max))
    if ndim is None:
        ndim = draw(st.integers(min_value=1, max_value=2))
    local = tuple(
        draw(st.integers(min_value=1, max_value=9)) for _ in range(ndim)
    )
    shape = (p,) + local + ((runs,) if batched else ())
    kind = draw(st.sampled_from(dtypes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "f":
        data = rng.choice(np.array(FLOATS), size=shape)
    elif kind == "i":
        data = rng.choice(np.array(INTS, dtype=np.int64), size=shape)
    else:
        data = rng.random(shape) < 0.5
    return data, batched


def assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    if got.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want))


def left_fold(ufunc, data, axis):
    """Processor-major sequential fold over ``axis``."""
    slices = [np.take(data, s, axis=axis) for s in range(data.shape[axis])]
    return functools.reduce(ufunc, slices)


@given(blocks(), st.sampled_from([np.maximum, np.minimum]), st.data())
def test_slot_max_min_match_processor_major(case, ufunc, data):
    block, batched = case
    axis = data.draw(st.integers(1, block.ndim - 1 - batched))
    got = slot_reduce(ufunc, block, axis, batched)
    assert np.array_equal(got, ufunc.reduce(block, axis=axis))
    assert_same(got, left_fold(ufunc, block, axis))


@given(blocks(), st.sampled_from([np.logical_or, np.logical_and]), st.data())
def test_slot_any_all_match_processor_major(case, ufunc, data):
    block, batched = case
    axis = data.draw(st.integers(1, block.ndim - 1 - batched))
    assert_same(
        slot_reduce(ufunc, block, axis, batched),
        ufunc.reduce(block, axis=axis),
    )


def test_extent_one_is_a_view():
    block = np.arange(12.0).reshape(4, 1, 3)
    out = slot_reduce(np.maximum, block, 1)
    assert np.shares_memory(out, block)
    assert_same(out, block.max(axis=1))


def reference_arg_extreme(ufunc, values, mask, gidx, axis, ident):
    """The processor-major masked arg-reduce, emptiness from the mask."""
    data = np.where(mask, values, ident)
    best = ufunc.reduce(data, axis=axis)
    cand = np.where(mask, gidx, INT64_MAX)
    hit = data == np.expand_dims(best, axis)
    return left_fold(ufunc, data, axis), np.where(hit, cand, INT64_MAX).min(
        axis=axis
    )


@given(blocks(dtypes=("f", "i")), st.sampled_from(["max", "min"]), st.data())
def test_masked_arg_extreme_matches_processor_major(case, mode, data):
    block, batched = case
    axis = data.draw(st.integers(1, block.ndim - 1 - batched))
    ufunc = np.maximum if mode == "max" else np.minimum
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(block.shape) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    gidx = rng.permutation(block.size).reshape(block.shape).astype(np.int64)
    if block.dtype.kind == "f":
        ident = -np.inf if mode == "max" else np.inf
    else:
        info = np.iinfo(np.int64)
        ident = info.min if mode == "max" else info.max
    got = masked_arg_extreme(ufunc, block, mask, gidx, axis, ident)
    want = reference_arg_extreme(ufunc, block, mask, gidx, axis, ident)
    assert_same(got[0], want[0])
    assert_same(got[1], want[1])


@given(blocks(ndim=2), st.data())
def test_gather_slice_matches_fancy_indexing(case, data):
    block, _ = case
    p = block.shape[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pids = rng.integers(0, p, size=data.draw(st.integers(1, p)))
    axis = data.draw(st.sampled_from([1, 2]))
    slot = data.draw(st.integers(0, block.shape[axis] - 1))
    want = block[pids, slot] if axis == 1 else block[pids, :, slot]
    assert_same(gather_slice(block, pids, axis, slot), want)


def test_eight_by_eight_sum_stays_processor_major():
    """Sums keep NumPy's pairwise order: an 8x8-block local sum (the
    256x256 matvec on 1024 processors) is bit-identical to the
    processor-major ``sum``, which a processor-inner fold would not be."""
    rng = np.random.default_rng(7)
    block = rng.standard_normal((1024, 8, 8)) * 10.0 ** rng.integers(
        -8, 9, size=(1024, 8, 8)
    )
    for axis in (1, 2):
        want = block.sum(axis=axis)
        assert slot_reduce(np.add, block, axis).tobytes() == want.tobytes()
    m = Hypercube(10, CostModel.unit())
    pv = m.pvar(block)
    assert pv.local_sum(1).data.tobytes() == block.sum(axis=2).tobytes()
    # The guard has teeth: a left fold over 8 slots rounds differently.
    assert left_fold(np.add, block, 2).tobytes() != block.sum(axis=2).tobytes()


@given(
    st.integers(0, 10),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    st.one_of(st.none(), st.integers(1, 3)),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
def test_pvar_local_reductions_match_numpy(n_dims, local, runs, axis, seed):
    if runs is None:
        m = Hypercube(n_dims, CostModel.unit())
    else:
        m = BatchSession(n_dims, runs).machine
    shape = (m.p,) + local + (() if runs is None else (runs,))
    block = np.random.default_rng(seed).choice(np.array(FLOATS), size=shape)
    pv = PVar(m, block)
    red = axis + 1
    assert_same(pv.local_max(axis).data, left_fold(np.maximum, block, red))
    assert_same(pv.local_min(axis).data, left_fold(np.minimum, block, red))
    assert_same(pv.local_any(axis).data, np.any(block, axis=red))
    assert_same(pv.local_all(axis).data, np.all(block, axis=red))
    assert_same(pv.local_argmax(axis).data, np.argmax(block, axis=red))
    assert_same(pv.local_argmin(axis).data, np.argmin(block, axis=red))


def test_logical_ops_unchanged():
    m = Hypercube(2, CostModel.unit())
    a = m.pvar(np.array([True, False, True, False]))
    b = m.pvar(np.array([True, True, False, False]))
    assert_same((a & b).data, np.array([True, False, False, False]))
    assert_same((a | b).data, np.array([True, True, True, False]))
    assert_same((a ^ b).data, np.array([False, True, True, False]))
    assert_same((~a).data, np.array([False, True, False, True]))
    # One local pass per op, as for every elementwise op.
    assert m.snapshot().time == 4.0 and m.snapshot().flops == 4.0 * m.p


# -- the arg-reduce sentinel: a valid extreme equal to the identity ---------


@pytest.mark.parametrize("n_dims", [0, 2, 4])
@pytest.mark.parametrize(
    "values, mode",
    [
        ([-np.inf] * 4, "max"),
        ([np.inf] * 4, "min"),
        ([np.iinfo(np.int64).max] * 4, "min"),
        ([np.iinfo(np.int64).min] * 4, "max"),
        ([1.0, -np.inf, -np.inf, 2.0], "min"),
    ],
)
@pytest.mark.parametrize("cls", [DistributedVector, NaiveVector])
def test_vector_argreduce_keeps_identity_valued_extreme(n_dims, values, mode, cls):
    m = Hypercube(n_dims, CostModel.unit())
    host = np.array(values)
    v = cls.from_numpy(m, host)
    val, idx = v.argreduce(mode)
    want = int(np.argmax(host) if mode == "max" else np.argmin(host))
    assert idx == want
    assert val == host[want]


@pytest.mark.parametrize("cls", [DistributedVector, NaiveVector])
def test_vector_argreduce_masked_identity_is_not_a_candidate(cls):
    m = Hypercube(2, CostModel.unit())
    v = cls.from_numpy(m, np.array([-np.inf, -np.inf, 3.0, -np.inf, -np.inf]))
    valid = cls.from_numpy(m, np.array([False, True, False, True, False]))
    assert v.argreduce("max", valid=valid) == (-np.inf, 1)
    none = cls.from_numpy(m, np.zeros(5, dtype=bool))
    assert v.argreduce("max", valid=none)[1] == -1


def test_batched_argreduce_keeps_identity_valued_extreme():
    bs = BatchSession(2, 3)
    host = np.array([[-np.inf] * 6, [1.0, -np.inf, 5.0, 5.0, 0.0, 0.0], [-np.inf] * 6])
    val, idx = bs.vector(host).argreduce("max")
    assert list(idx) == [0, 2, 0]
    assert list(val) == [-np.inf, 5.0, -np.inf]


@pytest.mark.parametrize("cls", [DistributedMatrix, NaiveMatrix])
@pytest.mark.parametrize("axis", [0, 1])
def test_reduce_loc_keeps_identity_valued_extreme(cls, axis):
    m = Hypercube(4, CostModel.unit())
    host = np.full((6, 5), -np.inf)
    host[2, 3] = 1.0
    vals, idx = cls.from_numpy(m, host).argreduce(axis, "max")
    assert np.array_equal(idx.to_numpy(), np.argmax(host, axis=axis))
    assert np.array_equal(vals.to_numpy(), np.max(host, axis=axis))


def test_reduce_loc_charges_unchanged_by_candidates():
    """Emptiness from the mask changes no charge: the same program on
    identity-valued and ordinary data costs the same."""
    costs = []
    for fill in (-np.inf, 1.0):
        s = Session(4)
        M = s.matrix(np.full((7, 9), fill))
        before = s.snapshot()
        M.argreduce(1, "max")
        M.extract(axis=0, index=2).argreduce("max")
        costs.append(s.snapshot() - before)
    assert costs[0] == costs[1]


def test_insert_band_store_writes_the_slice():
    s = Session(4)
    host = np.arange(63.0).reshape(7, 9)
    M = s.matrix(host)
    for axis, index in ((0, 3), (1, 8), (0, 0)):
        vec = M.extract(axis=axis, index=(index + 1) % (7 if axis == 0 else 9))
        out = primitives.insert(
            M.pvar, M.embedding, axis, index, vec.pvar, vec.embedding
        )
        want = host.copy()
        if axis == 0:
            want[index] = vec.to_numpy()
        else:
            want[:, index] = vec.to_numpy()
        assert np.array_equal(M.embedding.gather(out), want)
