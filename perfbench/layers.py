"""Per-layer tracing from outside the program: timing wrappers on entry points.

The benchmark never edits ``src/``.  For a traced run it replaces every
public function and method of each layer's modules with a wrapper that
records a span ``(entry, span id, parent span id, start, end)`` into the
current job's span list.  A layer's *self time* is the duration of its
spans minus the part covered by their child spans, so the layers of one
job add up to the job's wall time exactly; the job's own root span and
anything called from it without a wrapper (algorithm text, NumPy called
directly) land in ``algorithms``.

An entry point is wrapped at every place that binds it: the attribute of
its defining module or class, every other ``repro`` module attribute or
class attribute holding the same function (``from .x import f`` makes a
second binding), and every closure cell holding it (the ABFT array
classes capture the methods they guard).  :func:`install` returns a
:class:`Tracer` whose ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

# The layers are the program's packages.  Modules imported before the
# wrappers go in, so a layer idle on a workload reads zero rather than
# being absent.
LAYERS = (
    "machine", "core", "comm", "embeddings", "sparse",
    "faults", "abft", "check", "batch", "algorithms",
)
MODULES = (
    "repro.machine.hypercube", "repro.machine.counters", "repro.machine.router",
    "repro.machine.plans", "repro.machine.pvar", "repro.machine.cost_model",
    "repro.machine.dirty",
    "repro.core.primitives", "repro.core.arrays", "repro.core.session",
    "repro.comm.collectives", "repro.comm.segmented", "repro.comm.ops",
    "repro.embeddings.gray", "repro.embeddings.layout", "repro.embeddings.matrix",
    "repro.embeddings.vector", "repro.embeddings.remap",
    "repro.sparse.embedding", "repro.sparse.matrix", "repro.sparse.primitives",
    "repro.sparse.semiring",
    "repro.faults.plan", "repro.faults.injector", "repro.faults.checkpoint",
    "repro.faults.strategies", "repro.faults.expansion", "repro.faults.recovery",
    "repro.abft.panels", "repro.abft.manager", "repro.abft.arrays",
    "repro.check.sanitizer",
    "repro.batch.counters", "repro.batch.machine", "repro.batch.lanewise",
    "repro.batch.session", "repro.batch.algorithms", "repro.batch.sweep",
    "repro.algorithms.gaussian", "repro.algorithms.simplex",
    "repro.algorithms.matvec", "repro.algorithms.graph",
)
# Degrade and promote live on Session but are the fault layer's recovery.
LAYER_OVERRIDES = {
    "repro.core.session.Session.degrade": "faults",
    "repro.core.session.Session.promote": "faults",
    "repro.core.session.Session.promotion_ready": "faults",
}
# Operators are entry points too (PVar arithmetic is the machine's SIMD
# step); equality and hashing are not, since they key dictionaries.
OPERATORS = frozenset(
    "__%s__" % op
    for op in (
        "add radd sub rsub mul rmul truediv rtruediv floordiv mod pow neg "
        "abs lt le gt ge and or xor invert matmul"
    ).split()
)


@dataclass
class Entry:
    name: str  # module.qualname
    layer: int


def _entries_of(module: types.ModuleType):
    """``(owner, attribute, raw, function, qualified name)`` per entry point."""
    modname = module.__name__
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if isinstance(obj, types.FunctionType) and obj.__module__ == modname:
            yield module, name, obj, obj, f"{modname}.{name}"
        elif isinstance(obj, type) and obj.__module__ == modname:
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                fn = raw
                if isinstance(raw, (staticmethod, classmethod)):
                    fn = raw.__func__
                if isinstance(fn, types.FunctionType):
                    yield obj, attr, raw, fn, f"{modname}.{obj.__name__}.{attr}"


class Tracer:
    """Span recorder plus the bindings it replaced."""

    def __init__(self) -> None:
        # Entry 0 is each job's root span.
        self.entries: List[Entry] = [Entry("job", LAYERS.index("algorithms"))]
        self.stack: List[int] = [-1]
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.builds: List[Tuple[float, float]] = []
        self.next_id = 0
        self.plan_hits = 0
        self._pending: Dict[Any, float] = {}
        self._hook_table = self._hooks()
        self._restore: List[Callable[[], None]] = []

    # -- jobs ------------------------------------------------------------

    def begin(self) -> None:
        """Start a job: a fresh span list under a root span."""
        self.spans = []
        self.builds = []
        self.plan_hits = 0
        self._pending = {}
        self.next_id = 1
        self.stack = [-1, 0]
        self._t0 = time.perf_counter()

    def end(self) -> "JobTrace":
        t1 = time.perf_counter()
        self.stack = [-1]
        self.spans.append((0, 0, -1, self._t0, t1))
        return self._fold()

    def _fold(self) -> "JobTrace":
        a = np.asarray(self.spans, dtype=np.float64)
        entry = a[:, 0].astype(np.int64)
        idx = a[:, 1].astype(np.int64)
        parent = a[:, 2].astype(np.int64)
        dur = a[:, 4] - a[:, 3]
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=self.next_id
        )
        own = dur - child[idx]
        layer_of = np.array([e.layer for e in self.entries], dtype=np.int64)
        n = len(self.entries)
        return JobTrace(
            wall_s=float(dur[entry == 0].sum()),
            self_s=np.bincount(layer_of[entry], weights=own, minlength=len(LAYERS)),
            calls=np.bincount(entry, minlength=n),
            inclusive_s=np.bincount(entry, weights=dur, minlength=n),
            plan_build_s=_union_length(self.builds),
            plan_hits=self.plan_hits,
            spans=len(self.spans),
        )

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        eid = len(self.entries)
        self.entries.append(Entry(name, LAYERS.index(layer)))
        hook = self._hook_table.get(name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec.stack
            idx = rec.next_id
            rec.next_id = idx + 1
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec.spans.append((eid, idx, parent, t0, t1))
            if hook is not None:
                hook(args, result, t0, t1)
            return result

        return wrapper

    # A plan *build* is the interval from a lookup miss to the store of
    # the same key.  Builds nest (a remap plan routes its messages), so
    # the union of the intervals is what the job spent building plans.
    def _hooks(self) -> Dict[str, Callable]:
        from repro.machine.plans import MISSING

        def lookup(args, value, t0, t1):
            if value is MISSING:
                self._pending[args[1]] = t0
            else:
                self.plan_hits += 1

        def store(args, value, t0, t1):
            start = self._pending.pop(args[1], None)
            if start is not None:
                self.builds.append((start, t1))

        return {
            "repro.machine.plans.PlanCache.lookup": lookup,
            "repro.machine.plans.PlanCache.store": store,
        }

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()


@dataclass
class JobTrace:
    """One traced job, folded: per-layer self time and per-entry counts."""

    wall_s: float
    self_s: np.ndarray  # by layer
    calls: np.ndarray  # by entry
    inclusive_s: np.ndarray  # by entry
    plan_build_s: float
    plan_hits: int
    spans: int


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _layer_of(modname: str, qualname: str) -> str:
    return LAYER_OVERRIDES.get(qualname, modname.split(".")[1])


def install() -> Tracer:
    """Import every layer module and wrap its entry points everywhere."""
    import importlib

    for modname in MODULES:
        importlib.import_module(modname)
    tracer = Tracer()
    # id(original) -> (original, wrapper); holding the original keeps its
    # id from being reused while the wrappers are in.
    wrapped: Dict[int, Tuple[Callable, Callable]] = {}
    wrappers = set()  # ids of every wrapper, aliases' included

    def rebind(owner: Any, attr: str, value: Any) -> None:
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        tracer._restore.append(lambda: setattr(owner, attr, old))

    for modname in MODULES:
        for owner, attr, raw, fn, qual in _entries_of(sys.modules[modname]):
            w = tracer.wrap(fn, qual, _layer_of(modname, qual))
            wrapped[id(fn)] = (fn, w)
            wrappers.add(id(w))
            if isinstance(raw, staticmethod):
                w = staticmethod(w)
            elif isinstance(raw, classmethod):
                w = classmethod(w)
            rebind(owner, attr, w)

    # Second bindings: other module and class attributes holding an
    # original, and closure cells of the program's own functions (not of
    # the wrappers, which carry the original's ``__module__``).
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro.") or module is None:
            continue
        holders: List[Any] = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == modname
        ]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    rebind(holder, attr, hit[1])
                elif value.__module__.startswith("repro.") and id(value) not in wrappers:
                    _rebind_cells(value, wrapped, tracer)
    for original, _ in list(wrapped.values()):
        _rebind_cells(original, wrapped, tracer)
    return tracer


def _rebind_cells(fn: Callable, wrapped: Dict, tracer: Tracer) -> None:
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # an empty cell
            continue
        hit = wrapped.get(id(value))
        if hit is not None and hit[0] is value:
            cell.cell_contents = hit[1]
            tracer._restore.append(
                lambda cell=cell, value=value: setattr(cell, "cell_contents", value)
            )


# -- per-layer metrics ---------------------------------------------------------

COLLECTIVES = (
    "broadcast", "reduce_all", "reduce", "reduce_all_loc", "scan", "allgather",
    "gather", "scatter", "alltoall", "broadcast_pipelined", "reduce_all_pipelined",
)
# Named groups of entry points whose calls or inclusive time a metric reads.
GROUPS = {
    "charge": lambda n: n.endswith("Counters.charge_time"),
    "pvar": lambda n: n.startswith("repro.machine.pvar.PVar."),
    "route": lambda n: n == "repro.machine.router.Router.simulate",
    "lookup": lambda n: n == "repro.machine.plans.PlanCache.lookup",
    "primitive": lambda n: n.startswith("repro.core.primitives."),
    "collective": lambda n: n in {f"repro.comm.collectives.{c}" for c in COLLECTIVES},
    "remap": lambda n: n.startswith("repro.embeddings.remap."),
    "spmv": lambda n: n == "repro.sparse.primitives.spmv",
    "save": lambda n: n == "repro.faults.checkpoint.CheckpointStore.save",
    "restore": lambda n: n == "repro.faults.checkpoint.CheckpointStore.restore",
    "degrade": lambda n: n == "repro.core.session.Session.degrade",
    "promote": lambda n: n == "repro.core.session.Session.promote",
    "correct": lambda n: n in ("repro.abft.panels.correct_single",
                               "repro.abft.manager.ABFTManager.on_wire_retransmit"),
    "audit": lambda n: n.startswith("repro.check.sanitizer.MachineSanitizer.audit_"),
}
EXPECTED_GROUP_SIZE = {"charge": 2, "correct": 2}


def _group_index(tracer: Tracer) -> Dict[str, np.ndarray]:
    """Entry ids per group; a group that matches nothing is an error, so a
    renamed entry point fails the run instead of reading zero."""
    out = {}
    for group, match in GROUPS.items():
        ids = [i for i, e in enumerate(tracer.entries) if match(e.name)]
        if len(ids) < EXPECTED_GROUP_SIZE.get(group, 1):
            raise RuntimeError(f"trace group {group!r} matches {len(ids)} entry points")
        out[group] = np.array(ids, dtype=np.int64)
    return out


def layer_metrics(tracer: Tracer, jobs, traces) -> Dict[str, Tuple[float, str]]:
    """Per-job values of every per-layer metric, reported as medians."""
    from workloads import SIM_FIELDS

    groups = _group_index(tracer)
    rows: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        rows.setdefault(name, []).append(float(value))
        units[name] = unit

    layer = {name: i for i, name in enumerate(LAYERS)}
    for job, t in zip(jobs, traces):
        if job.error is not None:
            continue

        def calls(group: str) -> int:
            return int(t.calls[groups[group]].sum())

        def incl_ms(*names: str) -> float:
            return 1e3 * sum(float(t.inclusive_s[groups[g]].sum()) for g in names)

        def self_ms(name: str) -> float:
            return 1e3 * float(t.self_s[layer[name]])

        lookups = calls("lookup")
        put("machine.self_ms", self_ms("machine"), "ms")
        put("machine.charge_calls", calls("charge"), "count")
        put("machine.pvar_ops", calls("pvar"), "count")
        put("machine.route_calls", calls("route"), "count")
        put("machine.plan_lookups", lookups, "count")
        put("machine.plan_hit_ratio", t.plan_hits / lookups if lookups else 0.0, "ratio")
        put("machine.plan_build_ms", 1e3 * t.plan_build_s, "ms")
        put("core.self_ms", self_ms("core"), "ms")
        put("core.primitive_calls", calls("primitive"), "count")
        put("comm.self_ms", self_ms("comm"), "ms")
        put("comm.collective_calls", calls("collective"), "count")
        put("embeddings.self_ms", self_ms("embeddings"), "ms")
        put("embeddings.remap_calls", calls("remap"), "count")
        put("sparse.self_ms", self_ms("sparse"), "ms")
        put("sparse.spmv_calls", calls("spmv"), "count")
        put("faults.self_ms", self_ms("faults"), "ms")
        put("faults.checkpoint_save_ms", incl_ms("save"), "ms")
        put("faults.checkpoint_restore_ms", incl_ms("restore"), "ms")
        put("faults.recovery_ms", incl_ms("degrade", "promote"), "ms")
        put("faults.recoveries", calls("degrade") + calls("promote"), "count")
        put("abft.self_ms", self_ms("abft"), "ms")
        put("abft.corrections", calls("correct"), "count")
        put("check.self_ms", self_ms("check"), "ms")
        put("check.audits", calls("audit"), "count")
        put("batch.self_ms", self_ms("batch"), "ms")
        put("batch.stacked_lane_ratio", job.extra.get("stacked_lane_ratio", 0.0), "ratio")
        put("algorithms.self_ms", self_ms("algorithms"), "ms")
        for field in SIM_FIELDS[1:]:
            put(f"sim.{field}", job.sim[SIM_FIELDS.index(field)], "count")
    return {name: (float(np.median(v)), units[name]) for name, v in rows.items()}


def cross_check(tracer: Tracer, jobs, traces) -> List[str]:
    """Span counts against the program's own counters, where it keeps one."""
    groups = _group_index(tracer)
    problems = []
    for job, t in zip(jobs, traces):
        prog = job.program
        if job.error is not None or prog is None:
            continue

        def calls(group: str) -> int:
            return int(t.calls[groups[group]].sum())

        checks = {
            "plan lookups = hits + misses":
                (calls("lookup"), prog["plan_hits"] + prog["plan_misses"]),
            "plan hits seen = plan_hits": (t.plan_hits, prog["plan_hits"]),
            "ABFT corrections = abft_corrected":
                (calls("correct"), prog["abft_corrected"]),
        }
        if "promotions" in prog:
            checks["promote calls = promotions"] = (calls("promote"), prog["promotions"])
            # run_resilient counts a corruption replay as a recovery too.
            checks["degrade calls = recoveries - replays"] = (
                calls("degrade"), prog["recoveries"] - prog["abft_recomputed"]
            )
        for what, (seen, kept) in checks.items():
            if seen != kept:
                problems.append(f"job {job.index}: trace {what}: {seen} != {kept}")
    return problems
