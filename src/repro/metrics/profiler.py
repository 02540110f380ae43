"""Deterministic phase profiler: host wall-clock attribution by phase.

The simulated clock says *what the machine would cost*; this profiler
says where the *host* time goes — the instrument the ROADMAP's overhead
attack needs (sanitizer ~2x wall, ABFT ~10x wall on gaussian, with no
tooling to explain which hook burns it).

Attribution is exclusive and event-driven: every :meth:`push` / :meth:`pop`
boundary charges the wall time since the previous boundary to the
innermost open label (or to the ``(unattributed)`` root when none is
open).  Because only boundaries read the clock, the algorithm is
deterministic given a clock — tests inject a fake counter clock and pin
the exact attribution.

Three kinds of label arrive for free once attached:

* every ``Hypercube.phase(name)`` pushes/pops ``name`` (so core compute
  and the ABFT ``abft-maintain``/``abft-verify``/``abft-scrub`` phases
  split out immediately);
* :meth:`wrap_hook` times every hook of an attached sanitizer, so every
  audit call lands under ``sanitizer-checks`` (the machine passes each
  observer hook through it when it builds its hook tuples, so the attach
  order does not matter);
* :meth:`PlanCache.memo <repro.machine.plans.PlanCache.memo>` opens a
  ``plan-build`` section around plan construction misses.

Contract (pinned by ``tests/test_metrics.py``): the profiler never
charges the machine — simulated ticks and all counters are bit-identical
with profiling on or off.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError, env_flag

#: Environment variable that turns the profiler on for new ``Session``s.
ENV_FLAG = "REPRO_PROFILE"

#: Observers whose hooks are timed under one label: role -> (label, category).
TIMED_ROLES = {"sanitizer": ("sanitizer-checks", "check")}

#: Label for wall time not inside any phase/section.
ROOT = "(unattributed)"

#: Cap on Chrome counter-track samples recorded at pops.
MAX_SAMPLES = 4096


def env_enabled() -> bool:
    """The process-wide default from ``REPRO_PROFILE`` (default: off)."""
    return env_flag(ENV_FLAG)


class PhaseProfiler:
    """Exclusive host wall-clock attribution over phase boundaries.

    Parameters
    ----------
    clock:
        A zero-argument callable returning seconds; defaults to
        :func:`time.perf_counter`.  Tests inject a deterministic counter.
    """

    role = "profiler"

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.machine = None
        self.times: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.categories: Dict[str, str] = {}
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        self._stack: List[str] = []
        self._mark: Optional[float] = None
        self._t0: Optional[float] = None
        self._total = 0.0
        self._running = False

    # -- binding --------------------------------------------------------------

    def bind(self, machine: Any) -> None:
        if self.machine is not None and self.machine is not machine:
            raise ConfigError(
                "profiler is already bound to a different machine"
            )
        self.machine = machine

    def rebind(self, machine: Any) -> None:
        """Re-bind to a replacement machine (degraded-mode recovery)."""
        self.machine = machine

    def wrap_hook(self, observer: Any, hook: Callable) -> Callable:
        """Time ``observer``'s hook when its role is in :data:`TIMED_ROLES`."""
        timed_as = TIMED_ROLES.get(observer.role)
        if timed_as is None:
            return hook
        label, category = timed_as
        push, pop = self.push, self.pop

        def timed(*args: Any, **kwargs: Any) -> Any:
            push(label, category)
            try:
                return hook(*args, **kwargs)
            finally:
                pop()

        return timed

    # -- run control ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Begin (or resume) attribution; prior totals accumulate."""
        if self._running:
            raise ConfigError("profiler is already running")
        self._running = True
        self._t0 = self._mark = self.clock()

    def stop(self) -> float:
        """End attribution; returns total profiled seconds so far."""
        if not self._running:
            raise ConfigError("profiler is not running")
        now = self.clock()
        self._attribute(now)
        self._total += now - self._t0
        self._running = False
        self._stack.clear()
        return self._total

    @contextlib.contextmanager
    def profiled(self) -> Iterator["PhaseProfiler"]:
        """``with profiler.profiled(): workload()`` — start/stop bracket."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    # -- attribution ----------------------------------------------------------

    def _attribute(self, now: float) -> None:
        label = self._stack[-1] if self._stack else ROOT
        self.times[label] = self.times.get(label, 0.0) + (now - self._mark)
        self._mark = now

    def push(self, label: str, category: str = "phase") -> None:
        """Open ``label``; time since the last boundary goes to the outer one."""
        if not self._running:
            return
        self._attribute(self.clock())
        self._stack.append(label)
        self.counts[label] = self.counts.get(label, 0) + 1
        self.categories.setdefault(label, category)

    def pop(self) -> None:
        """Close the innermost label (tolerant of an empty stack)."""
        if not self._running or not self._stack:
            return
        self._attribute(self.clock())
        self._stack.pop()
        machine = self.machine
        if machine is not None and not self._stack:
            self._sample(machine)

    # -- observer hooks ----------------------------------------------------------

    def on_phase_enter(self, name: str) -> None:
        self.push(name)

    def on_phase_exit(self, name: str) -> None:
        self.pop()

    def on_section_enter(self, label: str, category: str) -> None:
        self.push(label, category)

    def on_section_exit(self) -> None:
        self.pop()

    # -- Chrome counter track --------------------------------------------------

    def _sample(self, machine: Any) -> None:
        """Record cumulative per-category host seconds on the sim clock.

        Sampled when the outermost label closes, capped, never charging.
        """
        if len(self.samples) >= MAX_SAMPLES:
            return
        time_now = machine.counters.time
        try:
            ts = float(time_now)
        except TypeError:
            ts = float(max(time_now))  # LaneCounters vector clock
        totals: Dict[str, float] = {}
        for label, seconds in self.times.items():
            category = self.categories.get(label, "phase")
            totals[category] = totals.get(category, 0.0) + seconds
        self.samples.append((ts, totals))

    def counter_track_events(self, tid: int = 3) -> List[Dict[str, Any]]:
        """Samples as a Chrome ``"C"`` counter track of host seconds."""
        events: List[Dict[str, Any]] = []
        if not self.samples:
            return events
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": "host time (s)"},
            }
        )
        for ts, totals in self.samples:
            events.append(
                {
                    "ph": "C",
                    "pid": 0,
                    "tid": tid,
                    "name": "host_time_s",
                    "ts": ts,
                    "args": dict(totals),
                }
            )
        return events

    # -- reporting -------------------------------------------------------------

    @property
    def total(self) -> float:
        """Total profiled wall seconds (running time excluded until stop)."""
        return self._total

    @property
    def attributed(self) -> float:
        """Seconds attributed to named labels (everything but the root)."""
        return sum(t for label, t in self.times.items() if label != ROOT)

    @property
    def coverage(self) -> float:
        """Fraction of profiled wall time attributed to named labels."""
        if self._total <= 0.0:
            return 0.0
        return self.attributed / self._total

    def table(self, top_n: int = 10) -> List[Dict[str, Any]]:
        """Per-label rows sorted by descending exclusive seconds."""
        rows = [
            {
                "label": label,
                "category": self.categories.get(label, "root"),
                "seconds": seconds,
                "share": seconds / self._total if self._total else 0.0,
                "count": self.counts.get(label, 0),
            }
            for label, seconds in self.times.items()
        ]
        rows.sort(key=lambda r: -r["seconds"])
        return rows[:top_n]

    def category_breakdown(self) -> Dict[str, float]:
        """Exclusive seconds rolled up by category (root kept separate)."""
        totals: Dict[str, float] = {}
        for label, seconds in self.times.items():
            category = self.categories.get(label, "root")
            totals[category] = totals.get(category, 0.0) + seconds
        return totals

    def as_dict(self, top_n: int = 10) -> Dict[str, Any]:
        """JSON-serialisable summary (used by reports and the warehouse)."""
        return {
            "total_s": self._total,
            "attributed_s": self.attributed,
            "coverage": self.coverage,
            "phases": self.table(top_n),
            "categories": self.category_breakdown(),
        }

    def format_table(self, top_n: int = 10) -> str:
        """The per-phase top-N table as printable text."""
        lines = [
            f"host wall time    : {self._total:.3f}s "
            f"({100.0 * self.coverage:.1f}% attributed)",
            f"  {'label':<24s} {'category':<9s} {'seconds':>9s} "
            f"{'share':>7s} {'count':>7s}",
        ]
        for row in self.table(top_n):
            lines.append(
                f"  {row['label']:<24s} {row['category']:<9s} "
                f"{row['seconds']:>9.3f} {100.0 * row['share']:>6.1f}% "
                f"{row['count']:>7d}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return (
            f"PhaseProfiler({state}, total={self._total:.3f}s, "
            f"labels={len(self.times)})"
        )


__all__ = [
    "PhaseProfiler",
    "ROOT",
    "env_enabled",
    "ENV_FLAG",
    "MAX_SAMPLES",
]
