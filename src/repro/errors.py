"""The library's exception taxonomy.

Every error the simulator raises on purpose derives from :class:`ReproError`,
so callers can catch one base class instead of fishing ``ValueError`` out of
NumPy noise.  The input-validation errors double-inherit from the built-in
they historically were (``ShapeError`` and ``EmbeddingError`` are also
``ValueError``\\ s), so existing ``except ValueError`` call sites keep
working.

Hierarchy::

    ReproError
    ├── ShapeError(ValueError)      — array extents / local shapes disagree
    ├── EmbeddingError(ValueError)  — embeddings mismatched or ill-formed
    ├── ConfigError(ValueError)     — an argument or configuration value is
    │                                 invalid (bad mode string, out-of-range
    │                                 pid/dim, negative charge, ...)
    ├── FaultError(RuntimeError)    — the simulated machine is degraded
    │   ├── NodeKilledError         — a processor died; collectives impossible
    │   ├── UnroutableError         — no healthy path exists for a message
    │   └── CorruptionError         — silent data corruption detected but
    │                                 not correctable from the checksums
    ├── CheckpointError(RuntimeError) — checkpoint contents unusable
    └── SanitizerError(RuntimeError)  — a machine invariant was violated
                                        (see repro.check.MachineSanitizer)

It also holds :func:`env_flag`, the one reader of the ``REPRO_*`` on/off
environment switches: every module that reads one already imports this
module for :class:`ConfigError`.
"""

from __future__ import annotations

import os

_ON = ("1", "on", "true", "yes")
_OFF = ("0", "off", "false", "no")


def env_flag(name: str, default: bool = False) -> bool:
    """Read the on/off environment switch ``name`` (case-insensitive).

    Off by default, a switch turns on only for ``1``/``on``/``true``/
    ``yes``; on by default (``REPRO_PLAN_CACHE``), it turns off only for
    ``0``/``off``/``false``/``no``.
    """
    raw = os.environ.get(name, "").strip().lower()
    return raw not in _OFF if default else raw in _ON


class ReproError(Exception):
    """Base class of every intentional error raised by the library."""


class ShapeError(ReproError, ValueError):
    """Array extents or local shapes are inconsistent.

    Messages name the offending shapes so the failing operand is
    identifiable from the traceback alone.
    """


class EmbeddingError(ReproError, ValueError):
    """Embeddings are mismatched, ill-formed, or used out of contract.

    Messages name the embeddings involved.
    """


class ConfigError(ReproError, ValueError):
    """An argument or configuration value is invalid.

    Covers everything input-validation that is neither a shape nor an
    embedding problem: unknown mode/rule strings, out-of-range processor or
    dimension indices, negative cost charges, malformed documents.
    """


class FaultError(ReproError, RuntimeError):
    """The simulated machine cannot complete an operation due to faults."""


class NodeKilledError(FaultError):
    """A processor is dead: SIMD collectives over it are impossible.

    The resilient runner (:func:`repro.faults.run_resilient`) catches this,
    degrades the session onto the largest healthy subcube, and resumes the
    workload from its last checkpoint.
    """


class UnroutableError(FaultError):
    """No healthy path exists for a routed message (links/nodes too dead)."""


class CorruptionError(FaultError):
    """Silent data corruption was detected but cannot be corrected.

    Raised by the ABFT layer (:mod:`repro.abft`) when a checksum block
    holds more than one corrupted element, so the row × column intersection
    no longer identifies a unique repair.  The resilient runner
    (:func:`repro.faults.run_resilient`) catches this and replays the
    workload from its last checkpoint on the same (healthy) topology.
    """


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint is missing required entries or does not fit the machine."""


class SanitizerError(ReproError, RuntimeError):
    """A machine conservation/accounting invariant was violated.

    Raised by :class:`repro.check.MachineSanitizer` at the first charged
    operation whose books do not balance; the message names the invariant,
    the expected and observed quantities, and the machine state (p, epoch).
    """


__all__ = [
    "env_flag",
    "ReproError",
    "ShapeError",
    "EmbeddingError",
    "ConfigError",
    "FaultError",
    "NodeKilledError",
    "UnroutableError",
    "CorruptionError",
    "CheckpointError",
    "SanitizerError",
]
