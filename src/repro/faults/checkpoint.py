"""Checkpoint/restore of distributed arrays for degraded-mode recovery.

A :class:`Checkpoint` is a host-side snapshot: canonical (row-major) NumPy
copies of distributed arrays plus a small dict of solver state (step
counter, pivot lists, ...).  Host-side is deliberate — the Connection
Machine's front end survives node failures, and a host copy can be
re-scattered onto *any* machine, including the smaller subcube recovery
remaps onto.

What a save/restore pair *charges* on the simulated clock is pluggable
(:class:`~repro.faults.strategies.CheckpointPolicy`):

* ``host`` (default) charges a full gather-to-host schedule — for each
  cube dimension ``j`` one round of volume ``local * 2**j`` per array
  (the classic binary-tree gather, total ``local * (p - 1)`` elements per
  processor column) plus one local pack pass; restore charges the
  mirror-image scatter on the machine doing the restoring;
* ``diskless`` charges the in-cube mirror + parity-fold schedule
  (O(local) rounds per save) and stashes byte-sum parity panels with the
  checkpoint;
* ``incremental`` is diskless scaled by the dirty-block fraction since
  the previous snapshot, with a periodic full-snapshot fallback.

Plain host arrays in ``arrays`` are stored as-is and charge nothing on
either side — they already live on the host.  Checkpoints are taken
*before* faults land (periodically, from the workload's ``on_step``
hook), so a save never races a dead node; a fault *can* land mid-save or
mid-restore (the charged rounds poll the injector), in which case the
interrupted save never commits and recovery resumes from the previous
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import CheckpointError
from ..machine.dirty import block_signatures
from .strategies import CheckpointPolicy, PromotionPending, make_strategy


@dataclass
class Checkpoint:
    """One saved snapshot: arrays (host copies) plus solver state.

    ``distributed`` names the arrays that were machine-resident at save
    time (the only ones whose motion is charged on restore); ``meta``
    records the strategy, machine size and mirror/parity dimensions of
    the save; ``panels`` holds per-array byte-sum parity signatures for
    the non-host strategies (verified on restore).
    """

    label: str
    step: int
    time: float  # simulated time at save
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    state: Dict[str, Any] = field(default_factory=dict)
    distributed: Tuple[str, ...] = ()
    meta: Dict[str, Any] = field(default_factory=dict)
    panels: Dict[str, np.ndarray] = field(default_factory=dict)

    def array(self, name: str) -> np.ndarray:
        """The saved array called ``name`` (:class:`CheckpointError` if absent)."""
        try:
            return self.arrays[name]
        except KeyError:
            raise CheckpointError(
                f"checkpoint {self.label!r} (step {self.step}) has no array "
                f"{name!r}; it holds {sorted(self.arrays)}"
            ) from None


class CheckpointStore:
    """Holds the latest checkpoint per label and charges its data motion.

    One store per resilient run; the workload saves periodically and, after
    the session degrades onto a subcube, restores from the latest snapshot
    to resume.  ``saves``/``restores`` count operations,
    ``save_ticks``/``restore_ticks`` the simulated time they charged, and
    the ``full_saves``/``delta_saves``/``dirty_blocks``/``total_blocks``
    counters the incremental strategy's delta accounting.

    ``policy`` defaults to the session's ``checkpoint_policy`` (the
    ``Session(checkpoint=...)`` kwarg), then to the host-gather default.
    """

    def __init__(self, session: Any, policy: Any = None) -> None:
        self.session = session
        if policy is None:
            policy = getattr(session, "checkpoint_policy", None)
        self.policy = CheckpointPolicy.coerce(policy)
        self.strategy = make_strategy(self.policy)
        self._latest: Optional[Checkpoint] = None
        self.saves = 0
        self.restores = 0
        self.save_ticks = 0.0
        self.restore_ticks = 0.0
        self.full_saves = 0
        self.delta_saves = 0
        self.dirty_blocks = 0
        self.total_blocks = 0

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self._latest

    def summary(self) -> dict:
        """Checkpoint accounting for reports and warehouse records."""
        data = {
            "strategy": self.policy.strategy,
            "every": self.policy.every,
            "saves": self.saves,
            "restores": self.restores,
            "save_ticks": self.save_ticks,
            "restore_ticks": self.restore_ticks,
        }
        if self.policy.strategy == "incremental":
            data.update(
                full_saves=self.full_saves,
                delta_saves=self.delta_saves,
                dirty_blocks=self.dirty_blocks,
                total_blocks=self.total_blocks,
            )
        return data

    # -- operations ------------------------------------------------------------

    def save(
        self,
        label: str,
        arrays: Dict[str, Any],
        state: Optional[Dict[str, Any]] = None,
        step: int = 0,
    ) -> Checkpoint:
        """Snapshot distributed arrays (plus host arrays/state) to safety.

        ``arrays`` maps names to distributed arrays (anything with
        ``to_numpy()`` and a ``pvar``) or plain ndarrays (stored as-is,
        uncharged — they already live on the host).  Charges the policy's
        save schedule per distributed array; a fault landing inside those
        charged rounds aborts the save uncommitted.  May raise
        :class:`~repro.faults.strategies.PromotionPending` *after* the
        checkpoint commits, when re-expansion is possible (see
        :func:`~repro.faults.recovery.run_resilient`).
        """
        machine = self.session.machine
        start = machine.counters.time
        index = self.saves
        prev = self._latest
        host: Dict[str, np.ndarray] = {}
        distributed = []
        panels: Dict[str, np.ndarray] = {}
        meta: Dict[str, Any] = {
            "strategy": self.strategy.name,
            "p": machine.p,
            "full": True,
            "dirty": 0,
            "blocks": 0,
            "mirror_dim": None,
            "parity_dim": None,
        }
        for name, arr in arrays.items():
            pvar = getattr(arr, "pvar", None)
            if pvar is not None:
                # Host readback is uncharged (front-end visibility); the
                # strategy charges the cube-side data motion.
                host_now = np.array(arr.to_numpy())
                prev_host = prev.arrays.get(name) if prev is not None else None
                info = self.strategy.charge_save(
                    machine, pvar.local_size, index, prev_host, host_now
                )
                host[name] = host_now
                distributed.append(name)
                meta["mirror_dim"] = info["mirror_dim"]
                meta["parity_dim"] = info["parity_dim"]
                meta["full"] = bool(meta["full"] and info["full"])
                meta["dirty"] += info["dirty"]
                meta["blocks"] += info["blocks"]
                if self.policy.verify:
                    panel = self.strategy.signature_panel(
                        host_now, max(machine.p, 1)
                    )
                    if panel is not None:
                        panels[name] = panel
            else:
                host[name] = np.array(arr)
        ck = Checkpoint(
            label=label,
            step=step,
            time=machine.counters.time,
            arrays=host,
            state=dict(state or {}),
            distributed=tuple(distributed),
            meta=meta,
            panels=panels,
        )
        self._latest = ck
        self.saves += 1
        self.save_ticks += machine.counters.time - start
        if meta["full"]:
            self.full_saves += 1
        else:
            self.delta_saves += 1
        self.dirty_blocks += meta["dirty"]
        self.total_blocks += meta["blocks"]
        machine.instant(
            f"checkpoint:{label}", "fault", step=step, arrays=sorted(host),
            strategy=self.strategy.name,
        )
        if self.policy.promote:
            ready = getattr(self.session, "promotion_ready", None)
            if ready is not None and ready():
                raise PromotionPending(ck)
        return ck

    def restore(self, required: bool = False) -> Optional[Checkpoint]:
        """The latest checkpoint, charging its redistribution on the
        *current* machine.

        Returns ``None`` when nothing has been saved yet (the workload then
        starts from its inputs), unless ``required`` — then that is a
        :class:`CheckpointError`.  Only the arrays that were distributed at
        save time charge the policy's restore schedule (host-only payloads
        were stored uncharged, so restoring them moves nothing); the
        charged ticks are folded into the injector's ``recovery_ticks``.
        With ``verify`` on, each restored array's byte-sum signature is
        checked against the panel stored at save time.
        """
        ck = self._latest
        if ck is None:
            if required:
                raise CheckpointError("no checkpoint has been saved")
            return None
        machine = self.session.machine
        start = machine.counters.time
        restored = 0
        distributed = set(ck.distributed)
        for name, host in ck.arrays.items():
            if name not in distributed:
                continue
            if machine.p == 0:  # pragma: no cover - defensive
                raise CheckpointError("cannot restore onto an empty machine")
            self.strategy.charge_restore(
                machine, float(host.size) / machine.p, ck.meta
            )
            panel = ck.panels.get(name)
            if panel is not None:
                observed = block_signatures(host, len(panel))
                if not np.array_equal(observed, panel):
                    raise CheckpointError(
                        f"checkpoint {ck.label!r} array {name!r} fails its "
                        f"parity-panel verification "
                        f"({int(np.count_nonzero(observed != panel))} of "
                        f"{len(panel)} block signatures diverge)"
                    )
            restored += 1
        self.restores += 1
        self.restore_ticks += machine.counters.time - start
        injector = machine.faults
        if injector is not None:
            injector.stats.remapped_arrays += restored
            injector.stats.recovery_ticks += machine.counters.time - start
        machine.instant(
            f"restore:{ck.label}", "fault", step=ck.step,
            arrays=sorted(ck.arrays), p=machine.p, strategy=self.strategy.name,
        )
        return ck


__all__ = ["Checkpoint", "CheckpointStore"]
