"""General message routing on the simulated cube.

The structured collectives in ``repro.comm`` only ever exchange along one
cube dimension at a time.  Everything else — embedding changes, transposes,
and the point-to-point sends the naive baselines rely on — goes through the
*router*, which models the Connection Machine's packet router with e-cube
(dimension-order) routing:

* a message from ``s`` to ``t`` corrects the differing address bits of
  ``s ^ t`` one dimension at a time, lowest dimension first;
* routing proceeds in synchronous per-dimension rounds; in each round every
  link can carry traffic in both directions, and a round's duration is one
  start-up plus the *most loaded* link's volume (congestion serialises);
* messages that do not need a given dimension sit still for free.

This captures exactly the effects the paper's comparisons depend on: a
congestion-free permutation (e.g. a Gray-code-aligned transpose) costs
``O(n)`` start-ups plus the block volume, while many-to-one traffic (the
naive reductions) serialises on the links near the destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError, NodeKilledError, ShapeError, UnroutableError
from .hypercube import NULL_CONTEXT, Hypercube, maybe_span
from .plans import MISSING
from .pvar import PVar


@dataclass(frozen=True)
class RouteStats:
    """What one routing operation did, for tests and model validation.

    ``dim_congestion`` records ``(dim, max link volume)`` for every round
    actually executed, in routing order — the per-dimension congestion
    profile the tracer's heatmaps are built from.  It rides along in cached
    plans so a plan replay can still report where the traffic squeezed.
    """

    rounds: int
    element_hops: float
    max_congestion: float
    time: float
    dim_congestion: Tuple[Tuple[int, float], ...] = ()


class Router:
    """E-cube router bound to one machine."""

    def __init__(self, machine: Hypercube) -> None:
        self.machine = machine

    # -- message-set cost engine ------------------------------------------------

    def simulate(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        sizes: np.ndarray,
        charge: bool = True,
    ) -> RouteStats:
        """Route a set of messages and charge their cost.

        Parameters
        ----------
        src, dst:
            Integer arrays of source and destination processor ids, one entry
            per message.
        sizes:
            Element count of each message.
        charge:
            When false, compute the stats without charging the machine
            (used by the analytic models for what-if questions).
        """
        machine = self.machine
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.float64)
        if not (src.shape == dst.shape == sizes.shape):
            raise ShapeError(
                f"src, dst and sizes must have identical shapes, got "
                f"{src.shape}, {dst.shape}, {sizes.shape}"
            )
        if src.size and (src.min() < 0 or src.max() >= machine.p):
            raise ConfigError("message source out of processor range")
        if dst.size and (dst.min() < 0 or dst.max() >= machine.p):
            raise ConfigError("message destination out of processor range")

        # Fire any fault events due at the current simulated time *before*
        # consulting the plan cache, so a topology change (epoch bump)
        # invalidates stale plans ahead of the lookup.  Non-strict: routed
        # point-to-point traffic is legal on a machine with dead nodes as
        # long as the endpoints themselves are alive.
        faults = machine.faults
        if faults is not None and charge:
            faults.poll(strict=False)

        # A charged simulation is an observable event; uncharged what-if
        # queries from the analytic models stay invisible to observers.
        hooks = machine.hooks
        on_rounds = hooks.on_route_round if charge else ()
        if charge and hooks.on_span_enter:
            span_ctx = maybe_span(
                machine,
                "route",
                "route",
                messages=int(src.size),
                volume=float(sizes.sum()),
            )
        else:
            span_ctx = NULL_CONTEXT
        # Gray state (slow links/nodes, or lingering health suspicion that
        # may trigger straggler avoidance) is continuous: it stretches
        # round time and steers routing without a topology epoch to key
        # on, so gray routes bypass the plan cache entirely and resimulate.
        gray = machine.gray_active or (
            faults is not None
            and faults.avoid_stragglers
            and faults.health.tracked > 0
        )
        with span_ctx:
            # Identical h-relations recur every iteration of the solver
            # loops; memoize their stats under a digest of the exact message
            # multiset.  A hit replays the identical single charge_transfer
            # call, so the counters cannot tell the difference.
            plans = machine.plans
            cache_key = None
            if not gray:
                cache_key = (
                    "route", src.tobytes(), dst.tobytes(), sizes.tobytes()
                )
                cached = plans.lookup(cache_key)
                if cached is not MISSING:
                    if charge:
                        audits = hooks.audit_route
                        before = (
                            machine.counters.snapshot() if audits else None
                        )
                        machine.counters.charge_transfer(
                            cached.element_hops, cached.rounds, cached.time
                        )
                        for on_replay in hooks.on_route_replay:
                            on_replay(cached)
                        for audit in audits:
                            audit(
                                machine, src, dst, sizes, cached,
                                before, from_cache=True,
                            )
                    return cached

            if machine.faulty or gray:
                stats = self._simulate_faulty(
                    src, dst, sizes, on_rounds, observe=charge
                )
            else:
                cur = src.copy()
                total_time = 0.0
                total_hops = 0.0
                rounds = 0
                worst = 0.0
                round_detail = []
                cm = machine.cost_model
                for d in range(machine.n):
                    bit = np.int64(1) << d
                    moving = ((cur ^ dst) & bit) != 0
                    if not np.any(moving):
                        continue
                    loads = np.bincount(
                        cur[moving], weights=sizes[moving], minlength=machine.p
                    )
                    congestion = float(loads.max())
                    total_time += cm.tau + cm.t_c * congestion
                    total_hops += float(sizes[moving].sum())
                    worst = max(worst, congestion)
                    rounds += 1
                    round_detail.append((d, congestion))
                    for on_round in on_rounds:
                        on_round(d, loads, congestion)
                    cur[moving] ^= bit
                stats = RouteStats(
                    rounds=rounds,
                    element_hops=total_hops,
                    max_congestion=worst,
                    time=total_time,
                    dim_congestion=tuple(round_detail),
                )
            if cache_key is not None:
                plans.store(cache_key, stats)
            if charge:
                # Charge from the stats record so the faulty branch (whose
                # totals live inside _simulate_faulty) charges too; the
                # healthy branch stored the identical floats, so this is
                # bit-identical to charging the loop's own accumulators.
                audits = hooks.audit_route
                before = machine.counters.snapshot() if audits else None
                machine.counters.charge_transfer(
                    stats.element_hops, stats.rounds, stats.time
                )
                for audit in audits:
                    audit(
                        machine, src, dst, sizes, stats, before,
                        from_cache=False,
                    )
            return stats

    def _detour_dim(self, node: int, d: int) -> Optional[int]:
        """Lowest dimension ``e`` detouring ``node``'s dead link across ``d``.

        The 3-hop substitute path ``node -e-> node^e -d-> node^e^d -e->
        node^d`` needs both intermediate nodes and all three substitute
        links healthy.  Returns ``None`` when no dimension qualifies.
        """
        machine = self.machine
        bit = 1 << d
        for e in range(machine.n):
            if e == d:
                continue
            ebit = 1 << e
            if (
                machine.node_alive(node ^ ebit)
                and machine.node_alive(node ^ ebit ^ bit)
                and machine.link_alive(e, node)
                and machine.link_alive(d, node ^ ebit)
                and machine.link_alive(e, node ^ bit)
            ):
                return e
        return None

    def _fast_detour_dim(self, node: int, d: int, health) -> Optional[int]:
        """Straggler-avoidance: a detour dim worth taking around a slow link.

        Consults the fault injector's learned health scores (not the true
        gray state — the router only knows what the telemetry showed).  A
        direct hop across a link suspected at factor ``f`` costs ``~f``
        rounds-worth of time; the 3-hop sidestep costs the sum of its three
        links' suspected factors (≥3 when healthy), so the detour is taken
        only when the model predicts a win: ``f > 3`` and some healthy
        sidestep beats it.  Returns ``None`` when staying direct is best.
        """
        machine = self.machine
        bit = 1 << d
        f_direct = health.link_factor(d, min(node, node ^ bit))
        if f_direct <= 3.0:
            return None
        best = None
        best_cost = f_direct
        for e in range(machine.n):
            if e == d:
                continue
            ebit = 1 << e
            if not (
                machine.node_alive(node ^ ebit)
                and machine.node_alive(node ^ ebit ^ bit)
                and machine.link_alive(e, node)
                and machine.link_alive(d, node ^ ebit)
                and machine.link_alive(e, node ^ bit)
            ):
                continue
            cost = (
                health.link_factor(e, min(node, node ^ ebit))
                + health.link_factor(d, min(node ^ ebit, node ^ ebit ^ bit))
                + health.link_factor(e, min(node ^ bit, node ^ bit ^ ebit))
            )
            if cost < best_cost:
                best = e
                best_cost = cost
        return best

    def _simulate_faulty(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        sizes: np.ndarray,
        on_rounds: tuple,
        observe: bool = True,
    ) -> "RouteStats":
        """E-cube routing on a machine with dead, slow and/or flaky parts.

        The healthy router corrects dimensions in a single lowest-first
        sweep.  Here each message may additionally:

        * **detour** — its link across the current dimension is dead, so it
          takes the 3-hop path via an adjacent dimension (each hop is a
          charged round; detours through the same dimension share rounds);
        * **defer** — correcting this dimension now would land it on a dead
          node (or no detour exists), so it corrects a later dimension
          first and retries on the next sweep from its new address;
        * **avoid** — the injector's health model suspects the direct link
          of straggling badly enough that the 3-hop sidestep is predicted
          cheaper (see :meth:`_fast_detour_dim`); charged honestly as the
          three detour hops.

        Each round's duration additionally stretches by the worst true
        slowdown among its participants (gray failures are real whether or
        not the health model has noticed).  With ``observe`` (charged
        simulations), every round's timing feeds the injector's health
        tracker — that is where detection comes from.  Sweeps repeat until
        every message arrives; a sweep that moves nothing while messages
        remain raises :class:`UnroutableError`.  Messages whose source or
        destination processor is dead raise :class:`NodeKilledError` up
        front.
        """
        machine = self.machine
        if machine.node_ok is not None:
            for arr, label in ((src, "source"), (dst, "destination")):
                dead = ~machine.node_ok[arr]
                if dead.any():
                    pids = sorted(set(int(x) for x in arr[dead]))
                    raise NodeKilledError(
                        f"message {label} processor(s) {pids} are dead "
                        f"(epoch {machine.epoch})"
                    )

        cm = machine.cost_model
        cur = src.copy()
        total_time = 0.0
        total_hops = 0.0
        rounds = 0
        worst = 0.0
        round_detail = []
        faults = machine.faults
        gray = machine.gray_active
        slow_nodes = machine._slow_nodes
        health = faults.health if faults is not None else None
        avoid = (
            faults is not None
            and faults.avoid_stragglers
            and (gray or faults.health.tracked > 0)
        )

        def charge_round(dim: int, positions: list, volumes: list) -> None:
            nonlocal total_time, total_hops, rounds, worst
            loads = np.bincount(
                np.asarray(positions, dtype=np.int64),
                weights=np.asarray(volumes, dtype=np.float64),
                minlength=machine.p,
            )
            congestion = float(loads.max())
            stretch = 1.0
            involved: dict = {}
            if gray:
                # The round waits for its slowest participant: the worst
                # slow link actually crossed and the worst straggler
                # endpoint.  The stretch is real simulated latency whether
                # or not the health model has caught on yet.
                slow = machine._slow_links_by_dim.get(dim, {})
                bit = 1 << dim
                for pos in positions:
                    lo = min(pos, pos ^ bit)
                    factor = slow.get(lo)
                    if factor is not None:
                        involved[lo] = factor
                        if factor > stretch:
                            stretch = factor
                    if slow_nodes:
                        nf = max(
                            slow_nodes.get(pos, 1.0),
                            slow_nodes.get(pos ^ bit, 1.0),
                        )
                        if nf > stretch:
                            stretch = nf
            total_time += (cm.tau + cm.t_c * congestion) * stretch
            total_hops += float(sum(volumes))
            worst = max(worst, congestion)
            rounds += 1
            round_detail.append((dim, congestion))
            for on_round in on_rounds:
                on_round(dim, loads, congestion)
            if observe and health is not None and (gray or health.tracked):
                # Timing telemetry: each endpoint sees how long its own
                # exchange took, so the stretch is attributable to the
                # links that carried traffic this round.  Links the sweep
                # routed *around* give no evidence and keep their scores.
                bit = 1 << dim
                los = {min(pos, pos ^ bit) for pos in positions}
                health.observe_round(
                    dim, involved, slow_nodes, participating=los
                )

        while np.any(cur != dst):
            progressed = False
            for d in range(machine.n):
                bit = np.int64(1) << d
                moving = np.nonzero(((cur ^ dst) & bit) != 0)[0]
                if moving.size == 0:
                    continue
                direct = []
                detoured: dict = {}  # detour dim e -> list of message indices
                for i in moving:
                    node = int(cur[i])
                    landing = node ^ int(bit)
                    more_dims = bool((int(cur[i]) ^ int(dst[i])) & ~int(bit))
                    if not machine.node_alive(landing):
                        # Landing on a dead node: defer if another dimension
                        # can be corrected first (changing the landing pad).
                        if more_dims:
                            continue
                        raise UnroutableError(
                            f"message {int(src[i])}->{int(dst[i])} must land "
                            f"on dead processor {landing} (epoch "
                            f"{machine.epoch})"
                        )
                    if machine.link_alive(d, node):
                        if avoid:
                            e = self._fast_detour_dim(node, d, health)
                            if e is not None:
                                detoured.setdefault(e, []).append(i)
                                if observe:
                                    faults.stats.straggler_detours += 1
                                continue
                        direct.append(i)
                        continue
                    e = self._detour_dim(node, d)
                    if e is None:
                        if more_dims:
                            continue
                        raise UnroutableError(
                            f"message {int(src[i])}->{int(dst[i])}: link "
                            f"(dim={d}, pid={node}) is dead and no adjacent "
                            f"dimension offers a healthy detour (epoch "
                            f"{machine.epoch})"
                        )
                    detoured.setdefault(e, []).append(i)
                if not direct and not detoured:
                    continue
                progressed = True
                # Hop 1: detoured messages sidestep across their detour dim.
                for e in sorted(detoured):
                    idx = detoured[e]
                    charge_round(
                        e,
                        [int(cur[i]) for i in idx],
                        [float(sizes[i]) for i in idx],
                    )
                # Hop 2: everyone crosses dimension ``d`` in one round —
                # direct messages from their own node, detoured ones from
                # their sidestep position.
                positions = [int(cur[i]) for i in direct]
                volumes = [float(sizes[i]) for i in direct]
                for e, idx in detoured.items():
                    ebit = 1 << e
                    positions.extend(int(cur[i]) ^ ebit for i in idx)
                    volumes.extend(float(sizes[i]) for i in idx)
                charge_round(d, positions, volumes)
                # Hop 3: detoured messages step back to the e-cube track.
                for e in sorted(detoured):
                    idx = detoured[e]
                    ebit = 1 << e
                    charge_round(
                        e,
                        [int(cur[i]) ^ ebit ^ int(bit) for i in idx],
                        [float(sizes[i]) for i in idx],
                    )
                corrected = direct + [i for idx in detoured.values() for i in idx]
                cur[np.asarray(corrected, dtype=np.int64)] ^= bit
            if not progressed:
                stuck = np.nonzero(cur != dst)[0]
                pairs = [
                    (int(src[i]), int(dst[i])) for i in stuck[:8]
                ]
                raise UnroutableError(
                    f"routing made no progress: {stuck.size} message(s) "
                    f"stuck, e.g. {pairs} (epoch {machine.epoch})"
                )
        return RouteStats(
            rounds=rounds,
            element_hops=total_hops,
            max_congestion=worst,
            time=total_time,
            dim_congestion=tuple(round_detail),
        )

    # -- whole-machine data movement ------------------------------------------

    def permute(self, pvar: PVar, dest: PVar) -> PVar:
        """Send every processor's block to the processor named in ``dest``.

        ``dest`` must hold a permutation of the processor ids (one incoming
        block per processor); use :meth:`simulate` directly for general
        h-relations where the data motion is managed by the caller.
        """
        machine = self.machine
        machine._check_owned(pvar)
        machine._check_owned(dest)
        d = np.asarray(dest.data, dtype=np.int64)
        if d.shape != (machine.p,):
            raise ShapeError(
                f"dest must be a scalar PVar of pids, got local shape {dest.local_shape}"
            )
        order = np.sort(d)
        if not np.array_equal(order, machine.pids()):
            raise ConfigError("dest is not a permutation of processor ids")
        sizes = np.full(machine.p, float(pvar.local_size))
        self.simulate(machine.pids(), d, sizes)
        out = np.empty_like(pvar.data)
        out[d] = pvar.data
        return PVar(machine, out)

    def point_to_point(
        self, pvar: PVar, src: int, dst: int, elements: Optional[float] = None
    ) -> Tuple[PVar, RouteStats]:
        """One message from ``src`` to ``dst``; the rest of the machine idles.

        Returns the received block installed at ``dst`` (other processors
        keep their old data) plus the routing stats.  This is the building
        block of the naive baselines' serial gathers and broadcasts.
        """
        machine = self.machine
        machine._check_owned(pvar)
        size = float(pvar.local_size if elements is None else elements)
        stats = self.simulate(
            np.array([src]), np.array([dst]), np.array([size])
        )
        out = pvar.data.copy()
        out[dst] = pvar.data[src]
        machine.charge_local(0.0)  # the copy at dst is part of the transfer
        return PVar(machine, out), stats
