"""Golden cost snapshots: tier-1 workload counters pinned in-repo.

The simulator's whole claim to faithfulness is its cost accounting, so the
exact counters of fixed tier-1 workloads — Gaussian elimination, simplex,
and repeated matvec, each on a fixed seed and machine, plus ABFT-on
variants of gaussian and matvec pinning the checksum layer's overhead —
are pinned in ``golden_costs.json`` next to this module.  Any change to tick /
flop / transfer accounting shows up as an explicit diff of that file,
reviewed like any other behavioural change, instead of drifting silently.

The snapshots double as the seed-counter pin: they were captured with the
sanitizer *off* on the seed tree, and the conformance runner replays the
workloads under sanitizer off/on × plan cache on/off to verify that
accounting is unchanged, that the sanitizer's presence does not perturb
it, and that rebuilding every plan charges exactly what replaying does.

Update after an intentional accounting change with::

    python -m repro check --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.session import Session
from .. import workloads

#: The pinned snapshot file, versioned with the code it describes.
GOLDEN_PATH = Path(__file__).with_name("golden_costs.json")

#: Counter fields pinned per workload (exact float equality).
FIELDS = (
    "time",
    "flops",
    "elements_transferred",
    "comm_rounds",
    "local_moves",
)

#: Machine shape shared by all golden workloads.
N_DIMS = 6
COST_MODEL = "cm2"


def _gaussian(session: Session) -> None:
    from ..algorithms import gaussian

    A, b, _ = workloads.diagonally_dominant_system(24, 11)
    gaussian.solve(session.matrix(A), b)


def _simplex(session: Session) -> None:
    from ..algorithms import simplex

    lp = workloads.feasible_lp(8, 12, 5)
    simplex.solve(session.machine, lp.A, lp.b, lp.c)


def _matvec(session: Session) -> None:
    from ..algorithms import matvec

    rng = np.random.default_rng(3)
    A = rng.standard_normal((24, 17))
    x = rng.standard_normal(17)
    dA = session.matrix(A)
    for _ in range(4):
        matvec.matvec(dA, session.row_vector(x, dA))


def _bfs(session: Session) -> None:
    # Pins the sparse subsystem's accounting: nnz-balanced embedding,
    # routed frontier exchanges, and the charged convergence reduction.
    from ..algorithms import graph

    g = workloads.random_graph(48, 3.0, seed=7)
    graph.bfs(session, g, 0)


WORKLOADS: Dict[str, Callable[[Session], None]] = {
    "gaussian": _gaussian,
    "simplex": _simplex,
    "matvec": _matvec,
    "gaussian_abft": _gaussian,
    "matvec_abft": _matvec,
    "bfs": _bfs,
}

#: Extra Session keyword arguments per workload.  The ``*_abft`` entries
#: pin the checksum layer's overhead: protect/guard charges land on the
#: same simulated clock, so ABFT cost drift diffs this file too.
SESSION_OPTS: Dict[str, Dict[str, object]] = {
    "gaussian_abft": {"abft": True},
    "matvec_abft": {"abft": True},
}


def _run_one(
    name: str, sanitize: bool, plan_cache: bool = True
) -> Dict[str, float]:
    session = Session(
        N_DIMS,
        cost_model=COST_MODEL,
        plan_cache=plan_cache,
        sanitize=sanitize,
        **SESSION_OPTS.get(name, {}),
    )
    WORKLOADS[name](session)
    counters = session.machine.counters
    return {f: getattr(counters, f) for f in FIELDS}


def collect_golden(sanitize: bool = False) -> dict:
    """Run every golden workload and collect its counters."""
    return {
        "n_dims": N_DIMS,
        "cost_model": COST_MODEL,
        "fields": list(FIELDS),
        "workloads": {name: _run_one(name, sanitize) for name in WORKLOADS},
    }


def load_golden(path: Optional[Path] = None) -> dict:
    with open(GOLDEN_PATH if path is None else path) as fh:
        return json.load(fh)


def update_golden(path: Optional[Path] = None) -> dict:
    """Re-capture the snapshots (sanitizer off, like the seed capture)."""
    data = collect_golden(sanitize=False)
    with open(GOLDEN_PATH if path is None else path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


def compare_golden(path: Optional[Path] = None) -> Tuple[bool, list]:
    """Replay every workload under sanitizer off/on × plan cache on/off.

    Returns ``(passed, mismatches)`` where each mismatch names the
    workload, the sanitizer and plan-cache states, the field and both
    values.  Exact float
    comparison: cached charges and memoized rates are bit-stable, so any
    inequality is a real accounting change.
    """
    golden = load_golden(GOLDEN_PATH if path is None else path)
    mismatches = []
    for name, want in golden["workloads"].items():
        for sanitize in (False, True):
            for plan_cache in (True, False):
                got = _run_one(name, sanitize, plan_cache)
                for field in golden["fields"]:
                    if got[field] != want[field]:
                        mismatches.append(
                            {
                                "workload": name,
                                "sanitize": sanitize,
                                "plan_cache": plan_cache,
                                "field": field,
                                "expected": want[field],
                                "observed": got[field],
                            }
                        )
    return not mismatches, mismatches


__all__ = [
    "GOLDEN_PATH",
    "FIELDS",
    "SESSION_OPTS",
    "WORKLOADS",
    "collect_golden",
    "compare_golden",
    "load_golden",
    "update_golden",
]
