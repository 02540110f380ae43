#!/usr/bin/env python3
"""Check the predicted layer shares on one seed (the held-out seed by default).

Runs the traced benchmark on every workload, prints each layer's share of
self time, and exits nonzero unless the shares keep the predicted order:

* ``machine`` + ``core`` hold the largest share on ``paper_apps_warm``
  and less than 5% on ``graph_sparse``;
* ``sparse`` is nonzero only on ``graph_sparse``;
* ``faults``, ``abft`` and ``check`` are nonzero only on ``hardened_faulted``;
* ``batch`` is nonzero only on ``batch_sweep``.

::

    python3 perfbench/shares.py                # held-out seed 9001
    python3 perfbench/shares.py --seed 4 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from layers import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
HELD_OUT_SEED = 9001  # never used while the bounds were set
ONLY_ON = {"sparse": "graph_sparse", "faults": "hardened_faulted",
           "abft": "hardened_faulted", "check": "hardened_faulted",
           "batch": "batch_sweep"}


def traced_shares(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    self_ms = {layer: metrics[f"{layer}.self_ms"]["value"] for layer in LAYERS}
    total = sum(self_ms.values())
    return {layer: ms / total for layer, ms in self_ms.items()}


def violations(shares: dict) -> list:
    out = []
    paper = shares["paper_apps_warm"]
    dispatch = paper["machine"] + paper["core"]
    others = max(v for k, v in paper.items() if k not in ("machine", "core"))
    if dispatch <= others:
        out.append(f"paper_apps_warm: machine+core {dispatch:.3f} <= {others:.3f}")
    graph = shares["graph_sparse"]["machine"] + shares["graph_sparse"]["core"]
    if graph >= 0.05:
        out.append(f"graph_sparse: machine+core {graph:.3f} >= 0.05")
    for layer, home in ONLY_ON.items():
        for workload, by_layer in shares.items():
            if (by_layer[layer] > 0) != (workload == home):
                out.append(f"{workload}: {layer} share {by_layer[layer]:.4f}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    shares = {w: traced_shares(w, args.seed, args.seconds) for w in WORKLOADS}
    print(f"self-time share by layer, seed {args.seed}")
    print(f"{'layer':12s}" + "".join(f"{w:>18s}" for w in WORKLOADS))
    for layer in LAYERS:
        print(f"{layer:12s}" + "".join(f"{shares[w][layer]:18.4f}" for w in WORKLOADS))
    problems = violations(shares)
    for problem in problems:
        print(f"FAIL {problem}")
    print("shares keep the predicted order" if not problems else "shares broke the prediction")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
