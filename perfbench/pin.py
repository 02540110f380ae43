#!/usr/bin/env python3
"""Regenerate the pinned simulated counters in ``perfbench/pins.json``.

For each workload and seed, runs jobs ``0..FIXED_JOBS-1`` untimed and pins
their simulated totals plus a digest of every job's counters.  A timed
run with a pinned seed fails when its counters differ.  Re-pin only when
a change to the cost model is intended, and say why in the change::

    python3 perfbench/pin.py --seeds 0-10,9001
    python3 perfbench/pin.py --seeds 3 --workload graph_sparse
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # sets the one-thread environment before NumPy loads


def _seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-10,9001")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    from workloads import WORKLOADS

    with open(run.PINS) as fh:
        pins = json.load(fh)
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]()
        wl.setup()
        for seed in _seeds(args.seeds):
            jobs, _ = run.run_jobs(wl, seed, 0.0, run.FIXED_JOBS)
            failed = run.failures(jobs)
            if failed:
                print("\n".join(failed), file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = run.pin_record(jobs)
            print(f"pinned {name} seed {seed}", flush=True)
            with open(run.PINS, "w") as fh:
                json.dump(pins, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
