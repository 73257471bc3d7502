"""Run one iteration of one workload and print its result as one JSON line.

``run.py`` starts this script in a fresh interpreter for every iteration,
so the program's process-global caches (memo tables, tree cache) start
cold, as they do for a ``repro`` command-line invocation.

    PYTHONPATH=src python3 perfbench/iteration.py --workload reference \\
        --seed 0 --work-dir .perfbench-out/tmp [--traced]
"""

from __future__ import annotations

import argparse
import json
import resource

from tracing import SpanRecorder, self_times
from workloads import WORKLOADS, Iteration


def _peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak among finished child processes
    (the sweep's pool workers); ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run(workload: str, seed: int, traced: bool, work_dir: str,
        iteration: int = 0) -> dict:
    rec = SpanRecorder(iteration=iteration, enabled=traced)
    it = Iteration(seed, rec, work_dir)
    WORKLOADS[workload](it)
    layers = dict(it.layers)
    events = layers.get("simulate.events", 0)
    layers["simulate.events_per_s"] = events / it.work_s if events else 0.0
    out = {
        "setup_s": it.setup_s,
        "wall_s": it.wall_s,
        "work_per_s": it.work / it.work_s,
        "peak_rss_mb": _peak_rss_mb(),
        "layers": layers,
        "digests": it.digests,
        "attempted": it.attempted,
        "failures": it.failures,
    }
    if traced:
        spans = rec.to_json()
        selfs = self_times(spans)
        out["spans"] = spans
        out["self_times"] = selfs
        # Harness time inside set-up and body not covered by a layer span.
        layers["trace.unattributed_s"] = (
            selfs.get("setup", 0.0) + selfs.get("body", 0.0)
        )
        for name, secs in selfs.items():
            if name not in ("setup", "body"):
                layers[f"{name}_s"] = layers.get(f"{name}_s", 0.0) + secs
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--iteration", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.traced, args.work_dir,
                 args.iteration)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
