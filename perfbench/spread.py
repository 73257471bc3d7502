"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1 2 3 4 5

For every end-to-end metric, prints the median, quartiles and 90th
percentile of the runs, the distance between the first and third quartile
as a share of the median, and that share against the metric's bound.
This is the steadiness rule the benchmark is accepted by: every spread but
``setup_s``'s must stay within its bound (aim for a third of it).
``--json`` writes the raw values.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from catalog import END_TO_END, RUN_SECONDS
from stats import iqr_share, percentile, quartiles

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--json", help="write the per-run metrics here")
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        runs.append(one_run(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.5g}" for k, v in runs[-1].items()), file=sys.stderr)
    for name, unit, _better, bound in END_TO_END:
        values = [r[name] for r in runs]
        q1, q2, q3 = quartiles(values)
        share = iqr_share(values)
        verdict = "ok" if share <= bound / 3 else (
            "within bound" if share <= bound else "TOO WIDE")
        print(f"{args.workload:10s} {name:12s} median {q2:12.6g} {unit:4s} "
              f"q1 {q1:.6g} q3 {q3:.6g} p90 {percentile(values, 90):.6g} "
              f"spread {share:6.2%} (bound {bound:.0%}) {verdict}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "runs": runs}, fh, indent=1)


if __name__ == "__main__":
    main()
