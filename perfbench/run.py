"""The repository's benchmark: one command, four golden-checked workloads.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 30 --trace 0

Runs whole iterations of one workload, each in a fresh interpreter, for
about ``--seconds`` seconds (at least two iterations), checks every
simulated output, and prints one JSON object as the last line of standard
output::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"wall_s": {"value": 8.31, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics (medians over iterations);
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, the tracing overhead against the
untraced ones, and writes every span and the self-time table to
``.perfbench-out/trace-<workload>-seed<seed>.json``.  A failed check
makes the exit code 1; a missing program (no ``src/repro``) makes it 2
without a result line.

Other entry points::

    python3 perfbench/run.py --describe              # metrics, units, relations
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json
    python3 perfbench/run.py --workload sweep --record-goldens   # default seed
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from catalog import (
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    benchmark_json,
    describe,
)
from golden import GOLDENS_PATH, compare, load_goldens
from stats import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
DEFAULT_SEED = 0
# A run, including a hung iteration, ends within three minutes.
DEADLINE_S = 170


class IterationFailed(RuntimeError):
    pass


def run_iteration(workload: str, seed: int, index: int, traced: bool,
                  timeout: float) -> dict:
    """One iteration in a fresh interpreter (its own process group, so a
    timeout also stops the pool workers it started)."""
    work_dir = OUT_DIR / f"{workload}-{os.getpid()}-{index}"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed),
        "--iteration", str(index), "--work-dir", str(work_dir),
    ]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise IterationFailed(f"iteration {index} timed out") from None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise IterationFailed(f"iteration {index} exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise IterationFailed(f"iteration {index} printed no result")
    result = json.loads(lines[-1])
    result["elapsed_s"] = perf_counter() - t0
    result["traced"] = traced
    return result


def iterate(workload: str, seed: int, seconds: float, trace: bool
            ) -> tuple[list[dict], str | None]:
    """At least two iterations, then more until the next one, expected to
    last as long as the median one so far, would end after ``seconds``.

    Two, so that one slow iteration is never a run's only sample.  With
    ``trace`` the iterations alternate untraced, traced, ...  An iteration
    that fails ends the run; its error is returned.
    """
    results: list[dict] = []
    t0 = perf_counter()
    while True:
        index = len(results)
        try:
            r = run_iteration(workload, seed, index, trace and index % 2 == 1,
                              DEADLINE_S - (perf_counter() - t0))
        except (IterationFailed, ValueError) as exc:
            return results, str(exc)
        results.append(r)
        expected = median([x["elapsed_s"] for x in results])
        if len(results) >= 2 and perf_counter() - t0 + expected > seconds:
            return results, None


def end_to_end(results: list[dict]) -> dict[str, float]:
    plain = [r for r in results if not r["traced"]]
    return {name: median([r[name] for r in plain]) for name, *_ in END_TO_END}


def per_layer(results: list[dict]) -> dict[str, float]:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    out = {}
    for name, *_ in PER_LAYER:
        out[name] = median([r["layers"].get(name, 0.0) for r in traced])
    base = median([r["setup_s"] + r["wall_s"] for r in plain])
    with_spans = median([r["setup_s"] + r["wall_s"] for r in traced])
    out["trace.overhead_pct"] = 100.0 * (with_spans - base) / base
    return out


def golden_failures(workload: str, seed: int, results: list[dict],
                    goldens: dict) -> tuple[int, list[str]]:
    """(attempted, failures) of the golden and repeatability checks."""
    attempted, failures = 0, []
    first = results[0]["digests"]
    for r in results[1:]:
        attempted += 1
        if r["digests"] != first:
            failures.append("outcome differs between iterations of one seed")
    if seed == DEFAULT_SEED:
        expected = goldens.get(workload, {}).get(str(seed))
        if expected is None:
            attempted += 1
            failures.append(f"no golden recorded for {workload} seed {seed}")
        else:
            for r in results:
                bad = compare(expected, r["digests"])
                attempted += len(set(expected) | set(r["digests"]))
                failures += [f"golden mismatch: {name}" for name in bad]
    return attempted, failures


def record_goldens(workload: str, seed: int, results: list[dict]) -> None:
    goldens = load_goldens()
    goldens.setdefault(workload, {})[str(seed)] = results[0]["digests"]
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_trace(workload: str, seed: int, results: list[dict]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            # A span's parent is an index into its own iteration's list.
            "iterations": [
                {"iteration": i, "spans": r["spans"],
                 "self_times": r["self_times"]}
                for i, r in enumerate(results) if r["traced"]
            ],
        }, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="perfbench: the repo benchmark")
    ap.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    ap.add_argument("--record-goldens", action="store_true",
                    help="store this seed's digests as the goldens")
    args = ap.parse_args(argv)

    if args.describe:
        print(describe())
        return 0
    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    results, error = iterate(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    if not results or (args.trace and not any(r["traced"] for r in results)):
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    if error is not None:
        attempted += 1
        failures.append(error)
    if args.record_goldens:
        record_goldens(args.workload, args.seed, results)
    else:
        n, bad = golden_failures(args.workload, args.seed, results,
                                 load_goldens())
        attempted += n
        failures += bad

    if args.trace:
        values = per_layer(results)
        units = {n: u for n, u, *_ in PER_LAYER}
        path = write_trace(args.workload, args.seed, results)
        traced = [r for r in results if r["traced"]]
        share = 1 - median([r["layers"]["trace.unattributed_s"]
                            / (r["setup_s"] + r["wall_s"]) for r in traced])
        print(f"perfbench: {share:.2%} of traced time in layer spans; "
              f"spans in {path}", file=sys.stderr)
    else:
        values = end_to_end(results)
        units = {n: u for n, u, *_ in END_TO_END}
    print(f"perfbench: {args.workload} seed {args.seed}: {len(results)} "
          f"iterations, {attempted} checks, {len(failures)} failed",
          file=sys.stderr)
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
