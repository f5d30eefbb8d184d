"""Run one workload of the wordcomplex benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout: it builds nothing and imports the
program from the checkout's `src`. The workload runs in a process of its
own (see worker.py). With `--trace 0` the last line of standard output
carries the end-to-end metrics, with `--trace 1` the per-layer ones; a
fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh processes timed for setup_s, after one warm-up: half before the
# workload and half after it, so that a slow spell of a few seconds on the
# shared host moves fewer of them.
SETUP_PROBES = 20


def worker_timeout_s(seconds: int) -> int:
    """Time a worker may take: the run, plus a last round that overruns it
    fourfold, plus a margin for set-up and the oracles."""
    return 4 * seconds + 30


def worker(args: argparse.Namespace, *extra: str) -> dict:
    """Run worker.py once and return the JSON object it prints last."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    # fixed string hashing, so that set orders and counts repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=worker_timeout_s(args.seconds),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wordcomplex benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wordcomplex" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'wordcomplex'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    def setup_probes(n: int) -> list[float]:
        return [worker(args, "--setup-only")["setup_s"] for _ in range(n)]

    try:
        if not args.trace:
            setup_probes(1)  # also compiles the bytecode caches; not counted
            setups = setup_probes(SETUP_PROBES // 2)
        out = worker(args)
        if not args.trace:
            setups += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if not args.trace:
        setups.append(out["detail"]["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        out["detail"]["setup_samples_s"] = setups
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} are not those BENCHMARK.json declares, "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "detail": out["detail"]}, indent=1) + "\n")
    print(f"detail: {json.dumps(out['detail'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
