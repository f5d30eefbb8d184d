"""Steadiness check: run the benchmark repeatedly on one commit and report
each end-to-end metric's spread against its bound.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads hard_homology
    python3 perfbench/steady.py --traced 2           # also compare traced counts

The spread is the distance between the first and third quartile of the
runs' values (statistics.quantiles, n=4) as a share of their median. A
metric, setup_s included, is steady when its spread is within its bound
from BENCHMARK.json; the target is a third of the bound. The runs use
seeds 1, 2, ... and the run length from BENCHMARK.json. With --traced N,
N traced runs on different seeds must agree exactly on every per-layer
count. Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)

    ok = True
    summary = {}
    for workload in args.workloads:
        seeds = range(1, args.runs + 1)
        results = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"correct {correct}, failed shares {sorted(shares)}")
        ok &= correct and len(shares) == 1
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3, s = spread(values)
            held = s <= bound
            ok &= held
            verdict = "ok" if s <= bound / 3 else ("within bound" if held else "TOO WIDE")
            print(f"  {name:16s} median {med:12.4f} {metric['unit']:4s} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {s:7.2%} bound {bound:.0%}  {verdict}")
            rows[name] = {"values": values, "median": med, "spread": s, "bound": bound}
        summary[workload] = rows
        if args.traced:
            traced = [run_once(workload, s, spec["run_seconds"], 1) for s in seeds[: args.traced]]
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
                for r in traced
            ]
            same = all(c == counts[0] for c in counts)
            ok &= same and all(r["correct"] for r in traced)
            print(f"  traced: {len(traced)} runs, counts repeat exactly: {same}")
            for k, v in traced[0]["metrics"].items():
                print(f"    {k:36s} {v['value']:14.6g} {v['unit']}")
            summary[workload]["traced"] = [r["metrics"] for r in traced]
    out = HERE / "results" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
