"""The benchmark's own test: every workload, small seed, twice.

    python3 perfbench/check_determinism.py [--seed N]

For each workload it makes two traced runs (two rounds each, the first
traced) and one untraced run of one round (``--seconds 1``) and fails
unless no operation failed -- so every output matched its stored digest --
and every deterministic per-layer figure (all but the timings, the host's
speed and the tracing overhead) is identical between the two traced runs.
Takes about two minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def deterministic(metrics):
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] not in ("s", "ms") and name != "trace.overhead_ratio"
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, args.seed, 1), run(workload, args.seed, 1), run(workload, args.seed, 0)]
        for r in runs:
            if r["failed"] or not r["correct"]:
                problems.append(f"{workload}: {r['failed']} of {r['attempted']} operations failed")
        first, second = (deterministic(r["metrics"]) for r in runs[:2])
        for name in sorted(first):
            if first[name] != second[name]:
                problems.append(f"{workload}: {name} differs between runs: {first[name]} vs {second[name]}")
        print(f"{workload}: {len(first)} deterministic figures compared", flush=True)
    for p in problems:
        print("FAIL", p)
    if problems:
        raise SystemExit(1)
    print("ok: no failures, digests matched, counts identical")


if __name__ == "__main__":
    main()
