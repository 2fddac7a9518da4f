"""Benchmark of the borderbasis library: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh interpreters
(``bench.py``) with BLAS and OpenMP held to one thread; this process starts
them one at a time and only aggregates.  With ``--trace 0`` one interpreter
measures, and SETUP_PROBES more, half started before it and half after,
stop at the first timed call, so ``setup_s`` is a median of set-ups spread
over the run.  With ``--trace 1`` a single interpreter gives the per-layer
figures.  Every timing is scaled to a reference host speed, measured by a
fixed loop in the same interpreter while the timed work runs
(``bench.HostSpeed``); the first line gives the loop's raw median time.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
figures for people, together with ``fail_ratio`` and the sample counts.  Workloads and their reasons are
in ``inputs.py``; the metric list is in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
DEADLINE_S = 170  # the whole benchmark must end within 180 s
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it
TAIL_MIN_SAMPLES = 40  # below this (percentile < 75) the maximum is reported


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def run_child(args, deadline, setup_only):
    """Run bench.py once; (its report, monotonic time it was started)."""
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{args.workload}: benchmark process exceeded the time limit")
    except BaseException:  # interrupted: never leave the child running
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: benchmark process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def tail(samples):
    """(value, label): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], f"max of {n}"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100 * (k + 1) / n:.1f} of {n}"


def end_to_end(report, setups):
    systems, queries = report["samples"]["system"], report["samples"]["query"]
    sys_tail, sys_label = tail(systems)
    nf_tail, nf_label = tail(queries)
    metrics = {
        "system_s.p50": (statistics.median(systems), "s", f"median of {len(systems)}"),
        "system_s.tail": (sys_tail, "s", sys_label),
        "systems_per_s": (len(systems) / sum(systems), "1/s", f"{len(systems)} systems"),
        "nf_per_s": (len(queries) / sum(queries), "1/s", f"{len(queries)} queries"),
        "nf_ms.p50": (1000 * statistics.median(queries), "ms", f"median of {len(queries)}"),
        "nf_ms.tail": (1000 * nf_tail, "ms", nf_label),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", "measuring process"),
    }
    return metrics


LAYER_UNITS = {"mnacr_max": "1", "condition_max": "1", "nf_zero_ratio": "ratio", "overhead_ratio": "ratio"}


def layers(report):
    metrics = {}
    for name, value in report["layers"].items():
        leaf = name.split(".", 1)[1]
        unit = "s" if leaf.endswith("_s") else LAYER_UNITS.get(leaf, "count")
        metrics[name] = (value, unit, "")
    metrics["host.ref_ms"] = (report["ref_ms"], "ms", "raw: the host's speed during the run")
    traced, untraced = report["traced_samples"]["system"], report["samples"]["system"]
    ratio = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.overhead_ratio"] = (
        ratio, "ratio", f"median system time traced/untraced, {len(traced)}/{len(untraced)} samples"
    )
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="borderbasis benchmark (one workload)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "borderbasis" / "__init__.py").is_file():
        raise SystemExit(f"no library sources under {ROOT / 'src'}; run from a full checkout")

    deadline = time.monotonic() + DEADLINE_S
    probes = 0 if args.trace else SETUP_PROBES
    runs = [run_child(args, deadline, setup_only=True) for _ in range(probes // 2)]
    runs.append(run_child(args, deadline, setup_only=False))
    measured = runs[-1][0]
    runs += [run_child(args, deadline, setup_only=True) for _ in range(probes - probes // 2)]
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    if args.trace:
        metrics = layers(measured)
    else:
        setups = [r["setup_scale"] * (r["setup_end"] - started) for r, started in runs]
        metrics = end_to_end(measured, setups)

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"(host's reference loop {measured['ref_ms']:.3f} ms, median)"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:30s} {value:>14.6g} {unit:6s} {note}")
    print(f"  {'fail_ratio':30s} {failed / attempted:>14.6g} ratio  {failed} of {attempted} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
