"""Run-to-run spread of the end-to-end metrics, the figure each bound is set from.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --seeds 10 [--workloads compat solve] [--out FILE]

For every workload it runs the benchmark once per seed (seeds 1..N, one
run at a time) and reports, per end-to-end metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, next to the metric's
bound. A spread below a third of the bound is the target. With ``--out``
the summary is also written as JSON together with the git revision, the
core count, the Python version and the wall time of each run (``run_wall_s``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_once(config: dict, workload: str, seed: int) -> dict:
    cmd = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0",
    ]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    wall_s = time.perf_counter() - start
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall_s


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for workload in names:
        runs = []
        walls = []
        for seed in range(1, args.seeds + 1):
            metrics, wall_s = run_once(config, workload, seed)
            runs.append(metrics)
            walls.append(wall_s)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in metrics.items()) + f" run_wall_s={wall_s:.1f}", flush=True)
        summary[workload] = {"run_wall_s": spread(walls)}
        for metric, bound in bounds.items():
            s = spread([r[metric] for r in runs])
            s["bound"] = bound
            summary[workload][metric] = s
            flag = "ok" if s["iqr_frac"] < bound / 3 else "WIDE"
            print(f"  {metric:<12} median {s['median']:.4g}  iqr/median {s['iqr_frac']:.3f}"
                  f"  bound {bound}  {flag}", flush=True)
    record = {
        "revision": _revision(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": config["run_seconds"],
        "seeds": args.seeds,
        "workloads": summary,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
