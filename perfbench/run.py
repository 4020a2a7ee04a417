"""Closed-loop benchmark of curcat: one client, one process, no threads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compat --seed 1 --seconds 15 --trace 0

Each op calls the package's public functions in-process on inputs generated
from the seed (see ``inputs.py``). A run repeats whole round-robin cycles of
size classes until the timed ops add up to ``--seconds`` and at least
MIN_OPS ops ran. Correctness checks run outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json. Set-up time (process start to the first timed op: import,
shared objects, one warm-up op) is measured in SETUP_PROBES fresh processes
and reported as their median. Times are reported in reference seconds: on a
shared host the CPU can switch between speeds up to 1.8x apart within
seconds, so every timed op and set-up probe is bracketed by readings of a
fixed pure-Python reference loop that uses no curcat code, and its wall time
is scaled by REF_NOMINAL_S over the reference time measured around it. The
result is the time the op would take on a machine that runs the reference
loop in REF_NOMINAL_S; a slower program still reads slower, a slower host
does not. The unscaled wall times are printed above the JSON line.

With ``--trace 1`` every cycle runs twice on the same inputs, once untraced
and once traced, in alternating order; the traced pass gives the per-layer
metrics and the ratio of the two passes gives the tracing overhead. Spans are written to
``.perfbench_out/spans-<workload>-<seed>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100
SETUP_PROBES = 9
# one reference reading is the median of REF_REPEATS passes of the loop;
# a pass takes 1.0 ms on a 2.0 GHz x86 VM core at its faster speed
REF_REPEATS = 5
REF_NOMINAL_S = 1e-3
# stop starting new cycles after this much wall time, whatever --seconds says
WALL_LIMIT_S = 120.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup",
        action="store_true",
        help="internal: set up, print 'ready' and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's own source first on the path and import it."""
    if not (SRC / "curcat" / "__init__.py").is_file():
        raise SystemExit(f"error: no curcat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import curcat

    if Path(curcat.__file__).resolve().parent != (SRC / "curcat").resolve():
        raise SystemExit(f"error: imported curcat from {curcat.__file__}, not from {SRC}")
    import inputs
    import workloads

    return inputs, workloads


def _reference_pass() -> None:
    """Exact fraction arithmetic, tuple-keyed dicts and a sort: the kind of
    interpreter work curcat does, written without curcat."""
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 120):
        q = Fraction(i, i + 3) * Fraction(2 * i - 1, 7)
        acc += q
        table[(i % 13, i % 5)] = table.get((i % 13, i % 5), Fraction(0)) + q
    rows = [[Fraction(r * c + 1, r + c + 1) for c in range(8)] for r in range(8)]
    rows.sort(key=lambda row: row[3])


def reference_s() -> float:
    """Median wall time of one reference pass, with the garbage collector
    off so that garbage left by the program does not land in it."""
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            _reference_pass()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def scaled(wall_s: float, refs: list[float]) -> float:
    """Wall time in reference seconds, from the readings taken around it."""
    return wall_s * REF_NOMINAL_S / statistics.mean(refs)


def _probe_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Time from starting a fresh process until it reports ready, without
    the time its reference readings took, as (wall seconds, reference
    seconds). The readings are taken in the probe process, since it need
    not run on the same core as this one."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.wait(timeout=60)
        proc.stdout.close()
    if len(line) != 4 or line[0] != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
    ref_start, ref_end, ref_time = map(float, line[1:])
    wall = elapsed - ref_time
    return wall, scaled(wall, [ref_start, ref_end])


def _probe_child(workload: str) -> int:
    """Set up as a measured run does (import, shared objects, the warm-up
    op) between two reference readings, and print ``ready`` with the two
    readings and the wall time they took."""
    mark = time.perf_counter()
    ref_start = reference_s()
    ref_time = time.perf_counter() - mark
    inputs, workloads = _import_program()
    wl = workloads.WORKLOADS[workload]
    wl.run(wl.setup(), inputs.warmup_item(workload))
    mark = time.perf_counter()
    ref_end = reference_s()
    ref_time += time.perf_counter() - mark
    print(f"ready {ref_start!r} {ref_end!r} {ref_time!r}", flush=True)
    return 0


class Runner:
    """Runs ops, times them, checks them, and tallies failures."""

    def __init__(self, wl, shared):
        self.wl = wl
        self.shared = shared
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, item, before=None, after=None):
        """Run one op between the optional hooks; returns (seconds, digest),
        the digest being None when the op failed."""
        self.attempted += 1
        if before is not None:
            before()
        start = time.perf_counter()
        try:
            output = self.wl.run(self.shared, item)
            problem = None
        except Exception as exc:  # a raising op counts as failed
            problem = f"raised {exc!r}"
        finally:
            elapsed = time.perf_counter() - start
            if after is not None:
                after()
        digest = None
        if problem is None:
            try:
                problem = self.wl.check(self.shared, item, output)
                digest = self.wl.digest(output)
            except Exception as exc:  # a raising check counts as failed
                problem = f"check raised {exc!r}"
        if problem is not None:
            self.failures.append(f"{item}: {problem}")
            digest = None
        return elapsed, digest


def measure(runner, inputs, workload, seed, seconds):
    """Untraced closed loop over whole cycles; returns the wall times of the
    ops, the same in reference seconds, and the number of cycles."""
    rng = inputs.make_rng(workload, seed)
    wall_times: list[float] = []
    op_times: list[float] = []
    cycles = 0
    wall_start = time.perf_counter()
    while True:
        for item in inputs.cycle(workload, rng):
            refs: list[float] = []
            elapsed = runner.op(
                item, lambda: refs.append(reference_s()), lambda: refs.append(reference_s())
            )[0]
            wall_times.append(elapsed)
            op_times.append(scaled(elapsed, refs))
        cycles += 1
        done = sum(wall_times) >= seconds and len(op_times) >= MIN_OPS
        if done or time.perf_counter() - wall_start > WALL_LIMIT_S:
            return wall_times, op_times, cycles


def end_to_end_metrics(op_times, setup_samples, runner):
    """The end-to-end metrics from op times and set-up times, in whatever
    unit of time they are given."""
    # Throughput is a mean over whole cycles, not a median of cycle times.
    deciles = statistics.quantiles(op_times, n=10)
    return {
        "ops_per_s": len(op_times) / sum(op_times),
        "op_s.p50": statistics.median(op_times),
        "op_s.p90": deciles[8],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - len(runner.failures) / runner.attempted,
        "failed_frac": len(runner.failures) / runner.attempted,
    }


def measure_traced(runner, inputs, workload, seed, seconds, tracer):
    """Each op runs untraced and traced on the same input, back to back and
    in alternating order; the traced output must equal the untraced one."""
    rng = inputs.make_rng(workload, seed)
    totals = {False: 0.0, True: 0.0}
    traced_ops = 0
    wall_start = time.perf_counter()
    while True:
        for item in inputs.cycle(workload, rng):
            digests = {}
            for traced in ((False, True) if traced_ops % 2 == 0 else (True, False)):
                if traced:
                    tracer.begin_op(traced_ops)
                    elapsed, digests[True] = runner.op(item, tracer.enable, tracer.disable)
                else:
                    elapsed, digests[False] = runner.op(item)
                totals[traced] += elapsed
            traced_ops += 1
            if digests[False] is not None and digests[False] != digests[True]:
                runner.failures.append(f"{item}: traced output differs from untraced")
        done = totals[False] + totals[True] >= seconds
        if done or time.perf_counter() - wall_start > WALL_LIMIT_S:
            return totals, traced_ops


def per_layer_metrics(tracer, totals, traced_ops) -> dict[str, float]:
    sums: dict[str, float] = defaultdict(float)
    for per_op in tracer.self_times().values():
        for key, value in per_op.items():
            sums[key] += value
    for per_op in tracer.counters.values():
        for key, value in per_op.items():
            sums[key] += value

    def ratio(num, den):
        return sums[num] / sums[den] if sums[den] else 0.0

    metrics = {key: value / traced_ops for key, value in sums.items()}
    metrics["diagrams.compose.zero_operand_frac"] = ratio(
        "diagrams.compose.zero_operand", "diagrams.compose.calls"
    )
    metrics["exact.rref.rank_per_row"] = ratio("exact.rref.rank", "exact.rref.rows")
    metrics["exact.rref.repeat_frac"] = ratio("exact.rref.repeat", "exact.rref.calls")
    metrics["exact.solve_affine.repeat_lhs_frac"] = ratio(
        "exact.solve_affine.repeat_lhs", "exact.solve_affine.calls"
    )
    metrics["op.traced_s"] = totals[True] / traced_ops
    metrics["trace.overhead_frac"] = totals[True] / totals[False] - 1
    return metrics


def load_lines(metrics: dict[str, float]) -> list[str]:
    """Share of traced op time spent in each module's traced functions."""
    op_s = metrics["op.traced_s"]
    shares: dict[str, float] = defaultdict(float)
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            shares[key.split(".", 1)[0]] += value / op_s
    lines = [f"load {module:<12} {share:8.1%} of traced op time"
             for module, share in sorted(shares.items(), key=lambda kv: -kv[1])]
    top = sorted(
        ((value / op_s, key[: -len(".self_s")]) for key, value in metrics.items()
         if key.endswith(".self_s")),
        reverse=True,
    )[:6]
    lines += [f"self {name:<45} {share:8.1%}" for share, name in top]
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.probe_setup:
        return _probe_child(args.workload)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    if args.trace:
        declared = config["per_layer"]
        from tracer import Tracer

        setup_probes = None
    else:
        declared = config["end_to_end"]
        setup_probes = [_probe_setup_s(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    shared = wl.setup()
    runner = Runner(wl, shared)
    runner.op(inputs.warmup_item(args.workload))  # checked and counted, not timed

    if args.trace:
        tracer = Tracer()
        totals, traced_ops = measure_traced(
            runner, inputs, args.workload, args.seed, args.seconds, tracer
        )
        metrics = per_layer_metrics(tracer, totals, traced_ops)
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write_spans(spans_path)
        print(f"workload={args.workload} seed={args.seed} traced_ops={traced_ops} "
              f"spans={len(tracer.span_name)} written to {spans_path.relative_to(ROOT)}")
        for line in load_lines(metrics):
            print(line)
    else:
        wall_times, op_times, cycles = measure(
            runner, inputs, args.workload, args.seed, args.seconds
        )
        metrics = end_to_end_metrics(op_times, [s for _, s in setup_probes], runner)
        wall = end_to_end_metrics(wall_times, [w for w, _ in setup_probes], runner)
        print(f"workload={args.workload} seed={args.seed} ops={len(op_times)} "
              f"cycles={cycles} timed_s={sum(wall_times):.3f} setup_probes={SETUP_PROBES} "
              f"host_speed={sum(op_times) / sum(wall_times):.3f} (reference s per wall s)")
        print("wall-clock, unscaled: " + " ".join(
            f"{name}={wall[name]:.6g}" for name in ("ops_per_s", "op_s.p50", "op_s.p90", "setup_s")))

    for failure in runner.failures[:10]:
        print(f"FAILED {failure}")
    units = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        units["failed_frac"] = "frac"
    for name, unit in units.items():
        print(f"{name:<50} {metrics.get(name, 0.0):>14.6g} {unit}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
