#!/usr/bin/env python3
"""Repository benchmark: host time of whole figure sweeps of the simulator.

    python3 perfbench/run.py --workload paper12|allmiss|dmp12 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (the sweep driver
plus the simulator library from src/) in Release mode under
.bench_build/, runs the sweep of the chosen workload again and again for
S seconds, checks every cell, and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}.

Workloads (one figure sweep each, cells run one after another):
  paper12  Fig. 9: the 12 paper workloads on the baseline and the DX100
           system at scale 0.05 (24 cells).
  allmiss  Fig. 8(b,c): all-miss Gather-Full over seven DRAM index
           orders, baseline and DX100 (14 cells).
  dmp12    Fig. 12: the 12 paper workloads with the DMP indirect
           prefetcher (12 cells).

A cell is attempted once per sweep. It fails when the workload's own
check of its output fails, when the simulator reports a fatal error, or
when its simulated stats differ from the same cell in an earlier sweep
(the simulator is deterministic).

--trace 0 reports the end-to-end metrics, built from each cell's median
host time over the sweeps of the run: sweep_s (wall time of one sweep)
and setup_s (building systems and workload inputs). --trace 1 reports per-layer metrics instead: host time
of each phase of a cell summed over the sweep, host ns per simulated
cycle, and simulated work counted by the stat registry. It also writes
the phase spans as a Chrome trace-event file (viewable in Perfetto) to
.bench_build/trace-<workload>-seed<N>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"

WORKLOADS = ("paper12", "allmiss", "dmp12")

PHASES = ("build", "init", "kernels", "simulate", "verify", "teardown")
SETUP_PHASES = ("build", "init", "kernels")

BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 110


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}")
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {cmd[:2]} exited with {r.returncode}")
    return BUILD / "perfbench"


def run_driver(exe, args):
    cmd = [str(exe), "--sweep", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--counts")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds + RUN_SLACK_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"sweep driver failed: {e}")
    if r.returncode != 0:
        fail(f"sweep driver exited with {r.returncode}")
    return [json.loads(line) for line in r.stdout.splitlines() if line]


def cell_ok(rec, reference):
    """Checks one cell record; reference maps cell name -> first stats."""
    if not rec.get("ok"):
        print(f"perfbench: cell {rec['cell']} sweep {rec['sweep']} failed:"
              f" {rec.get('error', 'output check failed')}", file=sys.stderr)
        return False
    stats = rec["stats"]
    on_dx100 = rec["cell"].endswith("/dx100")
    if stats["cycles"] <= 0 or (stats["dxInstructions"] > 0) != on_dx100:
        print(f"perfbench: cell {rec['cell']} has implausible stats {stats}",
              file=sys.stderr)
        return False
    first = reference.setdefault(rec["cell"], stats)
    if first != stats:
        print(f"perfbench: cell {rec['cell']} sweep {rec['sweep']} differs"
              f" from its first run: {stats} vs {first}", file=sys.stderr)
        return False
    return True


def write_trace(records, path):
    """Cell and phase spans as Chrome trace events (times in us)."""
    events = []
    for rec in records:
        if "start_s" not in rec:
            continue
        t = rec["start_s"] * 1e6
        events.append({"name": rec["cell"], "cat": "cell", "ph": "X",
                       "ts": t, "pid": 1, "tid": 1,
                       "dur": sum(rec[p + "_s"] for p in PHASES) * 1e6,
                       "args": {"sweep": rec["sweep"]}})
        for p in PHASES:
            dur = rec[p + "_s"] * 1e6
            events.append({"name": p, "cat": "phase", "ph": "X", "ts": t,
                           "dur": dur, "pid": 1, "tid": 1,
                           "args": {"cell": rec["cell"]}})
            t += dur
    path.write_text(json.dumps({"traceEvents": events}))


def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(records, args):
    """Returns (attempted, failed, metrics); metrics use clean sweeps."""
    # The driver prints a line for every cell it attempts, failed or not.
    expected = len({rec["cell"] for rec in records})
    sweeps = {}
    for rec in records:
        sweeps.setdefault(rec["sweep"], []).append(rec)

    attempted = expected * len(sweeps)
    failed = 0
    reference = {}
    clean = []
    for cells in sweeps.values():
        good = [c for c in cells if cell_ok(c, reference)]
        failed += expected - len(good)
        if len(good) == expected:
            clean.append(good)
    if not clean:
        return attempted, failed, {}

    # Host times are per-cell medians over the sweeps, then summed: a
    # slow moment of the host shifts one sample of a few cells, not the
    # result.
    runs_of_cell = {}
    for cells in clean:
        for c in cells:
            runs_of_cell.setdefault(c["cell"], []).append(c)

    def cell_medians(seconds_of):
        return [statistics.median(map(seconds_of, runs))
                for runs in runs_of_cell.values()]

    def phases_s(phases):
        return lambda c: sum(c[p + "_s"] for p in phases)

    if not args.trace:
        return attempted, failed, {
            "sweep_s": metric(sum(cell_medians(phases_s(PHASES))), "s"),
            "setup_s": metric(sum(cell_medians(phases_s(SETUP_PHASES))),
                              "s"),
        }

    metrics = {f"{p}_s": metric(sum(cell_medians(phases_s((p,)))), "s")
               for p in PHASES}
    # Simulated work is identical in every clean sweep.
    cycles = sum(c["stats"]["cycles"] for c in clean[0])
    metrics["sim_ns_per_cycle"] = metric(
        metrics["simulate_s"]["value"] * 1e9 / cycles, "ns")
    work = {k: sum(c["counts"][k] for c in clean[0])
            for k in clean[0][0]["counts"]}
    metrics["sim_cycles"] = metric(cycles, "cycles")
    for k, v in work.items():
        metrics[k] = metric(v, "count")
    metrics["dx_words_per_column"] = metric(
        work["dx_words"] / work["dx_columns"] if work["dx_columns"] else 0.0,
        "words/column")
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    exe = build()
    records = run_driver(exe, args)
    attempted, failed, metrics = summarize(records, args)
    if args.trace:
        trace = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(records, trace)
        print(f"perfbench: wrote {trace}", file=sys.stderr)
    if not metrics:
        fail("no sweep completed without failures")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
