#!/usr/bin/env bash
# Append one entry to the tracked perf trajectory, perf/BENCH_perf.json.
#
# Runs the repository benchmark (perfbench/run.py, which builds a
# Release perfbench under .bench_build/) on paper12, allmiss and dmp12,
# each for 30 s (the benchmark's run length) at seed 0 with the
# end-to-end metrics (--trace 0), then appends the commit, build type,
# host and each workload's sweep_s and setup_s to the JSON list in
# perf/BENCH_perf.json. Every entry is measured the same way, so the
# entries stay comparable. The file is tracked, so the trajectory of
# the simulator's host time lives next to the code that produced it.
#
# Usage: tools/bench_trajectory.sh
#        Run it on a clean checkout of the commit to record: it refuses
#        a tree with uncommitted changes to tracked files (other than
#        perf/BENCH_perf.json itself), whose measurement would belong
#        to no commit.
set -euo pipefail
cd "$(dirname "$0")/.."

SECS=30
SEED=0
WORKLOADS="paper12 allmiss dmp12"
OUT=perf/BENCH_perf.json

if [ -n "$(git status --porcelain --untracked-files=no -- . ":!$OUT")" ]; then
    echo "bench_trajectory: tracked files have uncommitted changes;" \
         "commit them or run on a clean checkout" >&2
    exit 1
fi
COMMIT=$(git rev-parse --short HEAD)

results=""
for w in $WORKLOADS; do
    line=$(python3 perfbench/run.py --workload "$w" --seed "$SEED" \
        --seconds "$SECS" --trace 0 | tail -n 1)
    results="$results$w $line"$'\n'
done

mkdir -p perf
RESULTS="$results" python3 - "$OUT" "$COMMIT" "$SECS" "$SEED" <<'EOF'
import datetime, json, os, platform, sys

out, commit, secs, seed = sys.argv[1:5]
cpu = platform.processor() or platform.machine()
try:
    with open("/proc/cpuinfo") as f:
        cpu = next(l.split(":", 1)[1].strip() for l in f
                   if l.startswith("model name"))
except (OSError, StopIteration):
    pass

workloads = {}
for line in os.environ["RESULTS"].splitlines():
    name, _, rec = line.partition(" ")
    r = json.loads(rec)
    workloads[name] = {
        "sweep_s": r["metrics"]["sweep_s"]["value"],
        "setup_s": r["metrics"]["setup_s"]["value"],
        "correct": r["correct"],
        "failed": r["failed"],
        "attempted": r["attempted"],
    }

entry = {
    "commit": commit,
    "date": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "build_type": "Release",
    "host": {"cpu": cpu, "cores": os.cpu_count(),
             "system": platform.system()},
    "seconds": int(secs),
    "seed": int(seed),
    "workloads": workloads,
}
entries = []
if os.path.exists(out):
    with open(out) as f:
        entries = json.load(f)
entries.append(entry)
with open(out, "w") as f:
    json.dump(entries, f, indent=2)
    f.write("\n")
print(json.dumps(entry))
EOF
