#!/usr/bin/env bash
# Perf smoke for the quiescence-aware tick scheduler.
#
# Builds a Release tree in build-perf/ and times fig08bc, fig09 and
# fig14 twice — under the naive per-cycle loop (DX_NAIVE_TICK=1) and
# under the quiescence-aware scheduler — at --scale=0.05, keeps the min
# over 3 repetitions (single-run wall clock is noisy on shared CI
# runners), and then:
#
#   1. fails if the two runs' BENCH_*.json stats differ by a single
#      bit (the scheduler must be invisible in every figure), and
#   2. fails if any bench got slower than 1.0x.
#
# Artifacts: BENCH_<fig>_naive.json / BENCH_<fig>_sched.json plus a
# perf_smoke_summary.txt table, all in the repo root.
#
# Usage: tools/perf_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-perf
SCALE=0.05
REPS=3
MIN_SPEEDUP=1.0
# target:jsonName pairs (jsonName is what --json writes as BENCH_<x>.json)
BENCHES="fig08bc_microbench_allmiss:fig08bc fig09_speedup:fig09 fig14_scalability:fig14"

targets=""
for b in $BENCHES; do targets="$targets ${b%%:*}"; done

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
# shellcheck disable=SC2086 # word-split the target list on purpose
cmake --build "$BUILD_DIR" -j "$(nproc)" --target $targets

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

# run_bench <binary> <jsonName> <mode: naive|sched>
# Prints min elapsed ms; leaves BENCH_<jsonName>_<mode>.json behind.
run_bench() {
    local bin=$1 json=$2 mode=$3 best= t0 t1 dt rep
    for rep in $(seq "$REPS"); do
        t0=$(now_ms)
        if [ "$mode" = naive ]; then
            DX_NAIVE_TICK=1 "$bin" --scale="$SCALE" --json > /dev/null
        else
            DX_NAIVE_TICK=0 "$bin" --scale="$SCALE" --json > /dev/null
        fi
        t1=$(now_ms)
        dt=$((t1 - t0))
        if [ -z "$best" ] || [ "$dt" -lt "$best" ]; then
            best=$dt
        fi
    done
    mv "BENCH_${json}.json" "BENCH_${json}_${mode}.json"
    echo "$best"
}

fail=0
summary=perf_smoke_summary.txt
printf '%-30s %10s %10s %8s\n' bench naive_ms sched_ms speedup > "$summary"

for b in $BENCHES; do
    target=${b%%:*} json=${b##*:}
    bin="$BUILD_DIR/bench/$target"
    naive_ms=$(run_bench "$bin" "$json" naive)
    sched_ms=$(run_bench "$bin" "$json" sched)

    if ! cmp -s "BENCH_${json}_naive.json" "BENCH_${json}_sched.json"; then
        echo "FAIL: $target stats differ between tick schedulers:" >&2
        diff "BENCH_${json}_naive.json" "BENCH_${json}_sched.json" >&2 || true
        fail=1
    fi

    ratio=$(awk -v n="$naive_ms" -v s="$sched_ms" \
        'BEGIN { printf "%.2f", (s > 0 ? n / s : 0) }')
    printf '%-30s %10s %10s %7sx\n' \
        "$target" "$naive_ms" "$sched_ms" "$ratio" | tee -a "$summary"
    if awk -v r="$ratio" -v m="$MIN_SPEEDUP" 'BEGIN { exit !(r < m) }'; then
        echo "FAIL: $target speedup ${ratio}x < required ${MIN_SPEEDUP}x" >&2
        fail=1
    fi
done

exit "$fail"
