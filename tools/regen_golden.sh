#!/usr/bin/env bash
# Regenerate the golden-stats corpus (tests/golden/*_dx100.json and
# tests/golden/*_dmp.json), the memory controller's command-order golden
# (tests/golden/controller_order.txt), the Row Table's insert/drain
# golden (tests/golden/row_table_order.txt), the DMP prefetcher's
# prefetch-order golden (tests/golden/dmp_order.txt), the core's
# commit-order golden (tests/golden/core_order.txt) and the fig09
# bench references (tests/golden/fig09_stdout.txt,
# tests/golden/BENCH_fig09.json). The fig09 references come from the
# command the release-bit-identity CI job checks them with; that job
# builds with -DCMAKE_BUILD_TYPE=Release -DDX_WERROR=ON.
#
# Run this after an *intended* behavioral change, then review the
# corpus diff like any other code change — every changed field is a
# claim that the new number is the right one.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=$(realpath "${1:-build}")
GOLDEN=$(pwd)/tests/golden

cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_golden_stats \
    test_controller test_row_table test_runtime_and_units test_core \
    fig09_speedup
DX_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_golden_stats"
DX_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_controller" \
    --gtest_filter='ControllerGolden.*'
DX_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_row_table" \
    --gtest_filter='RowTableGolden.*'
DX_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_runtime_and_units" \
    --gtest_filter='DmpGolden.*'
DX_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_core" \
    --gtest_filter='CoreGolden.*'

RUN_DIR=$(mktemp -d)
trap 'rm -rf "$RUN_DIR"' EXIT
(cd "$RUN_DIR" &&
    "$BUILD_DIR/bench/fig09_speedup" --jobs=2 --scale=0.05 --json \
        > "$GOLDEN/fig09_stdout.txt" &&
    cp BENCH_fig09.json "$GOLDEN/BENCH_fig09.json")

echo
echo "Corpus regenerated. Review with: git diff tests/golden/"
