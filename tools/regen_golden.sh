#!/usr/bin/env bash
# Regenerate the golden-stats corpus (tests/golden/*.json) and the
# memory controller's command-order golden (tests/golden/controller_order.txt).
#
# Run this after an *intended* behavioral change, then review the
# corpus diff like any other code change — every changed field is a
# claim that the new number is the right one.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}

cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_golden_stats \
    test_controller
DX_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_golden_stats"
DX_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_controller" \
    --gtest_filter='ControllerGolden.*'

echo
echo "Corpus regenerated. Review with: git diff tests/golden/"
