#!/usr/bin/env bash
# Builds the repo with AddressSanitizer + UndefinedBehaviorSanitizer
# (-DSPATIAL_SANITIZE=address+undefined) into a dedicated build directory
# and runs the memory-sensitive tests. The SIMD kernel suite runs once per
# SPATIAL_FORCE_KERNEL tier, so out-of-bounds plane loads, misaligned
# vector stores, and padding-lane overruns in any tier's kernels are caught
# mechanically rather than by inspection; zero_alloc_test rides along
# because it stresses the same staging arenas the kernels write into, and
# the metrics/knn/join tests cover the traversals that drive them. The
# inline scatter test covers the router's reused per-thread answer slots,
# the batch scatter test the owner-first batch's per-thread bound arrays
# and slice cursors, and the wire test the iovec frame send.
#
# Usage: tools/asan_check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

TESTS=(metrics_test metrics_reference_test simd_kernel_test knn_test
       knn_property_test spatial_join_test zero_alloc_test
       resident_tree_test advanced_query_test inline_scatter_test
       batch_scatter_test net_wire_test)

cmake -B "$BUILD_DIR" -S . -DSPATIAL_SANITIZE=address+undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

for tier in scalar sse2 avx2; do
  echo "=== ASan+UBSan: simd_kernel_test (SPATIAL_FORCE_KERNEL=$tier) ==="
  SPATIAL_FORCE_KERNEL="$tier" "$BUILD_DIR/tests/simd_kernel_test"
done
for t in "${TESTS[@]}"; do
  [[ "$t" == simd_kernel_test ]] && continue
  echo "=== ASan+UBSan: $t ==="
  "$BUILD_DIR/tests/$t"
done
echo "=== ASan+UBSan: all memory-sensitive tests clean ==="
