#!/usr/bin/env bash
# Builds the repo with ThreadSanitizer (-DSPATIAL_SANITIZE=thread) into a
# dedicated build directory and runs the concurrency-sensitive tests: the
# query-service unit tests, the read-only stress test that checks
# byte-identical results against single-threaded KnnSearch, the
# serving-mode stress test (concurrent writes + snapshot-pinned readers),
# the sharded scatter-gather stress test (concurrent router calls with
# shared prune-bound streaming + live metrics scraping), the advanced
# query kinds' cross-shard merge paths (reverse-kNN verification rounds,
# skyline re-merge, approx contract merge), the resident tier's
# publish/invalidate/recompile-under-write-load race coverage, the
# distributed-trace test (sampled scatter-gather over RPC with concurrent
# remote admin scrapes against the live trace log), the inline scatter
# test (nearest-first kNN on the caller's thread, inline lanes), and the
# batch scatter test (owner-first batches: per-query bounds shared between
# one shard's phase-1 worker and the other shards' phase-2 workers).
#
# Usage: tools/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DSPATIAL_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target query_service_test service_stress_test serving_stress_test \
  io_stats_test obs_metrics_test metrics_scrape_test shard_stress_test \
  resident_tree_test advanced_shard_test distributed_trace_test \
  inline_scatter_test batch_scatter_test

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
for t in io_stats_test obs_metrics_test query_service_test \
         service_stress_test shard_stress_test resident_tree_test \
         advanced_shard_test distributed_trace_test inline_scatter_test \
         batch_scatter_test; do
  echo "=== TSan: $t ==="
  "$BUILD_DIR/tests/$t"
done
for t in serving_stress_test metrics_scrape_test; do
  echo "=== TSan: $t --smoke ==="
  "$BUILD_DIR/tests/$t" --smoke
done
echo "=== TSan: all concurrency tests clean ==="
