#ifndef SPATIAL_TESTS_OWNER_FIRST_H_
#define SPATIAL_TESTS_OWNER_FIRST_H_

// The router's owner-first batch kNN rules, restated independently of the
// router for the tests that check its accounting (docs/SHARDING.md
// "Owner-first batch kNN").

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/metrics.h"
#include "shard/shard_set.h"

namespace spatial {

// The shard owning query `q`: nearest tile by MINDIST, ties to the lower
// index, empty tiles last.
template <int D>
uint32_t OwnerShard(const ShardSet<D>& set, const Point<D>& q) {
  uint32_t best = 0;
  double best_sq = std::numeric_limits<double>::infinity();
  for (uint32_t s = 0; s < set.num_shards(); ++s) {
    const Rect<D>& tile = set.tile(s);
    const double d = tile.IsEmpty() ? std::numeric_limits<double>::infinity()
                                    : MinDistSq<D>(q, tile);
    if (s == 0 || d < best_sq) {
      best_sq = d;
      best = s;
    }
  }
  return best;
}

// The accounting rule: one routed, non-empty kBatchKnn executes on shard s
// once for its owned sub-batch if it owns any query, and once more for the
// queries it does not own if there are any. Returns the executions per
// shard.
template <int D>
std::vector<uint64_t> OwnerFirstExecutions(
    const ShardSet<D>& set, const std::vector<Point<D>>& queries) {
  std::vector<uint64_t> owned(set.num_shards(), 0);
  for (const Point<D>& q : queries) ++owned[OwnerShard(set, q)];
  std::vector<uint64_t> executions(set.num_shards(), 0);
  for (uint32_t s = 0; s < set.num_shards(); ++s) {
    executions[s] = (owned[s] > 0 ? 1 : 0) + (owned[s] < queries.size() ? 1 : 0);
  }
  return executions;
}

}  // namespace spatial

#endif  // SPATIAL_TESTS_OWNER_FIRST_H_
