#ifndef SPATIAL_CORE_KNN_H_
#define SPATIAL_CORE_KNN_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/neighbor_buffer.h"
#include "core/query_stats.h"
#include "core/scratch.h"
#include "core/shared_bound.h"
#include "geom/point.h"
#include "rtree/rtree.h"
#include "storage/resident_tree.h"

namespace spatial {

// Order in which the Active Branch List (the child MBRs of the node being
// visited) is traversed. The paper evaluates MINDIST and MINMAXDIST
// orderings and finds MINDIST superior for depth-first traversal; kNone
// (arrival order) isolates the contribution of ordering in experiment E5.
enum class AblOrdering {
  kMinDist,
  kMinMaxDist,
  kNone,
};

const char* AblOrderingName(AblOrdering ordering);

// Configuration of the branch-and-bound search. The three switches map
// one-to-one onto the paper's pruning strategies:
//
//  s1: discard an MBR whose MINDIST exceeds the minimum MINMAXDIST among
//      its siblings (downward pruning; valid for k = 1 only).
//  s2: lower the nearest-neighbor *estimate* to the minimum MINMAXDIST seen
//      (allows pruning before any actual object is found; k = 1 only).
//  s3: discard an MBR whose MINDIST exceeds the distance to the k-th
//      nearest object found so far (upward pruning; the workhorse).
//
// Correctness holds for every combination, including all three disabled
// (which degenerates to a full traversal). S1/S2 rely on the MBR-face
// property that guarantees only a single object, so with k > 1 they are
// automatically inactive regardless of the flags.
struct KnnOptions {
  uint32_t k = 1;
  AblOrdering ordering = AblOrdering::kMinDist;
  bool use_s1 = true;
  bool use_s2 = true;
  bool use_s3 = true;

  // Cross-shard bound streaming (shard/shard_router.h). When set, the
  // search additionally prunes against this shared upper bound on the
  // global k-th distance and publishes its own local k-th distance into it
  // once its buffer is full. Results are unchanged — the bound can only
  // discard objects beyond the global k-th neighbor (see
  // core/shared_bound.h for the argument) — but laggard shards skip work.
  // Standalone (single-tree) callers leave it null. KnnSearchBatch
  // rejects it; a batch takes one bound per query instead.
  SharedPruneBound* shared_bound = nullptr;

  // Distance-bounded kNN: only objects at distance <= max_distance qualify
  // as answers. Seeds the prune bound before descent (the search starts at
  // max_distance^2 instead of +inf), so it composes with S1/S3, the shared
  // shard bound, and both tiers; the result may then hold fewer than k
  // neighbors even on a large tree. Infinity (the default) disables it.
  double max_distance = std::numeric_limits<double>::infinity();

  // Approximate kNN (arXiv:1303.1951): subtree descent is pruned at
  // bound / (1+epsilon)^2 in squared-distance space, so every reported
  // distance r_i satisfies r_i <= (1+epsilon) * t_i against the true i-th
  // distance t_i. Objects inside visited leaves still compete at the
  // exact bound — their distances are already computed, so relaxing there
  // would cost recall without saving work. epsilon = 0 is bit-identical
  // to the exact search (the relaxation multiplies the bound by exactly
  // 1.0). Exact request kinds must leave this at 0; the service enforces
  // that.
  double epsilon = 0.0;

  // Early-termination visit budget: after max_visits node visits the
  // descent stops and the best candidates found so far are returned. No
  // distance contract — recall is an empirical property measured by the
  // E21 harness. 0 (the default) means unlimited.
  uint64_t max_visits = 0;

  // Test hooks. `force_full_sort` disables the lazy-heap ABL path that
  // MINDIST ordering otherwise takes, so tests can assert both paths visit
  // nodes in the identical order. `visit_trace` (if set) receives the
  // PageId of every node visited, in order.
  bool force_full_sort = false;
  std::vector<uint64_t>* visit_trace = nullptr;

  Status Validate() const {
    if (k < 1) return Status::InvalidArgument("k must be >= 1");
    if (std::isnan(max_distance) || max_distance < 0.0) {
      return Status::InvalidArgument("max_distance must be >= 0");
    }
    if (!std::isfinite(epsilon) || epsilon < 0.0) {
      return Status::InvalidArgument("epsilon must be finite and >= 0");
    }
    return Status::OK();
  }
};

// Finds the k objects of `tree` nearest to `query` using the ordered
// depth-first branch-and-bound algorithm of "Nearest Neighbor Queries"
// (SIGMOD 1995). Returns fewer than k neighbors iff the tree holds fewer
// than k objects. `stats` may be null.
template <int D>
Result<std::vector<Neighbor>> KnnSearch(const RTree<D>& tree,
                                        const Point<D>& query,
                                        const KnnOptions& options,
                                        QueryStats* stats);

// Allocation-free variant: identical algorithm and results, but all
// traversal state lives in `scratch` and the answer is written into `out`
// (cleared first, sorted by ascending distance). Reusing one scratch and
// one output vector across queries makes steady-state execution perform
// zero heap allocations (see docs/PERF.md). `scratch` and `out` must be
// non-null; `stats` may be null.
template <int D>
Status KnnSearchInto(const RTree<D>& tree, const Point<D>& query,
                     const KnnOptions& options, QueryScratch<D>* scratch,
                     std::vector<Neighbor>* out, QueryStats* stats);

// Resident-tier variant: the identical search over a compiled ResidentTree
// (storage/resident_tree.h) — no buffer-pool pins, no page translation, no
// per-visit transpose. Answers, visit order, and every QueryStats counter
// except the page-access ones match the paged path bit for bit
// (tests/resident_tree_test.cc memcmp-gates this).
template <int D>
Status KnnSearchInto(const ResidentTree<D>& tree, const Point<D>& query,
                     const KnnOptions& options, QueryScratch<D>* scratch,
                     std::vector<Neighbor>* out, QueryStats* stats);

// Answers of a batched kNN call, CSR-packed: query i's neighbors are
// neighbors[offsets[i] .. offsets[i+1]), sorted by ascending distance, and
// stats[i] holds that query's counters. Clear() retains capacity so one
// result object can be reused across batches allocation-free.
struct BatchKnnResult {
  std::vector<Neighbor> neighbors;
  std::vector<uint32_t> offsets;  // size num_queries() + 1
  std::vector<QueryStats> stats;  // size num_queries()

  size_t num_queries() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  // Neighbors of query i as a (pointer, count) span.
  std::pair<const Neighbor*, size_t> Query(size_t i) const {
    return {neighbors.data() + offsets[i],
            static_cast<size_t>(offsets[i + 1] - offsets[i])};
  }

  void Clear() {
    neighbors.clear();
    offsets.clear();
    stats.clear();
  }
};

// Runs `num_queries` kNN queries through one shared scratch, amortizing all
// per-query setup. Results are identical to issuing the queries one by one
// through KnnSearch (the batch is an execution strategy, not a different
// algorithm). `scratch` and `out` must be non-null.
//
// Cross-shard bounds are per query: when `bounds` is non-null it holds one
// pointer per query (entries may be null), and query i prunes against and
// publishes into *bounds[i] exactly as a single search does with
// options.shared_bound. One options.shared_bound for the whole batch is
// InvalidArgument — it would let a query prune against another query's
// k-th distance and lose true neighbors.
template <int D>
Status KnnSearchBatch(const RTree<D>& tree, const Point<D>* queries,
                      size_t num_queries, const KnnOptions& options,
                      QueryScratch<D>* scratch, BatchKnnResult* out,
                      SharedPruneBound* const* bounds = nullptr);

// Resident-tier batch variant (see the ResidentTree KnnSearchInto above).
template <int D>
Status KnnSearchBatch(const ResidentTree<D>& tree, const Point<D>* queries,
                      size_t num_queries, const KnnOptions& options,
                      QueryScratch<D>* scratch, BatchKnnResult* out,
                      SharedPruneBound* const* bounds = nullptr);

extern template Result<std::vector<Neighbor>> KnnSearch<2>(
    const RTree<2>&, const Point<2>&, const KnnOptions&, QueryStats*);
extern template Result<std::vector<Neighbor>> KnnSearch<3>(
    const RTree<3>&, const Point<3>&, const KnnOptions&, QueryStats*);
extern template Result<std::vector<Neighbor>> KnnSearch<4>(
    const RTree<4>&, const Point<4>&, const KnnOptions&, QueryStats*);

extern template Status KnnSearchInto<2>(const RTree<2>&, const Point<2>&,
                                        const KnnOptions&, QueryScratch<2>*,
                                        std::vector<Neighbor>*, QueryStats*);
extern template Status KnnSearchInto<3>(const RTree<3>&, const Point<3>&,
                                        const KnnOptions&, QueryScratch<3>*,
                                        std::vector<Neighbor>*, QueryStats*);
extern template Status KnnSearchInto<4>(const RTree<4>&, const Point<4>&,
                                        const KnnOptions&, QueryScratch<4>*,
                                        std::vector<Neighbor>*, QueryStats*);

extern template Status KnnSearchInto<2>(const ResidentTree<2>&,
                                        const Point<2>&, const KnnOptions&,
                                        QueryScratch<2>*,
                                        std::vector<Neighbor>*, QueryStats*);
extern template Status KnnSearchInto<3>(const ResidentTree<3>&,
                                        const Point<3>&, const KnnOptions&,
                                        QueryScratch<3>*,
                                        std::vector<Neighbor>*, QueryStats*);
extern template Status KnnSearchInto<4>(const ResidentTree<4>&,
                                        const Point<4>&, const KnnOptions&,
                                        QueryScratch<4>*,
                                        std::vector<Neighbor>*, QueryStats*);

extern template Status KnnSearchBatch<2>(const RTree<2>&, const Point<2>*,
                                         size_t, const KnnOptions&,
                                         QueryScratch<2>*, BatchKnnResult*,
                                         SharedPruneBound* const*);
extern template Status KnnSearchBatch<3>(const RTree<3>&, const Point<3>*,
                                         size_t, const KnnOptions&,
                                         QueryScratch<3>*, BatchKnnResult*,
                                         SharedPruneBound* const*);
extern template Status KnnSearchBatch<4>(const RTree<4>&, const Point<4>*,
                                         size_t, const KnnOptions&,
                                         QueryScratch<4>*, BatchKnnResult*,
                                         SharedPruneBound* const*);

extern template Status KnnSearchBatch<2>(const ResidentTree<2>&,
                                         const Point<2>*, size_t,
                                         const KnnOptions&, QueryScratch<2>*,
                                         BatchKnnResult*,
                                         SharedPruneBound* const*);
extern template Status KnnSearchBatch<3>(const ResidentTree<3>&,
                                         const Point<3>*, size_t,
                                         const KnnOptions&, QueryScratch<3>*,
                                         BatchKnnResult*,
                                         SharedPruneBound* const*);
extern template Status KnnSearchBatch<4>(const ResidentTree<4>&,
                                         const Point<4>*, size_t,
                                         const KnnOptions&, QueryScratch<4>*,
                                         BatchKnnResult*,
                                         SharedPruneBound* const*);

}  // namespace spatial

#endif  // SPATIAL_CORE_KNN_H_
