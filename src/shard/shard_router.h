#ifndef SPATIAL_SHARD_SHARD_ROUTER_H_
#define SPATIAL_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/dist_trace.h"
#include "obs/metrics.h"
#include "obs/stat_counter.h"
#include "obs/trace.h"
#include "service/request.h"
#include "shard/shard_set.h"

namespace spatial {

// Scatter-gather front end over a ShardSet. One Execute() call fans the
// request out to every relevant shard, waits for the per-shard answers,
// and merges them into a single QueryResponse that is bit-identical to
// running the same request against one tree holding the whole dataset
// (modulo distance ties at the k-th position — see docs/SHARDING.md).
//
// Routing:
//   * kKnn / kConstrainedKnn / kTopK / kBatchKnn / kApproxKnn — scatter to
//     all shards, merge by (dist_sq, id) truncated to k (per query for the
//     batch kind). The approximate merge keeps the epsilon contract: the
//     merged k-th distance never exceeds any shard's local k-th, and every
//     shard's answers individually satisfy r <= (1+eps) * t. A non-empty
//     kBatchKnn with Options::stream_bound scatters owner-first, in two
//     phases (see below).
//   * kRange — scatter, merge by object id.
//   * kNnSkyline — scatter, union the per-shard skylines, re-apply the
//     dominance filter over the union (the global skyline is a subset of
//     the union: any global dominator either eliminated its victim inside
//     its own shard or survives into the union and eliminates it here).
//   * kReverseKnn — two-phase (RouteReverseKnn): shards generate sector
//     candidates only (rknn_candidates_only), the router re-runs the
//     sector selection over the union, then verifies each survivor with
//     an exact cross-shard (k+1)-NN — verification must consult the
//     *global* dataset, which no single shard holds.
//   * kInsert — route to the single shard whose initial tile is nearest
//     the new MBR (MINDIST, ties to the lowest shard index).
//   * kDelete / kCheckpoint — broadcast (a delete must reach whichever
//     shard holds the object; `affected` sums over shards).
//
// Bound streaming: for kKnn / kApproxKnn with Options::stream_bound, the
// router plants one SharedPruneBound (core/shared_bound.h) into every
// scattered copy's KnnOptions. Each shard publishes its local k-th
// distance as soon as its buffer fills and prunes against the tightest
// bound any shard has found, so laggard shards skip subtrees the global
// answer has already beaten. Published bounds are always exact (unrelaxed)
// local k-th distances, so the merged answer is unchanged for kKnn and the
// epsilon contract is preserved for kApproxKnn; E19 measures the pages
// saved.
//
// Nearest-first inline kNN (docs/SHARDING.md): a kKnn over shards whose
// reads do not sleep on a simulated device — read-only resident, read-only
// paged or serving — does not queue to the shard workers. The router runs
// the shards one after another on the calling thread
// (QueryService::ExecuteInline; a paged or serving shard lends it an idle
// worker's pool and snapshot slot), in ascending MINDIST from the query to
// each shard's tile, with the stack SharedPruneBound planted: later shards
// start from the nearest shard's k-th distance and usually prune at their
// roots. Every other request — other kinds, shards with simulated read
// latency — takes the queued scatter, and so does one shard's share when
// that shard has no idle worker to lend.
//
// Owner-first batch kNN (docs/SHARDING.md): with Options::stream_bound, a
// non-empty kBatchKnn takes the queued scatter twice, on every backend.
// Phase 1 sends each query to its owner only — the shard with the nearest
// tile, in the inline order — and the query publishes the owner's k-th
// distance into its own SharedPruneBound (QueryRequest::batch_bounds,
// never on the wire). Phase 2 sends each shard the queries it does not
// own with their bounds planted, so most prune at the shard root. Each
// query merges its owner slice with its other-shard slices by
// (dist_sq, id). A shard runs one execution per non-empty phase; its
// trace span, stats and latency sum both.
//
// Distributed tracing (docs/OBSERVABILITY.md "Distributed traces"): the
// router is the root of a trace. A scatter-family request is traced when
// it arrives carrying a sampled wire-v3 trace context (trace_id +
// trace_sampled, stamped by a remote caller) or when the router's own
// per-million sampling draw fires. Either way the router stamps the
// context into every scattered copy, each shard force-samples and returns
// its QueryTraceRecord in the response, and the router assembles one
// RouterTraceRecord — root spans (queue, scatter, merge), one ShardSpan
// per shard with the network-vs-execute split, and the straggler shard
// (the one with the longest span: submit to fulfilment when queued —
// summed over both phases of an owner-first batch — its own execution
// when inline) — into its DistTraceLog. Requests whose
// scatter-gather round trip crosses the slow threshold are captured in
// the same log even when unsampled (without the per-shard queue-wait /
// per-level detail only a sampled round trip carries).
//
// Thread-safe: Execute() may be called from any number of threads (the
// RPC server's connection threads do exactly that); all shared state is
// the shards' own MPMC queues and inline lanes, the router's lock-free
// instruments, and the trace log's preallocated mutexed ring. Answer
// slots, the merge buffer and the inline scratch arena are per thread,
// so a warm inline kKnn allocates only the returned neighbor vector; so
// are a batch's owners, per-query bounds and bound pointers.
template <int D>
class ShardRouter {
 public:
  struct Options {
    bool stream_bound = true;
    // Router-side trace sampling: 0 = off (requests still trace when the
    // caller propagated a sampled context), 10000 = 1%.
    uint32_t trace_sample_per_million = 0;
    // Router slow-query log (scatter-gather round trips at or above the
    // threshold are captured whether sampled or not).
    uint64_t slow_threshold_ns = 10'000'000;  // 10 ms
    size_t slow_log_capacity = 64;
    size_t sampled_log_capacity = 64;
  };

  // `shards` must outlive the router.
  explicit ShardRouter(ShardSet<D>* shards, const Options& options = {});

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Synchronous scatter-gather round trip.
  QueryResponse<D> Execute(const QueryRequest<D>& request);

  ShardSet<D>& shards() { return *shards_; }
  const Options& options() const { return options_; }

  // Router-level instruments (requests by kind, merge latency) plus a
  // collector emitting per-shard query/latency families labelled
  // shard="i". ScrapeMetrics() returns the full document; the per-shard
  // registries remain scrapable individually via shard(i).ScrapeMetrics().
  obs::MetricsRegistry& metrics() { return metrics_; }
  std::string ScrapeMetrics() const { return metrics_.ScrapeText(); }

  // Assembled cross-shard traces and router-slow captures (slow ring +
  // reservoir; DumpJson backs the kDumpSlowLog admin frame).
  const obs::DistTraceLog& trace_log() const { return trace_log_; }

 private:
  QueryResponse<D> ScatterQuery(const QueryRequest<D>& request);
  // Whether ScatterQuery runs `request` on the calling thread: a kKnn
  // over shards that can all execute it inline
  // (QueryService::CanExecuteInline). Everything else is queued to the
  // shards' workers.
  bool RunsInline(const QueryRequest<D>& request) const;
  void ScatterInline(const QueryRequest<D>& scattered, bool sampled,
                     std::span<QueryResponse<D>> answers, uint64_t* shard_ns);
  // The two-phase kBatchKnn scatter; `header` is the sub-batch template
  // (kind, KnnOptions, trace context) and `owner` receives each query's
  // owner shard for the merge.
  void ScatterOwnerFirst(const std::vector<Point<D>>& queries,
                         const QueryRequest<D>& header, bool sampled,
                         std::span<QueryResponse<D>> owned,
                         std::span<QueryResponse<D>> rest,
                         std::vector<uint32_t>* owner, uint64_t* shard_ns,
                         uint64_t* latency_ns);
  // Squared MINDIST from `q` to shard `shard`'s tile; +inf for an empty
  // tile, so shards that received no objects order last.
  double TileDistSq(uint32_t shard, const Point<D>& q) const;
  QueryResponse<D> RouteReverseKnn(const QueryRequest<D>& request);
  QueryResponse<D> RouteInsert(const QueryRequest<D>& request);
  QueryResponse<D> Broadcast(const QueryRequest<D>& request);
  void RegisterMetrics();
  // Builds and records the RouterTraceRecord for one scatter round trip.
  // `shard_ns` holds the per-shard router-side spans (null when the
  // request was not sampled).
  void RecordScatterTrace(const QueryRequest<D>& request, bool sampled,
                          uint64_t trace_id, uint64_t root_span_id,
                          std::span<const QueryResponse<D>> answers,
                          const uint64_t* shard_ns, uint64_t scatter_ns,
                          uint64_t total_ns, const QueryStats& merged_stats);

  ShardSet<D>* shards_;
  Options options_;
  obs::MetricsRegistry metrics_;
  obs::DistTraceLog trace_log_;
  // Multi-writer cells exposed as one spatial_router_requests_total
  // family labelled kind="..." by a scrape-time collector.
  obs::StatCounter requests_by_kind_[kNumQueryKinds];
  obs::Counter* failed_;
  obs::Counter* rknn_candidates_;     // survivors of the global re-selection
  obs::Counter* rknn_verify_rounds_;  // cross-shard verification kNNs issued
  obs::Counter* traces_assembled_;    // sampled cross-shard traces built
  obs::Counter* inline_scatters_;     // kNN scatters run on the caller
  obs::PowerHistogram* merge_ns_;
};

extern template class ShardRouter<2>;
extern template class ShardRouter<3>;

}  // namespace spatial

#endif  // SPATIAL_SHARD_SHARD_ROUTER_H_
