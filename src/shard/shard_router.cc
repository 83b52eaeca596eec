#include "shard/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/reverse_knn.h"
#include "core/shared_bound.h"
#include "core/skyline.h"
#include "geom/metrics.h"

namespace spatial {

namespace {

// The deterministic merge order: ascending squared distance, object id
// breaking ties. Shard answers arrive in shard order, so equal inputs
// always merge identically.
bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
  return a.id < b.id;
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

template <int D>
ShardRouter<D>::ShardRouter(ShardSet<D>* shards, const Options& options)
    : shards_(shards),
      options_(options),
      trace_log_(obs::DistTraceLog::Options{options.slow_log_capacity,
                                            options.sampled_log_capacity,
                                            options.slow_threshold_ns}) {
  RegisterMetrics();
}

template <int D>
void ShardRouter<D>::RegisterMetrics() {
  failed_ = metrics_.AddCounter("spatial_router_requests_failed_total",
                                "Router requests that returned an error");
  rknn_candidates_ = metrics_.AddCounter(
      "spatial_router_rknn_candidates_total",
      "Reverse-kNN candidates surviving the global sector re-selection");
  rknn_verify_rounds_ = metrics_.AddCounter(
      "spatial_router_rknn_verify_rounds_total",
      "Cross-shard kNN rounds issued to verify reverse-kNN candidates");
  traces_assembled_ = metrics_.AddCounter(
      "spatial_router_traces_assembled_total",
      "Sampled cross-shard traces assembled from per-shard trace records");
  inline_scatters_ = metrics_.AddCounter(
      "spatial_router_inline_scatters_total",
      "kNN scatters run nearest-first on the calling thread instead of "
      "queued to the shard workers");
  merge_ns_ = metrics_.AddHistogram(
      "spatial_router_merge_ns",
      "Scatter-gather wall time per request (submit to merged answer)");

  // Requests by kind: one spatial_router_requests_total family, one sample
  // per kind labelled kind="..." (label values keep the hyphenated kind
  // names — hyphens are legal in label values, unlike metric names). The
  // cells are relaxed atomics written from any connection thread; the
  // collector reads them live at scrape time.
  metrics_.AddCollector([this](obs::ExpositionWriter& writer) {
    writer.Family("spatial_router_requests_total", "Router requests by kind",
                  obs::MetricType::kCounter);
    for (int k = 0; k < kNumQueryKinds; ++k) {
      writer.Sample(
          "spatial_router_requests_total",
          std::string("kind=\"") + QueryKindName(static_cast<QueryKind>(k)) +
              "\"",
          requests_by_kind_[k].value());
    }
    writer.Family(
        "spatial_router_traces_recorded_total",
        "Scatter round trips offered to the router trace log (sampled or "
        "slow)",
        obs::MetricType::kCounter);
    writer.Sample("spatial_router_traces_recorded_total", "",
                  trace_log_.total_recorded());
    writer.Family("spatial_router_trace_log_entries",
                  "Trace-log entries currently retained, by population",
                  obs::MetricType::kGauge);
    writer.Sample("spatial_router_trace_log_entries", "population=\"slow\"",
                  static_cast<uint64_t>(trace_log_.slow_captured()));
    writer.Sample("spatial_router_trace_log_entries",
                  "population=\"sampled\"",
                  static_cast<uint64_t>(trace_log_.sampled_captured()));
  });

  // Per-shard families, labelled shard="i". Reading Snapshot() is safe
  // while workers run (relaxed single-writer counters).
  metrics_.AddCollector([this](obs::ExpositionWriter& writer) {
    writer.Family("spatial_shard_queries_total",
                  "Queries executed per shard", obs::MetricType::kCounter);
    for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
      const ServiceStats stats = shards_->shard(s).Snapshot();
      writer.Sample("spatial_shard_queries_total",
                    "shard=\"" + std::to_string(s) + "\",outcome=\"ok\"",
                    stats.queries_ok);
      writer.Sample("spatial_shard_queries_total",
                    "shard=\"" + std::to_string(s) + "\",outcome=\"failed\"",
                    stats.queries_failed);
    }
    writer.Family("spatial_shard_query_latency_ns",
                  "Per-shard query latency (worker wall time)",
                  obs::MetricType::kHistogram);
    for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
      const ServiceStats stats = shards_->shard(s).Snapshot();
      writer.Histogram("spatial_shard_query_latency_ns",
                       "shard=\"" + std::to_string(s) + "\"", stats.latency);
    }
    writer.Family("spatial_shard_objects", "Objects initially loaded",
                  obs::MetricType::kGauge);
    for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
      writer.Sample("spatial_shard_objects",
                    "shard=\"" + std::to_string(s) + "\"",
                    shards_->shard_size(s));
    }
  });
}

template <int D>
QueryResponse<D> ShardRouter<D>::Execute(const QueryRequest<D>& request) {
  requests_by_kind_[static_cast<int>(request.kind)].FetchAdd(1);
  QueryResponse<D> response;
  switch (request.kind) {
    case QueryKind::kKnn:
    case QueryKind::kConstrainedKnn:
    case QueryKind::kRange:
    case QueryKind::kTopK:
    case QueryKind::kBatchKnn:
    case QueryKind::kNnSkyline:
    case QueryKind::kApproxKnn:
      response = ScatterQuery(request);
      break;
    case QueryKind::kReverseKnn:
      response = RouteReverseKnn(request);
      break;
    case QueryKind::kInsert:
      response = RouteInsert(request);
      break;
    case QueryKind::kDelete:
    case QueryKind::kCheckpoint:
      response = Broadcast(request);
      break;
  }
  if (!response.ok()) failed_->Inc();
  return response;
}

template <int D>
QueryResponse<D> ShardRouter<D>::ScatterQuery(const QueryRequest<D>& request) {
  const auto start = std::chrono::steady_clock::now();
  const uint32_t n = shards_->num_shards();

  // Root-of-trace sampling. Each router thread owns a cheap xorshift state
  // (lazily seeded from its own slot address, so threads diverge without
  // any shared state); a request is traced when the caller propagated a
  // sampled context (wire v3) or when the router's own draw fires. The
  // unsampled path pays one draw here and nothing per shard — the
  // per-shard completion clocks below run only for sampled requests.
  thread_local uint64_t tls_rng = 0;
  if (tls_rng == 0) {
    tls_rng = 0x9E3779B97F4A7C15ULL ^ reinterpret_cast<uint64_t>(&tls_rng);
  }
  const bool external = request.trace_sampled && request.trace_id != 0;
  const bool sampled =
      external || obs::SampleDraw(&tls_rng, options_.trace_sample_per_million);
  const uint64_t trace_id =
      sampled ? (external ? request.trace_id : (obs::NextRandom(&tls_rng) | 1))
              : 0;
  const uint64_t root_span_id = sampled ? (obs::NextRandom(&tls_rng) | 1) : 0;

  // One bound per Execute() call, on the stack: concurrent router calls
  // never share a bound, so no reset/epoch protocol is needed. Streaming
  // applies to plain and approximate kNN — the constrained search clips by
  // region and the incremental top-k scan does not take KnnOptions. For
  // kApproxKnn the published bounds are exact (unrelaxed) local k-th
  // distances, so streaming tightens pruning without widening the
  // (1+epsilon) contract. A batch streams one bound per query instead
  // (ScatterOwnerFirst); an empty batch has nothing to bound and scatters
  // as it is.
  SharedPruneBound bound;
  const bool owner_first = options_.stream_bound &&
                           request.kind == QueryKind::kBatchKnn &&
                           !request.batch_queries.empty();
  QueryRequest<D> scattered;
  if (owner_first) {
    // The header of every sub-batch; the phases add their own queries, so
    // copying the whole batch here would be wasted.
    scattered.kind = request.kind;
    scattered.knn = request.knn;
  } else {
    scattered = request;
  }
  if (options_.stream_bound && (request.kind == QueryKind::kKnn ||
                                request.kind == QueryKind::kApproxKnn)) {
    scattered.knn.shared_bound = &bound;
  }
  if (sampled) {
    // Every scattered copy carries the sampled context, so each shard
    // force-samples and returns its QueryTraceRecord in the response.
    scattered.trace_id = trace_id;
    scattered.parent_span_id = root_span_id;
    scattered.trace_sampled = true;
  }

  // Inline answer slots are reused per thread, so each shard's response
  // keeps its neighbor vector's capacity from the previous call; they
  // only ever grow, so routers of different widths on one thread share
  // them without reallocating. Queued answers (possibly large ranges or
  // batches) are not kept. An owner-first batch takes 2n slots: each
  // shard's owned sub-batch answer, then its non-owned one (`rest`).
  thread_local std::vector<QueryResponse<D>> tls_inline_answers;
  std::vector<QueryResponse<D>> queued_answers;
  const bool run_inline = RunsInline(request);
  std::vector<QueryResponse<D>>& slots =
      run_inline ? tls_inline_answers : queued_answers;
  const uint32_t num_slots = owner_first ? 2 * n : n;
  if (slots.size() < num_slots) slots.resize(num_slots);
  const std::span<QueryResponse<D>> answers(slots.data(), n);
  const std::span<QueryResponse<D>> rest =
      owner_first ? std::span<QueryResponse<D>>(slots.data() + n, n)
                  : std::span<QueryResponse<D>>();
  // Each batch query's owner shard, kept per thread for the merge.
  thread_local std::vector<uint32_t> tls_owner;
  // Per-shard router-side spans, taken only for sampled requests.
  uint64_t shard_ns[obs::kMaxTraceShards] = {};
  uint64_t owner_first_latency_ns = 0;
  if (run_inline) {
    inline_scatters_->Inc();
    ScatterInline(scattered, sampled, answers, shard_ns);
  } else if (owner_first) {
    ScatterOwnerFirst(request.batch_queries, scattered, sampled, answers,
                      rest, &tls_owner, shard_ns, &owner_first_latency_ns);
  } else {
    std::vector<std::future<QueryResponse<D>>> futures;
    futures.reserve(n);
    for (uint32_t s = 0; s < n; ++s) {
      futures.push_back(shards_->shard(s).Submit(scattered));
    }
    for (uint32_t s = 0; s < n; ++s) answers[s] = futures[s].get();
    if (sampled) {
      // Each span ends where the worker fulfilled the response, not where
      // this loop got to it, so the shards' finishing order shows.
      const uint64_t start_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              start.time_since_epoch())
              .count());
      for (uint32_t s = 0; s < n && s < obs::kMaxTraceShards; ++s) {
        const uint64_t done = answers[s].completed_at_ns;
        shard_ns[s] = done > start_ns ? done - start_ns : 0;
      }
    }
  }
  const uint64_t scatter_ns = ElapsedNs(start);

  QueryResponse<D> merged;
  for (const auto& a : answers) {
    if (!a.status.ok() && merged.status.ok()) merged.status = a.status;
    merged.stats.Add(a.stats);
    // The round trip's critical path: the shards one after another when
    // they ran inline, the slowest shard when they ran concurrently.
    merged.latency_ns = run_inline
                            ? merged.latency_ns + a.latency_ns
                            : std::max(merged.latency_ns, a.latency_ns);
  }
  // An owner-first batch's phases run one after the other.
  if (owner_first) merged.latency_ns = owner_first_latency_ns;
  if (!merged.status.ok()) {
    const uint64_t total_ns = ElapsedNs(start);
    merge_ns_->Record(total_ns);
    if (sampled || total_ns >= trace_log_.slow_threshold_ns()) {
      RecordScatterTrace(request, sampled, trace_id, root_span_id, answers,
                         sampled ? shard_ns : nullptr, scatter_ns, total_ns,
                         merged.stats);
    }
    return merged;
  }

  switch (request.kind) {
    case QueryKind::kKnn:
    case QueryKind::kConstrainedKnn:
    case QueryKind::kTopK:
    case QueryKind::kApproxKnn: {
      const uint32_t k = request.kind == QueryKind::kTopK ? request.top_k
                                                          : request.knn.k;
      // An inline kNN merges in a per-thread buffer, so the returned
      // vector is its only allocation here.
      thread_local std::vector<Neighbor> tls_pool;
      std::vector<Neighbor> queued_pool;
      std::vector<Neighbor>& pool = run_inline ? tls_pool : queued_pool;
      pool.clear();
      for (const auto& a : answers) {
        pool.insert(pool.end(), a.neighbors.begin(), a.neighbors.end());
      }
      std::sort(pool.begin(), pool.end(), NeighborLess);
      merged.neighbors.assign(pool.begin(),
                              pool.begin() + std::min<size_t>(k, pool.size()));
      break;
    }
    case QueryKind::kRange: {
      // A single tree reports range hits in traversal order, which is a
      // tree-shape artifact; the router normalizes to ascending object id
      // so the merged answer is a pure function of the dataset.
      for (const auto& a : answers) {
        merged.entries.insert(merged.entries.end(), a.entries.begin(),
                              a.entries.end());
      }
      std::sort(merged.entries.begin(), merged.entries.end(),
                [](const Entry<D>& x, const Entry<D>& y) {
                  return x.id < y.id;
                });
      break;
    }
    case QueryKind::kBatchKnn: {
      const uint32_t k = request.knn.k;
      const size_t num_queries = request.batch_queries.size();
      size_t candidates = 0;
      for (const auto& a : answers) candidates += a.neighbors.size();
      for (const auto& a : rest) candidates += a.neighbors.size();
      merged.neighbors.reserve(
          std::min<size_t>(candidates, num_queries * size_t{k}));
      merged.batch_offsets.reserve(num_queries + 1);
      merged.batch_offsets.push_back(0);
      thread_local std::vector<Neighbor> tls_scratch;
      std::vector<Neighbor>& scratch = tls_scratch;
      // Slice `slice` of one shard's CSR-packed answer.
      const auto append = [&](const QueryResponse<D>& a, uint32_t slice) {
        scratch.insert(scratch.end(),
                       a.neighbors.begin() + a.batch_offsets[slice],
                       a.neighbors.begin() + a.batch_offsets[slice + 1]);
      };
      // Owner-first: query q is the next slice of its owner's owned answer
      // and the next slice of every other shard's `rest` answer, so one
      // cursor per answer walks the slices in query order.
      thread_local std::vector<uint32_t> tls_cursor;
      std::vector<uint32_t>& cursor = tls_cursor;
      cursor.assign(2 * size_t{n}, 0);
      for (size_t q = 0; q < num_queries; ++q) {
        scratch.clear();
        if (!owner_first) {
          for (const auto& a : answers) append(a, static_cast<uint32_t>(q));
        } else {
          const uint32_t owner = tls_owner[q];
          append(answers[owner], cursor[owner]++);
          for (uint32_t s = 0; s < n; ++s) {
            if (s != owner) append(rest[s], cursor[n + s]++);
          }
        }
        std::sort(scratch.begin(), scratch.end(), NeighborLess);
        if (scratch.size() > k) scratch.resize(k);
        merged.neighbors.insert(merged.neighbors.end(), scratch.begin(),
                                scratch.end());
        merged.batch_offsets.push_back(
            static_cast<uint32_t>(merged.neighbors.size()));
      }
      break;
    }
    case QueryKind::kNnSkyline: {
      // The global skyline is a subset of the union of shard skylines: a
      // global dominator of object o shares o's shard (where it already
      // eliminated o) or is itself undominated there and reaches the
      // union — either way o does not survive. Distance vectors are
      // recomputed with the canonical scalar expression (core/skyline.h),
      // bit-identical to the kernels the shards browsed with, so the
      // merged answer matches a single whole-dataset tree byte for byte.
      std::vector<Entry<D>> pool;
      for (const auto& a : answers) {
        pool.insert(pool.end(), a.entries.begin(), a.entries.end());
      }
      const size_t m = request.batch_queries.size();
      const Point<D>* sources = request.batch_queries.data();
      std::vector<double> dists(pool.size() * m);
      std::vector<double> sums(pool.size());
      for (size_t i = 0; i < pool.size(); ++i) {
        SkylineDistVector<D>(sources, m, pool[i].mbr, &dists[i * m]);
        double sum = 0.0;
        for (size_t j = 0; j < m; ++j) sum += dists[i * m + j];
        sums[i] = sum;
      }
      // Ascending (sum, id) is both the output order and a topological
      // order for dominance (a dominator's sum is strictly smaller), so
      // testing each entry against the already-kept prefix is exact.
      std::vector<size_t> order(pool.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        if (sums[x] != sums[y]) return sums[x] < sums[y];
        return pool[x].id < pool[y].id;
      });
      std::vector<size_t> kept;
      for (size_t idx : order) {
        bool dominated = false;
        for (size_t member : kept) {
          if (SkylineDominates(&dists[member * m], &dists[idx * m], m)) {
            dominated = true;
            break;
          }
        }
        if (!dominated) kept.push_back(idx);
      }
      merged.entries.reserve(kept.size());
      for (size_t idx : kept) merged.entries.push_back(pool[idx]);
      break;
    }
    default:
      break;
  }

  const uint64_t total_ns = ElapsedNs(start);
  merge_ns_->Record(total_ns);
  if (sampled || total_ns >= trace_log_.slow_threshold_ns()) {
    RecordScatterTrace(request, sampled, trace_id, root_span_id, answers,
                       sampled ? shard_ns : nullptr, scatter_ns, total_ns,
                       merged.stats);
  }
  return merged;
}

template <int D>
double ShardRouter<D>::TileDistSq(uint32_t shard, const Point<D>& q) const {
  const Rect<D>& tile = shards_->tile(shard);
  return tile.IsEmpty() ? std::numeric_limits<double>::infinity()
                        : MinDistSq<D>(q, tile);
}

template <int D>
bool ShardRouter<D>::RunsInline(const QueryRequest<D>& request) const {
  if (request.kind != QueryKind::kKnn) return false;
  for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
    if (!shards_->shard(s).CanExecuteInline(request.kind)) return false;
  }
  return true;
}

// Runs the shards one after another on the calling thread, nearest tile
// first. The nearest shard usually holds most of the answer, so it
// publishes a tight k-th distance to the shared bound before any other
// shard starts, and every later shard prunes against it from its root on
// — the paper's strategy 3 one level above the shard roots.
template <int D>
void ShardRouter<D>::ScatterInline(const QueryRequest<D>& scattered,
                                   bool sampled,
                                   std::span<QueryResponse<D>> answers,
                                   uint64_t* shard_ns) {
  const uint32_t n = shards_->num_shards();
  // Ascending (MINDIST to the tile, shard index); a shard that received
  // no objects has an empty tile and goes last.
  thread_local std::vector<std::pair<double, uint32_t>> tls_order;
  std::vector<std::pair<double, uint32_t>>& order = tls_order;
  order.clear();
  for (uint32_t s = 0; s < n; ++s) {
    order.emplace_back(TileDistSq(s, scattered.query), s);
  }
  std::sort(order.begin(), order.end());
  thread_local QueryScratch<D> tls_scratch;
  for (const auto& [dist_sq, s] : order) {
    const auto begin = sampled ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    shards_->shard(s).ExecuteInline(scattered, &tls_scratch, &answers[s]);
    // Each shard's span is its own execution, so the straggler is the
    // shard that took longest, not the one that happened to run last.
    if (sampled && s < obs::kMaxTraceShards) shard_ns[s] = ElapsedNs(begin);
  }
}

// Runs a non-empty kBatchKnn in two queued phases (docs/SHARDING.md
// "Owner-first batch kNN"). Phase 1 sends every query to its owner only —
// the shard whose tile is nearest, in ScatterInline's order — and each
// query publishes its owner's k-th distance into its own bound. Phase 2
// sends every shard the queries it does not own, each with its bound
// planted, so most of them prune at the shard's root. Tiles are not
// updated by inserts, so no (query, shard) pair is skipped by tile; the
// root check does that work. A phase's empty sub-batch is not submitted,
// and a failed phase 1 ends the scatter. Afterwards `owned[s]` carries
// shard s's status, stats, latency, trace queue wait and per-level counts
// summed over both phases (its neighbors stay the owned answer's), `shard_ns[s]` sums the shard's two
// router-side spans, and `latency_ns` is the critical path: each phase's
// slowest shard, added.
template <int D>
void ShardRouter<D>::ScatterOwnerFirst(const std::vector<Point<D>>& queries,
                                       const QueryRequest<D>& header,
                                       bool sampled,
                                       std::span<QueryResponse<D>> owned,
                                       std::span<QueryResponse<D>> rest,
                                       std::vector<uint32_t>* owner,
                                       uint64_t* shard_ns,
                                       uint64_t* latency_ns) {
  const uint32_t n = shards_->num_shards();
  const size_t num_queries = queries.size();
  // Per-thread, grow-only: one bound per query, the bound pointers of one
  // phase's sub-batches, and the per-shard owned counts and futures.
  // Every search holding a pointer into them has finished before this
  // function returns, so the next call on this thread may reuse them.
  thread_local std::unique_ptr<SharedPruneBound[]> tls_bounds;
  thread_local size_t tls_bounds_size = 0;
  thread_local std::vector<SharedPruneBound*> tls_bound_ptrs;
  thread_local std::vector<uint32_t> tls_owned_count;
  thread_local std::vector<std::future<QueryResponse<D>>> tls_futures;
  if (tls_bounds_size < num_queries) {
    tls_bounds = std::make_unique<SharedPruneBound[]>(num_queries);
    tls_bounds_size = num_queries;
  }
  SharedPruneBound* bounds = tls_bounds.get();
  std::vector<uint32_t>& owned_count = tls_owned_count;
  owned_count.assign(n, 0);
  owner->resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    bounds[q].Reset();
    // Ascending (MINDIST, shard index), empty tiles last: the first
    // strictly nearer tile wins.
    uint32_t best = 0;
    double best_sq = TileDistSq(0, queries[q]);
    for (uint32_t s = 1; s < n; ++s) {
      const double d = TileDistSq(s, queries[q]);
      if (d < best_sq) {
        best_sq = d;
        best = s;
      }
    }
    (*owner)[q] = best;
    ++owned_count[best];
  }
  // Phase 1 points at every query once, phase 2 at n - 1 copies of each.
  tls_bound_ptrs.resize(num_queries * std::max(n - 1, 1u));

  const auto run_phase = [&](bool owned_phase,
                             std::span<QueryResponse<D>> answers) {
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::future<QueryResponse<D>>>& futures = tls_futures;
    futures.clear();
    SharedPruneBound** ptrs = tls_bound_ptrs.data();
    for (uint32_t s = 0; s < n; ++s) {
      const size_t size =
          owned_phase ? owned_count[s] : num_queries - owned_count[s];
      if (size == 0) {
        futures.emplace_back();  // not submitted; stays invalid
        continue;
      }
      QueryRequest<D> sub = header;
      sub.batch_queries.reserve(size);
      sub.batch_bounds = ptrs;
      for (size_t q = 0; q < num_queries; ++q) {
        if (((*owner)[q] == s) == owned_phase) {
          sub.batch_queries.push_back(queries[q]);
          *ptrs++ = &bounds[q];
        }
      }
      futures.push_back(shards_->shard(s).Submit(std::move(sub)));
    }
    const uint64_t begin_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            begin.time_since_epoch())
            .count());
    bool ok = true;
    uint64_t slowest_ns = 0;
    for (uint32_t s = 0; s < n; ++s) {
      if (!futures[s].valid()) continue;
      answers[s] = futures[s].get();
      ok = ok && answers[s].ok();
      slowest_ns = std::max(slowest_ns, answers[s].latency_ns);
      if (sampled && s < obs::kMaxTraceShards) {
        const uint64_t done = answers[s].completed_at_ns;
        shard_ns[s] += done > begin_ns ? done - begin_ns : 0;
      }
    }
    *latency_ns += slowest_ns;
    return ok;
  };
  if (!run_phase(/*owned_phase=*/true, owned)) return;
  run_phase(/*owned_phase=*/false, rest);

  for (uint32_t s = 0; s < n; ++s) {
    if (owned_count[s] == num_queries) continue;  // no phase 2 here
    QueryResponse<D>& a = owned[s];
    const QueryResponse<D>& b = rest[s];
    if (!b.status.ok() && a.status.ok()) a.status = b.status;
    a.stats.Add(b.stats);
    a.latency_ns += b.latency_ns;
    if (b.has_trace) {
      if (!a.has_trace) {
        a.trace = b.trace;
        a.has_trace = true;
      } else {
        a.trace.queue_wait_ns += b.trace.queue_wait_ns;
        for (int l = 0; l < obs::kTraceMaxLevels; ++l) {
          a.trace.nodes_per_level[l] += b.trace.nodes_per_level[l];
        }
      }
    }
  }
}

// Assembles the root spans, one ShardSpan per answer, the slowest-shard
// queue wait, and the straggler shard into a RouterTraceRecord, then
// offers it to the trace log (slow ring or sampled reservoir — the log
// routes by total_ns). For unsampled slow captures `shard_ns` is null
// and the per-shard detail degrades to what every answer carries anyway
// (execute time + merged stats).
template <int D>
void ShardRouter<D>::RecordScatterTrace(
    const QueryRequest<D>& request, bool sampled, uint64_t trace_id,
    uint64_t root_span_id, std::span<const QueryResponse<D>> answers,
    const uint64_t* shard_ns, uint64_t scatter_ns, uint64_t total_ns,
    const QueryStats& merged_stats) {
  obs::RouterTraceRecord rec;
  rec.trace_id = trace_id;
  rec.root_span_id = root_span_id;
  rec.SetKindName(QueryKindName(request.kind));
  rec.k = request.kind == QueryKind::kTopK ? request.top_k : request.knn.k;
  rec.traced = sampled;
  rec.scatter_ns = scatter_ns;
  rec.merge_ns = total_ns - scatter_ns;
  rec.total_ns = total_ns;
  rec.num_shards = static_cast<uint32_t>(answers.size());
  rec.merged_stats = merged_stats;

  uint64_t worst = 0;
  for (uint32_t s = 0; s < rec.captured_shards(); ++s) {
    obs::ShardSpan& span = rec.shards[s];
    const QueryResponse<D>& a = answers[s];
    span.shard = s;
    span.execute_ns = a.latency_ns;
    span.stats = a.stats;
    if (shard_ns != nullptr) span.rpc_ns = shard_ns[s];
    if (a.has_trace) {
      span.traced = true;
      span.worker = a.trace.worker;
      span.queue_wait_ns = a.trace.queue_wait_ns;
      std::memcpy(span.nodes_per_level, a.trace.nodes_per_level,
                  sizeof(span.nodes_per_level));
      rec.queue_ns = std::max(rec.queue_ns, span.queue_wait_ns);
    }
    // Straggler = largest router-side span (queued: submit to fulfilment
    // of that shard's response; inline: that shard's own execution);
    // without one (slow capture of an unsampled request) fall back to the
    // shard's own queue + execute accounting.
    const uint64_t cost =
        span.rpc_ns != 0 ? span.rpc_ns : span.queue_wait_ns + span.execute_ns;
    if (cost > worst) {
      worst = cost;
      rec.straggler = s;
    }
  }
  if (sampled) traces_assembled_->Inc();
  trace_log_.Record(rec);
}

template <int D>
QueryResponse<D> ShardRouter<D>::RouteReverseKnn(
    const QueryRequest<D>& request) {
  const auto start = std::chrono::steady_clock::now();
  const uint32_t n = shards_->num_shards();

  // Phase 1: every shard generates (but does not verify) its local sector
  // candidates. A local filter only ever drops objects that its own shard
  // proves cannot be reverse k-NN — more objects globally can only
  // strengthen that proof — so the union still contains every answer.
  QueryRequest<D> scattered = request;
  scattered.rknn_candidates_only = true;

  std::vector<std::future<QueryResponse<D>>> futures;
  futures.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    futures.push_back(shards_->shard(s).Submit(scattered));
  }
  std::vector<QueryResponse<D>> answers;
  answers.reserve(n);
  for (auto& f : futures) answers.push_back(f.get());

  QueryResponse<D> merged;
  for (const auto& a : answers) {
    if (!a.status.ok() && merged.status.ok()) merged.status = a.status;
    merged.stats.Add(a.stats);
    merged.latency_ns = std::max(merged.latency_ns, a.latency_ns);
  }
  if (!merged.status.ok()) {
    merge_ns_->Record(ElapsedNs(start));
    return merged;
  }

  if constexpr (D != 2) {
    // Unreachable — every shard already answered kInvalidArgument above —
    // but keeps this instantiation from touching the planar-only filter.
    merged.status =
        Status::InvalidArgument("reverse-knn supports 2-D services only");
    merge_ns_->Record(ElapsedNs(start));
    return merged;
  } else {
    // Phase 2: re-run the sector selection globally. A shard's local
    // filter may keep objects that closer same-sector objects in *other*
    // shards eliminate, so the union is re-fed — in the ascending
    // (dist, id) order the filter requires — through a fresh filter.
    // Distances are recomputed with the scalar MINDIST, bit-identical to
    // the kernel keys the shards browsed with.
    struct Candidate {
      double dist_sq;
      Entry<2> entry;
    };
    std::vector<Candidate> pool;
    for (const auto& a : answers) {
      for (const auto& e : a.entries) {
        pool.push_back(Candidate{MinDistSq(request.query, e.mbr), e});
      }
    }
    std::sort(pool.begin(), pool.end(),
              [](const Candidate& x, const Candidate& y) {
                if (x.dist_sq != y.dist_sq) return x.dist_sq < y.dist_sq;
                return x.entry.id < y.entry.id;
              });
    ReverseKnnSectorFilter filter(request.query, request.knn.k);
    std::vector<Candidate> selected;
    for (const auto& c : pool) {
      if (filter.Closed(c.dist_sq)) break;
      if (filter.Offer(c.entry.mbr.Center(), c.dist_sq)) {
        selected.push_back(c);
      }
    }
    rknn_candidates_->Add(selected.size());

    if (request.rknn_candidates_only) {
      merged.entries.reserve(selected.size());
      for (const auto& c : selected) merged.entries.push_back(c.entry);
      merge_ns_->Record(ElapsedNs(start));
      return merged;
    }

    // Phase 3: verify each survivor with an exact cross-shard (k+1)-NN at
    // its location — the single-tree rule (core/reverse_knn.h), but the
    // neighbor list now spans every shard. Rounds run sequentially, so
    // their latencies add onto the candidate phase's.
    for (const auto& c : selected) {
      if (c.dist_sq == 0.0) {
        // Coincides with the query: unconditionally a reverse k-NN.
        merged.neighbors.push_back(Neighbor{c.entry.id, 0.0});
        continue;
      }
      const QueryRequest<D> verify =
          QueryRequest<D>::Knn(c.entry.mbr.Center(), request.knn.k + 1);
      QueryResponse<D> around = ScatterQuery(verify);
      rknn_verify_rounds_->Inc();
      if (!around.status.ok()) {
        merged.status = around.status;
        merge_ns_->Record(ElapsedNs(start));
        return merged;
      }
      merged.stats.Add(around.stats);
      merged.latency_ns += around.latency_ns;
      if (ReverseKnnQualifies(around.neighbors, c.entry.id, c.dist_sq,
                              request.knn.k)) {
        merged.neighbors.push_back(Neighbor{c.entry.id, c.dist_sq});
      }
    }
    std::sort(merged.neighbors.begin(), merged.neighbors.end(), NeighborLess);
    merge_ns_->Record(ElapsedNs(start));
    return merged;
  }
}

template <int D>
QueryResponse<D> ShardRouter<D>::RouteInsert(const QueryRequest<D>& request) {
  const auto start = std::chrono::steady_clock::now();
  // Nearest initial tile by MINDIST, ties (e.g. the MBR overlaps several
  // tiles at distance 0) to the lowest index. Empty tiles — shards that
  // received no objects at build time — still win when every tile is
  // empty; then shard 0 takes the insert.
  uint32_t target = 0;
  double best = std::numeric_limits<double>::infinity();
  for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
    const Rect<D>& tile = shards_->tile(s);
    if (tile.IsEmpty()) continue;
    const double d = MinDistSq<D>(tile, request.window);
    if (d < best) {
      best = d;
      target = s;
    }
  }
  QueryResponse<D> response = shards_->shard(target).Execute(request);
  merge_ns_->Record(ElapsedNs(start));
  return response;
}

template <int D>
QueryResponse<D> ShardRouter<D>::Broadcast(const QueryRequest<D>& request) {
  const auto start = std::chrono::steady_clock::now();
  const uint32_t n = shards_->num_shards();
  std::vector<std::future<QueryResponse<D>>> futures;
  futures.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    futures.push_back(shards_->shard(s).Submit(request));
  }
  QueryResponse<D> merged;
  for (auto& f : futures) {
    QueryResponse<D> a = f.get();
    if (!a.status.ok() && merged.status.ok()) merged.status = a.status;
    merged.affected += a.affected;
    merged.lsn = std::max(merged.lsn, a.lsn);
    merged.latency_ns = std::max(merged.latency_ns, a.latency_ns);
  }
  merge_ns_->Record(ElapsedNs(start));
  return merged;
}

template class ShardRouter<2>;
template class ShardRouter<3>;

}  // namespace spatial
