// The router's owner-first batch kNN scatter (docs/SHARDING.md): a
// kBatchKnn runs each query on its owner shard first, then on every other
// shard with that query's bound planted. Its answers must be
// memcmp-identical to the one-phase scatter (stream_bound = false) and to
// the exact answer over the whole dataset; it must never cost more pages
// than the one-phase scatter; and each shard must account for exactly the
// phases it ran, with one trace span per shard covering both.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/clustered.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "obs/dist_trace.h"
#include "shard/shard_router.h"
#include "shard/shard_set.h"
#include "tests/owner_first.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeUniform(size_t n, uint64_t seed) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

struct Backend {
  bool file_backed;
  bool resident;
};

std::string Describe(const Backend& b) {
  return std::string(b.file_backed ? "file" : "memory") +
         (b.resident ? "/resident" : "/paged");
}

std::unique_ptr<ShardSet<2>> BuildSet(const std::vector<Entry<2>>& data,
                                      uint32_t shards, const Backend& backend,
                                      const std::string& tag = "set") {
  ShardSet<2>::Options options;
  options.num_shards = shards;
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  options.service.resident_tier = backend.resident;
  if (backend.file_backed) {
    options.file_backed = true;
    options.dir = ::testing::TempDir() + "/batch_scatter_" + tag;
    EXPECT_EQ(0, system(("rm -rf " + options.dir + " && mkdir -p " +
                         options.dir).c_str()));
  }
  auto set = ShardSet<2>::Build(data, options);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return set.ok() ? std::move(*set) : nullptr;
}

// Uniform points plus two exact duplicates of every point lying on an edge
// of its shard's tile, so copies of one point sit on tile edges and tie at
// the k-th distance for queries placed on them.
std::vector<Entry<2>> WithTileEdgeDuplicates(uint32_t shards) {
  std::vector<Entry<2>> data = MakeUniform(1500, 41 + shards);
  const auto probe = BuildSet(data, shards, Backend{false, false});
  if (probe == nullptr) return data;
  uint64_t next_id = data.size();
  const size_t n = data.size();
  for (size_t i = 0; i < n; ++i) {
    const Point2 p = data[i].mbr.Center();
    for (uint32_t s = 0; s < shards; ++s) {
      const Rect<2>& tile = probe->tile(s);
      bool on_edge = false;
      for (int d = 0; d < 2; ++d) {
        on_edge |= p.coord[d] == tile.lo.coord[d] ||
                   p.coord[d] == tile.hi.coord[d];
      }
      if (on_edge && tile.Contains(data[i].mbr)) {
        data.push_back(Entry<2>{data[i].mbr, next_id++});
        data.push_back(Entry<2>{data[i].mbr, next_id++});
        break;
      }
    }
  }
  return data;
}

void ExpectSameNeighbors(const Neighbor* got, size_t got_n,
                         const Neighbor* want, size_t want_n) {
  ASSERT_EQ(got_n, want_n);
  if (got_n != 0) {
    EXPECT_EQ(0, std::memcmp(got, want, got_n * sizeof(Neighbor)));
  }
}

// Runs `queries` as one batch through both routers and checks every slice
// memcmp against the other router, and against the brute-force answer over
// `data`: memcmp where no tie straddles the k-th position, distances where
// one does (a shard's heap keeps the tied members it met first, not the
// lowest ids; docs/SHARDING.md "Distance ties").
void CheckBatch(ShardRouter<2>* two_phase, ShardRouter<2>* one_phase,
                const std::vector<Entry<2>>& data,
                const std::vector<Point2>& queries, uint32_t k,
                double max_distance, uint32_t* kth_ties) {
  QueryRequest<2> request = QueryRequest<2>::BatchKnn(queries, k);
  request.knn.max_distance = max_distance;
  const QueryResponse<2> got = two_phase->Execute(request);
  const QueryResponse<2> want = one_phase->Execute(request);
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  ASSERT_TRUE(want.ok()) << want.status.ToString();
  ASSERT_EQ(got.batch_offsets, want.batch_offsets);
  ExpectSameNeighbors(got.neighbors.data(), got.neighbors.size(),
                      want.neighbors.data(), want.neighbors.size());
  ASSERT_EQ(got.batch_offsets.size(), queries.size() + 1);
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    std::vector<Neighbor> ref =
        RefKnn<2>(data, queries[i], k + 1, max_distance);
    const bool kth_tie =
        ref.size() > k && ref[k - 1].dist_sq == ref[k].dist_sq;
    if (ref.size() > k) ref.resize(k);
    const uint32_t lo = got.batch_offsets[i];
    const uint32_t count = got.batch_offsets[i + 1] - lo;
    if (!kth_tie) {
      ExpectSameNeighbors(got.neighbors.data() + lo, count, ref.data(),
                          ref.size());
      continue;
    }
    ++*kth_ties;
    ASSERT_EQ(count, ref.size());
    for (uint32_t j = 0; j < count; ++j) {
      EXPECT_EQ(got.neighbors[lo + j].dist_sq, ref[j].dist_sq);
    }
  }
}

TEST(BatchScatterTest, TwoPhaseMatchesOnePhaseAndExactAnswer) {
  const Backend backends[] = {
      {false, true}, {false, false}, {true, true}, {true, false}};
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    const std::vector<Entry<2>> data = WithTileEdgeDuplicates(shards);
    ASSERT_GT(data.size(), 1500u) << "no tile-edge duplicates were added";
    for (const Backend& backend : backends) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " " +
                   Describe(backend));
      const auto set =
          BuildSet(data, shards, backend, std::to_string(shards));
      ASSERT_NE(set, nullptr);
      ShardRouter<2> two_phase(set.get());
      ShardRouter<2>::Options one_phase_options;
      one_phase_options.stream_bound = false;
      ShardRouter<2> one_phase(set.get(), one_phase_options);

      // Uniform points, points exactly on duplicated tile-edge points,
      // tile corners, and points outside the domain.
      std::vector<Point2> queries;
      Rng rng(shards);
      for (int i = 0; i < 40; ++i) {
        queries.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
      }
      for (size_t i = 1500; i < data.size(); i += 7) {
        queries.push_back(data[i].mbr.Center());
      }
      for (uint32_t s = 0; s < shards; ++s) {
        if (set->tile(s).IsEmpty()) continue;
        queries.push_back(set->tile(s).lo);
        queries.push_back(set->tile(s).hi);
      }
      for (const Point2& far : {Point2{{-0.5, 1.7}}, Point2{{2.0, 2.0}},
                                Point2{{0.5, -3.0}}}) {
        queries.push_back(far);
      }

      uint32_t kth_ties = 0;  // slices whose k-th distance is tied
      for (uint32_t k : {1u, 10u}) {
        for (double max_distance :
             {std::numeric_limits<double>::infinity(), 0.03}) {
          SCOPED_TRACE("k=" + std::to_string(k) +
                       " max_distance=" + std::to_string(max_distance));
          CheckBatch(&two_phase, &one_phase, data, queries, k, max_distance,
                     &kth_ties);
          // A 1-query batch, on a tile-edge duplicate and far outside.
          CheckBatch(&two_phase, &one_phase, data, {queries.back()}, k,
                     max_distance, &kth_ties);
          CheckBatch(&two_phase, &one_phase, data, {queries[40]}, k,
                     max_distance, &kth_ties);
        }
      }

      EXPECT_GT(kth_ties, 0u) << "the duplicates never tied at the k-th";

      // An empty batch answers one empty offset table either way.
      const QueryResponse<2> empty =
          two_phase.Execute(QueryRequest<2>::BatchKnn({}, 3));
      ASSERT_TRUE(empty.ok()) << empty.status.ToString();
      EXPECT_EQ(empty.batch_offsets, std::vector<uint32_t>{0});
      EXPECT_TRUE(empty.neighbors.empty());
    }
  }
}

// Fewer objects than shards leaves tiles empty: those shards own no query
// (empty tiles order last) and still answer every query in phase 2.
TEST(BatchScatterTest, EmptyTilesOwnNothing) {
  const std::vector<Entry<2>> data = MakeUniform(4, 23);
  for (const Backend& backend : {Backend{false, true}, Backend{false, false}}) {
    SCOPED_TRACE(Describe(backend));
    const auto set = BuildSet(data, 7, backend);
    ASSERT_NE(set, nullptr);
    ASSERT_TRUE(set->tile(6).IsEmpty());
    ShardRouter<2> two_phase(set.get());
    ShardRouter<2>::Options one_phase_options;
    one_phase_options.stream_bound = false;
    ShardRouter<2> one_phase(set.get(), one_phase_options);
    std::vector<Point2> queries = {{{-1.0, -1.0}}, {{0.5, 0.5}}, {{3.0, 0.2}}};
    for (const Entry<2>& e : data) queries.push_back(e.mbr.Center());
    for (const Point2& q : queries) EXPECT_LT(OwnerShard<2>(*set, q), 4u);
    uint32_t kth_ties = 0;
    for (uint32_t k : {1u, 3u, 10u}) {
      CheckBatch(&two_phase, &one_phase, data, queries, k,
                 std::numeric_limits<double>::infinity(), &kth_ties);
    }
    EXPECT_EQ(kth_ties, 0u);
  }
}

// Owner-first pays at most the one-phase pages: the owner's bound can only
// shrink every other shard's search. On clustered data most queries' k
// nearest sit in one shard, so the other shards stop at their roots and
// the saving is strict.
TEST(BatchScatterTest, OwnerFirstNeverCostsMorePages) {
  Rng rng(12);
  ClusteredOptions clusters;
  clusters.num_clusters = 8;
  const std::vector<Entry<2>> clustered = MakePointEntries(
      GenerateClustered<2>(8000, UnitBounds<2>(), clusters, &rng));
  const std::vector<Entry<2>> uniform = MakeUniform(8000, 13);
  for (const auto* data : {&uniform, &clustered}) {
    const bool is_clustered = data == &clustered;
    SCOPED_TRACE(is_clustered ? "clustered" : "uniform");
    const auto set = BuildSet(*data, 4, Backend{false, true});
    ASSERT_NE(set, nullptr);
    // Queries drawn from the data, like the batch benchmark's.
    std::vector<Point2> queries;
    for (size_t i = 0; i < data->size(); i += 40) {
      queries.push_back((*data)[i].mbr.Center());
    }
    auto pages = [&](bool stream) {
      ShardRouter<2>::Options options;
      options.stream_bound = stream;
      ShardRouter<2> router(set.get(), options);
      const QueryResponse<2> r =
          router.Execute(QueryRequest<2>::BatchKnn(queries, 10));
      EXPECT_TRUE(r.ok()) << r.status.ToString();
      return r.stats.nodes_visited;
    };
    const uint64_t owner_first = pages(true);
    const uint64_t one_phase = pages(false);
    EXPECT_LE(owner_first, one_phase);
    if (is_clustered) {
      EXPECT_LT(owner_first, one_phase);
    }
  }
}

// Accounting rule: a routed batch executes on a shard once for its owned
// sub-batch (if it owns any query) and once for the rest (if it does not
// own them all); an empty sub-batch is never submitted. Every counter the
// shard keeps — queries_ok, the per-kind count and stats, the latency and
// queue-wait histograms — sees exactly those executions, and the router's
// merged stats are their sum.
TEST(BatchScatterTest, ShardsAccountForThePhasesTheyRan) {
  constexpr uint32_t kShards = 4;
  const auto set = BuildSet(MakeUniform(4000, 17), kShards,
                            Backend{false, true});
  ASSERT_NE(set, nullptr);
  ShardRouter<2> router(set.get());

  std::vector<std::vector<Point2>> batches;
  Rng rng(18);
  for (int b = 0; b < 12; ++b) {
    std::vector<Point2> batch;
    for (int i = 0; i < 1 + b * 3; ++i) {
      batch.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
    }
    batches.push_back(batch);
  }
  // Every query inside shard 2's tile: shard 2 runs only its owned
  // sub-batch, the others only the rest.
  std::vector<Point2> one_tile;
  const Rect<2>& tile = set->tile(2);
  for (int i = 0; i < 20; ++i) {
    one_tile.push_back({{rng.Uniform(tile.lo.coord[0], tile.hi.coord[0]),
                         rng.Uniform(tile.lo.coord[1], tile.hi.coord[1])}});
  }
  batches.push_back(one_tile);

  std::vector<uint64_t> expected(kShards, 0);
  uint64_t nodes_visited = 0;
  for (const auto& batch : batches) {
    const std::vector<uint64_t> runs = OwnerFirstExecutions<2>(*set, batch);
    for (uint32_t s = 0; s < kShards; ++s) expected[s] += runs[s];
    const QueryResponse<2> r =
        router.Execute(QueryRequest<2>::BatchKnn(batch, 5));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    nodes_visited += r.stats.nodes_visited;
  }
  const std::vector<uint64_t> one_tile_runs =
      OwnerFirstExecutions<2>(*set, one_tile);
  EXPECT_EQ(one_tile_runs, std::vector<uint64_t>(kShards, 1));

  uint64_t shard_nodes = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    QueryService<2>& shard = set->shard(s);
    const ServiceStats stats = shard.Snapshot();
    EXPECT_EQ(stats.queries_ok, expected[s]);
    EXPECT_EQ(stats.queries_failed, 0u);
    EXPECT_EQ(stats.latency.total_count, expected[s]);
    EXPECT_EQ(stats.queue_wait.total_count, expected[s]);
    EXPECT_EQ(shard.KindQueryCount(QueryKind::kBatchKnn), expected[s]);
    EXPECT_EQ(shard.KindQueryStats(QueryKind::kBatchKnn).nodes_visited,
              stats.query.nodes_visited);
    EXPECT_NE(shard.ScrapeMetrics().find(
                  "spatial_queries_by_kind_total{kind=\"batch-knn\"} " +
                  std::to_string(expected[s]) + "\n"),
              std::string::npos);
    shard_nodes += stats.query.nodes_visited;
  }
  EXPECT_EQ(shard_nodes, nodes_visited);
}

// A failed phase 1 ends the scatter: the error comes back and no shard
// runs a phase 2.
TEST(BatchScatterTest, FailedOwnerPhaseSkipsTheRest) {
  constexpr uint32_t kShards = 4;
  const auto set = BuildSet(MakeUniform(2000, 19), kShards,
                            Backend{false, true});
  ASSERT_NE(set, nullptr);
  ShardRouter<2> router(set.get());
  std::vector<Point2> batch;
  Rng rng(20);
  for (int i = 0; i < 30; ++i) {
    batch.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
  }
  QueryRequest<2> request = QueryRequest<2>::BatchKnn(batch, 0);  // k < 1
  const QueryResponse<2> r = router.Execute(request);
  EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
  const std::vector<uint64_t> owned_phase = [&] {
    std::vector<uint64_t> owned(kShards, 0);
    for (const Point2& q : batch) owned[OwnerShard<2>(*set, q)] = 1;
    return owned;
  }();
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(set->shard(s).Snapshot().queries_failed, owned_phase[s])
        << "shard " << s;
  }
  EXPECT_NE(router.ScrapeMetrics().find(
                "spatial_router_requests_failed_total 1\n"),
            std::string::npos);
}

// A sampled batch assembles one span per shard, whose stats are the sum
// of both of that shard's phases. With every query inside one shard's
// tile, that shard does all the real search work (each physical read
// slowed) while the others stop at their roots, so it is the straggler.
TEST(BatchScatterTest, SampledBatchSpansCoverBothPhases) {
  ShardSet<2>::Options set_options;
  set_options.num_shards = 4;
  set_options.page_size = 512;
  set_options.buffer_pages = 64;
  set_options.service.num_workers = 1;
  set_options.service.frames_per_worker = 8;
  set_options.service.resident_tier = false;
  set_options.service.simulated_read_latency_us = 20;
  auto built = ShardSet<2>::Build(MakeUniform(12000, 21), set_options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::unique_ptr<ShardSet<2>> set = std::move(*built);
  ShardRouter<2>::Options options;
  options.trace_sample_per_million = 1'000'000;
  options.slow_threshold_ns = 10'000'000'000;
  ShardRouter<2> router(set.get(), options);

  constexpr uint32_t kHeavy = 2;
  Rng rng(22);
  const Rect<2>& tile = set->tile(kHeavy);
  std::vector<Point2> one_tile;
  for (int i = 0; i < 40; ++i) {
    one_tile.push_back({{rng.Uniform(tile.lo.coord[0], tile.hi.coord[0]),
                         rng.Uniform(tile.lo.coord[1], tile.hi.coord[1])}});
  }
  std::vector<Point2> spread;
  for (int i = 0; i < 40; ++i) {
    spread.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
  }

  for (const auto* batch : {&spread, &one_tile}) {
    std::vector<QueryStats> before(4);
    std::vector<uint64_t> logged_before(4);
    for (uint32_t s = 0; s < 4; ++s) {
      before[s] = set->shard(s).KindQueryStats(QueryKind::kBatchKnn);
      logged_before[s] = set->shard(s).slow_query_log().total_recorded();
    }
    const QueryResponse<2> r =
        router.Execute(QueryRequest<2>::BatchKnn(*batch, 10));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    const std::vector<obs::RouterTraceRecord> traces =
        router.trace_log().SampledEntries();
    ASSERT_FALSE(traces.empty());
    const obs::RouterTraceRecord& rec = traces.back();
    EXPECT_STREQ(rec.kind_name, "batch-knn");
    EXPECT_TRUE(rec.traced);
    ASSERT_EQ(rec.num_shards, 4u);
    uint64_t span_nodes = 0;
    for (uint32_t s = 0; s < 4; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const obs::ShardSpan& span = rec.shards[s];
      EXPECT_TRUE(span.traced);
      EXPECT_GT(span.rpc_ns, 0u);
      EXPECT_GE(span.rpc_ns, span.execute_ns);
      // The phases run one after the other, so the request's critical
      // path covers every shard's two executions.
      EXPECT_GE(r.latency_ns, span.execute_ns);
      // Both phases' traversal work lands in the shard's one span.
      const QueryStats after =
          set->shard(s).KindQueryStats(QueryKind::kBatchKnn);
      EXPECT_EQ(span.stats.nodes_visited,
                after.nodes_visited - before[s].nodes_visited);
      span_nodes += span.stats.nodes_visited;
    }
    EXPECT_EQ(span_nodes, r.stats.nodes_visited);
    // Each execution a shard ran was sampled and logged there.
    const std::vector<uint64_t> runs = OwnerFirstExecutions<2>(*set, *batch);
    for (uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(set->shard(s).slow_query_log().total_recorded() -
                    logged_before[s],
                runs[s])
          << "shard " << s;
    }
    EXPECT_EQ(rec.merged_stats.nodes_visited, r.stats.nodes_visited);
    if (batch == &one_tile) {
      EXPECT_EQ(rec.straggler, kHeavy);
      for (uint32_t s = 0; s < 4; ++s) {
        if (s == kHeavy) continue;
        EXPECT_LT(rec.shards[s].rpc_ns, rec.shards[kHeavy].rpc_ns)
            << "shard " << s;
      }
    }
  }
}

}  // namespace
}  // namespace spatial
