// The router's nearest-first inline kNN scatter (docs/SHARDING.md): a
// kKnn over read-only resident, read-only paged or serving shards runs on
// the calling thread, nearest tile first, with the shared prune bound
// planted; paged and serving shards lend the caller an idle worker's pool
// and snapshot slot. Its answers must be memcmp-identical to the queued
// scatter over the same data (shards with simulated read latency still
// queue, so they are the reference); its executions must be accounted
// like worker executions; and the queued path's straggler verdict must
// name the shard that finished last, not the one the router looked at
// last.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "obs/dist_trace.h"
#include "shard/shard_router.h"
#include "shard/shard_set.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeUniform(size_t n, uint64_t seed) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

// `latency_us` > 0 makes every shard queue its share of a kNN scatter.
std::unique_ptr<ShardSet<2>> BuildSet(const std::vector<Entry<2>>& data,
                                      uint32_t shards, bool resident,
                                      uint32_t latency_us = 0) {
  ShardSet<2>::Options options;
  options.num_shards = shards;
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  options.service.resident_tier = resident;
  options.service.simulated_read_latency_us = latency_us;
  auto set = ShardSet<2>::Build(data, options);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return set.ok() ? std::move(*set) : nullptr;
}

// Uniform points plus exact duplicates of every point lying on an edge of
// its shard's tile (the points that define each tile's bounds), so copies
// of one point sit on tile edges, often in two shards at once.
std::vector<Entry<2>> WithTileEdgeDuplicates(uint32_t shards) {
  std::vector<Entry<2>> data = MakeUniform(1500, 31 + shards);
  const auto probe = BuildSet(data, shards, /*resident=*/false);
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

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Neighbor)));
  }
}

TEST(InlineScatterTest, InlineKnnIsIdenticalToQueuedScatter) {
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::vector<Entry<2>> data = WithTileEdgeDuplicates(shards);
    ASSERT_GT(data.size(), 1500u) << "no tile-edge duplicates were added";
    const auto inline_set = BuildSet(data, shards, /*resident=*/true);
    const auto paged_set = BuildSet(data, shards, /*resident=*/false);
    const auto queued_set =
        BuildSet(data, shards, /*resident=*/false, /*latency_us=*/1);
    ASSERT_NE(inline_set, nullptr);
    ASSERT_NE(paged_set, nullptr);
    ASSERT_NE(queued_set, nullptr);
    ShardRouter<2> inline_router(inline_set.get());
    ShardRouter<2> paged_router(paged_set.get());
    ShardRouter<2> queued_router(queued_set.get());

    // Query points: uniform, exactly on duplicated tile-edge points, and
    // on tile corners.
    std::vector<Point2> queries;
    Rng rng(shards);
    for (int i = 0; i < 60; ++i) {
      queries.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
    }
    for (size_t i = 1500; i < data.size(); i += 7) {
      queries.push_back(data[i].mbr.Center());
    }
    for (uint32_t s = 0; s < shards; ++s) {
      queries.push_back(inline_set->tile(s).lo);
      queries.push_back(inline_set->tile(s).hi);
    }

    uint32_t kth_ties = 0;  // cases whose k-th distance is tied
    for (const Point2& q : queries) {
      for (uint32_t k : {1u, 10u}) {
        for (double max_distance :
             {std::numeric_limits<double>::infinity(), 0.03}) {
          QueryRequest<2> request = QueryRequest<2>::Knn(q, k);
          request.knn.max_distance = max_distance;
          const QueryResponse<2> got = inline_router.Execute(request);
          const QueryResponse<2> paged = paged_router.Execute(request);
          const QueryResponse<2> want = queued_router.Execute(request);
          ASSERT_TRUE(got.ok()) << got.status.ToString();
          ASSERT_TRUE(paged.ok()) << paged.status.ToString();
          ASSERT_TRUE(want.ok()) << want.status.ToString();
          ExpectSameNeighbors(got.neighbors, want.neighbors);
          ExpectSameNeighbors(paged.neighbors, want.neighbors);
          // Up to ties at the k-th distance, both are the exact answer.
          const std::vector<Neighbor> ref =
              RefKnn<2>(data, q, k + 1, max_distance);
          ASSERT_EQ(got.neighbors.size(), std::min<size_t>(k, ref.size()));
          for (size_t i = 0; i < got.neighbors.size(); ++i) {
            EXPECT_EQ(got.neighbors[i].dist_sq, ref[i].dist_sq);
          }
          if (ref.size() > k && ref[k - 1].dist_sq == ref[k].dist_sq) {
            ++kth_ties;
          }
        }
      }
    }
    EXPECT_GT(kth_ties, 0u) << "the duplicates never tied at the k-th";
    // Every kNN above took the inline path on the resident and paged sets
    // and the queued path on the simulated-latency one.
    const uint64_t calls = queries.size() * 4;
    for (ShardRouter<2>* router : {&inline_router, &paged_router}) {
      EXPECT_NE(router->ScrapeMetrics().find(
                    "spatial_router_inline_scatters_total " +
                    std::to_string(calls)),
                std::string::npos);
    }
    EXPECT_NE(queued_router.ScrapeMetrics().find(
                  "spatial_router_inline_scatters_total 0"),
              std::string::npos);
  }
}

// WAL-backed serving shards in a fresh directory named after `tag`;
// `latency_us` > 0 makes every shard queue its share of a kNN scatter.
std::unique_ptr<ShardSet<2>> BuildServingSet(const std::vector<Entry<2>>& data,
                                             uint32_t shards,
                                             const std::string& tag,
                                             uint32_t latency_us) {
  ShardSet<2>::Options options;
  options.num_shards = shards;
  options.serving = true;
  options.dir = ::testing::TempDir() + "/inline_scatter_" + tag;
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  options.service.simulated_read_latency_us = latency_us;
  EXPECT_EQ(0, std::system(("rm -rf " + options.dir + " && mkdir -p " +
                            options.dir).c_str()));
  auto set = ShardSet<2>::Build(data, options);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return set.ok() ? std::move(*set) : nullptr;
}

// Serving shards run a kNN inline on a borrowed worker's pool and snapshot
// slot: through the resident tree while it matches the published version,
// through the paged tree once a write has dropped it. Both answer exactly
// what the queued scatter answers, and the exact kNN of the live data.
TEST(InlineScatterTest, ServingKnnIsIdenticalToQueuedScatter) {
  constexpr uint32_t kShards = 4;
  std::vector<Entry<2>> data = MakeUniform(3000, 41);
  const auto inline_set = BuildServingSet(data, kShards, "inline", 0);
  const auto queued_set = BuildServingSet(data, kShards, "queued", 1);
  ASSERT_NE(inline_set, nullptr);
  ASSERT_NE(queued_set, nullptr);
  ShardRouter<2> inline_router(inline_set.get());
  ShardRouter<2> queued_router(queued_set.get());

  Rng rng(42);
  std::vector<Point2> queries;
  for (int i = 0; i < 60; ++i) {
    queries.push_back({{rng.Uniform(-0.1, 1.1), rng.Uniform(-0.1, 1.1)}});
  }
  uint64_t calls = 0;
  const auto compare = [&] {
    for (const Point2& q : queries) {
      for (uint32_t k : {1u, 10u}) {
        const QueryRequest<2> request = QueryRequest<2>::Knn(q, k);
        const QueryResponse<2> got = inline_router.Execute(request);
        const QueryResponse<2> want = queued_router.Execute(request);
        ASSERT_TRUE(got.ok()) << got.status.ToString();
        ASSERT_TRUE(want.ok()) << want.status.ToString();
        ExpectSameNeighbors(got.neighbors, want.neighbors);
        ExpectSameNeighbors(got.neighbors, RefKnn<2>(data, q, k));
        ++calls;
      }
    }
  };
  const auto expect_tiers = [&](uint64_t hits, uint64_t fallbacks) {
    for (uint32_t s = 0; s < kShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const ServiceStats stats = inline_set->shard(s).Snapshot();
      EXPECT_EQ(stats.queries_ok, calls);
      EXPECT_EQ(stats.resident_hits, hits);
      EXPECT_EQ(stats.resident_fallbacks, fallbacks);
      // Nothing was queued: every execution borrowed an idle worker.
      EXPECT_EQ(stats.queue_wait.total_count, 0u);
    }
  };

  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_NE(inline_set->shard(s).resident_tree(), nullptr);
  }
  compare();
  const uint64_t resident_calls = calls;
  expect_tiers(resident_calls, 0);

  // An insert into every tile and a broadcast delete publish a new version
  // on every shard, which drops each resident tree.
  uint64_t next_id = data.size();
  for (uint32_t s = 0; s < kShards; ++s) {
    const Rect<2> mbr = Rect<2>::FromPoint(inline_set->tile(s).Center());
    for (ShardRouter<2>* router : {&inline_router, &queued_router}) {
      const QueryResponse<2> ack =
          router->Execute(QueryRequest<2>::Insert(mbr, next_id));
      ASSERT_TRUE(ack.ok()) << ack.status.ToString();
    }
    data.push_back(Entry<2>{mbr, next_id++});
  }
  for (size_t i = 0; i < 20; ++i) {
    const Entry<2> victim = data[i * 50];
    for (ShardRouter<2>* router : {&inline_router, &queued_router}) {
      const QueryResponse<2> ack =
          router->Execute(QueryRequest<2>::Delete(victim.mbr, victim.id));
      ASSERT_TRUE(ack.ok()) << ack.status.ToString();
      ASSERT_EQ(ack.affected, 1u);
    }
  }
  for (size_t i = 20; i-- > 0;) data.erase(data.begin() + i * 50);
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(inline_set->shard(s).resident_tree(), nullptr);
  }
  compare();
  expect_tiers(resident_calls, calls - resident_calls);

  EXPECT_NE(inline_router.ScrapeMetrics().find(
                "spatial_router_inline_scatters_total " +
                std::to_string(calls) + "\n"),
            std::string::npos);
  EXPECT_NE(queued_router.ScrapeMetrics().find(
                "spatial_router_inline_scatters_total 0\n"),
            std::string::npos);
}

// A borrowed worker's pool and disk view keep their own counters: an
// inline execution reports a lane's worker id, counts on the lane, and its
// page fetches and physical reads show in the service's Snapshot().
TEST(InlineScatterTest, BorrowedStateIsAccountedOnTheLane) {
  const std::vector<Entry<2>> data = MakeUniform(3000, 43);
  const auto paged_set = BuildSet(data, 1, /*resident=*/false);
  const auto serving_set = BuildServingSet(data, 1, "lane", 0);
  ASSERT_NE(paged_set, nullptr);
  ASSERT_NE(serving_set, nullptr);
  for (ShardSet<2>* set : {paged_set.get(), serving_set.get()}) {
    QueryService<2>& shard = set->shard(0);
    SCOPED_TRACE(shard.serving() ? "serving" : "read-only paged");
    if (shard.serving()) {
      // Drop the resident tree, so the borrowed pool does the reading.
      ASSERT_TRUE(shard.Execute(QueryRequest<2>::Insert(
                                    Rect<2>::FromPoint({{0.5, 0.5}}), 99999))
                      .ok());
      ASSERT_EQ(shard.resident_tree(), nullptr);
    }
    ASSERT_TRUE(shard.CanExecuteInline(QueryKind::kKnn));
    shard.ResetStats();
    QueryScratch<2> scratch;
    QueryResponse<2> response;
    uint64_t nodes_visited = 0;
    constexpr uint64_t kCalls = 10;
    Rng rng(44);
    for (uint64_t i = 0; i < kCalls; ++i) {
      const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
      shard.ExecuteInline(QueryRequest<2>::Knn(q, 5), &scratch, &response);
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      ASSERT_EQ(response.neighbors.size(), 5u);
      EXPECT_GT(response.worker_id, shard.num_workers())
          << "inline ids sit above the writer's";
      nodes_visited += response.stats.nodes_visited;
    }
    const ServiceStats stats = shard.Snapshot();
    EXPECT_EQ(stats.queries_ok, kCalls);
    EXPECT_EQ(stats.queue_wait.total_count, 0u);
    EXPECT_EQ(stats.latency.total_count, kCalls);
    // The read-only set has no resident tier, so no fallback to count.
    EXPECT_EQ(stats.resident_fallbacks, shard.serving() ? kCalls : 0u);
    EXPECT_EQ(stats.query.nodes_visited, nodes_visited);
    EXPECT_EQ(stats.buffer.logical_fetches, nodes_visited);
    EXPECT_GT(stats.io.physical_reads, 0u);
    EXPECT_EQ(stats.buffer.misses, stats.io.physical_reads);
    EXPECT_NE(shard.ScrapeMetrics().find(
                  "spatial_buffer_logical_fetches_total " +
                  std::to_string(nodes_visited) + "\n"),
              std::string::npos);
  }
}

// Inline executions land in every counter a worker execution does, and
// nothing lands in the queue-wait histogram (there is no queue).
TEST(InlineScatterTest, InlineExecutionsAreAccountedLikeWorkerExecutions) {
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kCalls = 50;
  const auto set = BuildSet(MakeUniform(4000, 7), kShards, true);
  ASSERT_NE(set, nullptr);
  ShardRouter<2> router(set.get());

  Rng rng(8);
  uint64_t nodes_visited = 0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    const QueryResponse<2> r = router.Execute(QueryRequest<2>::Knn(q, 5));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    nodes_visited += r.stats.nodes_visited;
  }

  const std::string n = std::to_string(kCalls);
  uint64_t shard_nodes = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    QueryService<2>& shard = set->shard(s);
    const ServiceStats stats = shard.Snapshot();
    EXPECT_EQ(stats.queries_ok, kCalls);
    EXPECT_EQ(stats.queries_failed, 0u);
    EXPECT_EQ(stats.resident_hits, kCalls);
    EXPECT_EQ(stats.resident_fallbacks, 0u);
    EXPECT_EQ(stats.latency.total_count, kCalls);
    EXPECT_EQ(stats.queue_wait.total_count, 0u);
    EXPECT_EQ(shard.KindQueryCount(QueryKind::kKnn), kCalls);
    EXPECT_EQ(shard.KindQueryStats(QueryKind::kKnn).nodes_visited,
              stats.query.nodes_visited);
    shard_nodes += stats.query.nodes_visited;

    const std::string scrape = shard.ScrapeMetrics();
    for (const std::string& sample :
         {"spatial_queries_total{outcome=\"ok\"} " + n,
          "spatial_queries_by_kind_total{kind=\"knn\"} " + n,
          "spatial_resident_queries_total{kind=\"knn\",tier=\"resident\"} " +
              n,
          "spatial_query_latency_ns_count " + n}) {
      EXPECT_NE(scrape.find(sample + "\n"), std::string::npos) << sample;
    }
    EXPECT_NE(router.ScrapeMetrics().find("spatial_shard_queries_total{shard=\"" +
                                          std::to_string(s) +
                                          "\",outcome=\"ok\"} " + n),
              std::string::npos);
  }
  // Per-shard traversal counters sum to what the router returned.
  EXPECT_EQ(shard_nodes, nodes_visited);
  EXPECT_NE(router.ScrapeMetrics().find("spatial_router_inline_scatters_total " +
                                        n),
            std::string::npos);

  // ResetStats zeroes the inline lanes too.
  for (uint32_t s = 0; s < kShards; ++s) {
    set->shard(s).ResetStats();
    EXPECT_EQ(set->shard(s).Snapshot().queries_ok, 0u);
    EXPECT_EQ(set->shard(s).KindQueryCount(QueryKind::kKnn), 0u);
  }
}

// A sampled inline request returns every shard's trace record: the shard
// logs it like a worker would, and the router assembles one span per
// shard, each the shard's own execution, with the longest named the
// straggler.
TEST(InlineScatterTest, SampledInlineRequestsCarryPerShardTraces) {
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kCalls = 20;
  const auto set = BuildSet(MakeUniform(4000, 9), kShards, true);
  ASSERT_NE(set, nullptr);
  ShardRouter<2>::Options options;
  options.trace_sample_per_million = 1'000'000;  // trace everything
  options.slow_threshold_ns = 10'000'000'000;    // keep every trace sampled
  ShardRouter<2> router(set.get(), options);

  Rng rng(10);
  for (uint64_t i = 0; i < kCalls; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    ASSERT_TRUE(router.Execute(QueryRequest<2>::Knn(q, 8)).ok());
  }

  const uint32_t workers = set->shard(0).num_workers();
  for (uint32_t s = 0; s < kShards; ++s) {
    const obs::SlowQueryLog& log = set->shard(s).slow_query_log();
    EXPECT_EQ(log.total_recorded(), kCalls);
    for (const obs::QueryTraceRecord& rec : log.SampledEntries()) {
      EXPECT_TRUE(rec.traced);
      EXPECT_EQ(rec.queue_wait_ns, 0u);
      EXPECT_GT(rec.worker, workers) << "inline ids sit above the writer's";
    }
  }

  const std::vector<obs::RouterTraceRecord> traces =
      router.trace_log().SampledEntries();
  ASSERT_EQ(traces.size(), kCalls);
  for (const obs::RouterTraceRecord& rec : traces) {
    EXPECT_TRUE(rec.traced);
    EXPECT_EQ(rec.num_shards, kShards);
    EXPECT_EQ(rec.queue_ns, 0u);
    uint64_t longest = 0;
    uint32_t straggler = 0;
    uint64_t span_sum = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      const obs::ShardSpan& span = rec.shards[s];
      EXPECT_TRUE(span.traced);
      EXPECT_GT(span.rpc_ns, 0u);
      EXPECT_GE(span.rpc_ns, span.execute_ns);
      EXPECT_GT(span.stats.nodes_visited, 0u);
      span_sum += span.rpc_ns;
      if (span.rpc_ns > longest) {
        longest = span.rpc_ns;
        straggler = s;
      }
    }
    EXPECT_EQ(rec.straggler, straggler);
    // The shards ran one after another inside the scatter.
    EXPECT_LE(span_sum, rec.scatter_ns);
  }
}

// The queued scatter's straggler is the shard whose response was
// fulfilled last. A range over shard 0's tile alone makes shard 0 do
// nearly all the work (every leaf of its tree, each physical read
// slowed), while the other shards prune at their roots; the router
// collects answers in shard order, so a verdict taken where the router
// looks would name shard 3.
TEST(InlineScatterTest, QueuedStragglerIsTheShardThatFinishedLast) {
  ShardSet<2>::Options set_options;
  set_options.num_shards = 4;
  set_options.page_size = 512;
  set_options.buffer_pages = 64;
  set_options.service.num_workers = 1;
  set_options.service.frames_per_worker = 8;
  set_options.service.simulated_read_latency_us = 20;
  auto built = ShardSet<2>::Build(MakeUniform(12000, 11), set_options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::unique_ptr<ShardSet<2>> set = std::move(*built);
  ShardRouter<2>::Options options;
  options.trace_sample_per_million = 1'000'000;
  options.slow_threshold_ns = 10'000'000'000;
  ShardRouter<2> router(set.get(), options);

  const Rect<2> window = set->tile(0);
  constexpr int kQueries = 3;
  for (int i = 0; i < kQueries; ++i) {
    const QueryResponse<2> r = router.Execute(QueryRequest<2>::Range(window));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    ASSERT_GE(r.entries.size(), set->shard_size(0));
  }
  const std::vector<obs::RouterTraceRecord> traces =
      router.trace_log().SampledEntries();
  ASSERT_EQ(traces.size(), static_cast<size_t>(kQueries));
  for (const obs::RouterTraceRecord& rec : traces) {
    EXPECT_STREQ(rec.kind_name, "range");
    EXPECT_EQ(rec.straggler, 0u);
    for (uint32_t s = 1; s < 4; ++s) {
      EXPECT_LT(rec.shards[s].rpc_ns, rec.shards[0].rpc_ns) << "shard " << s;
    }
  }
}

}  // namespace
}  // namespace spatial
