// Concurrency stress for the scatter-gather path, built for TSan
// (tools/tsan_check.sh): many threads drive one ShardRouter, each mixing
// kNN (run inline on the calling thread, nearest shard first, with the
// shared prune bound streaming and some requests sampled) with ranges and
// batches (queued to the shard workers), while other threads scrape the
// router's merged metrics and every shard's own. Every answer is checked
// byte-identical against a single-tree reference, so a data race that
// corrupts a bound, an inline lane or a merge shows up even without TSan.
// Batches span every tile, so each takes both phases of the owner-first
// batch scatter on every shard; a serving-shard case interleaves acked
// writes with batches.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "db/spatial_db.h"
#include "shard/shard_router.h"
#include "tests/owner_first.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeData(size_t n) {
  Rng rng(4242);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

TEST(ShardStressTest, ConcurrentScatterGatherWithLiveScraping) {
  const auto data = MakeData(4000);

  // One private reference tree per client thread: the core library (and
  // a SpatialDb's single BufferPool) is single-threaded by design, so
  // the reference lookups must not share one pool across threads.
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<SpatialDb<2>>> references;
  for (int t = 0; t < kThreads; ++t) {
    SpatialDb<2>::Options db_options;
    db_options.page_size = 512;
    db_options.buffer_pages = 128;
    auto reference = SpatialDb<2>::CreateInMemory(db_options);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(reference->BulkLoadData(data, BulkLoadMethod::kStr).ok());
    references.push_back(
        std::make_unique<SpatialDb<2>>(std::move(*reference)));
  }

  ShardSet<2>::Options options;
  options.num_shards = 4;
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2>::Options router_options;
  router_options.trace_sample_per_million = 100'000;  // 10% sampled
  ShardRouter<2> router(set->get(), router_options);

  constexpr int kQueriesPerThread = 150;
  constexpr size_t kBatchSize = 32;
  std::atomic<uint64_t> batch_executions{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};

  // A scraper hammering the merged exposition (router counters, per-shard
  // collector walking live worker state, RPC families absent) while
  // queries run — the TSan target for the metrics path.
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string text = router.ScrapeMetrics();
      if (text.find("spatial_router_merge_ns") == std::string::npos) {
        mismatches.fetch_add(1);
      }
    }
  });
  // Per-shard scrapes and snapshots read the inline lanes and the workers'
  // counters while both are being written.
  std::thread shard_scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (uint32_t s = 0; s < options.num_shards; ++s) {
        QueryService<2>& shard = (*set)->shard(s);
        if (shard.ScrapeMetrics().find("spatial_queries_total") ==
                std::string::npos ||
            shard.Snapshot().queries_failed != 0) {
          mismatches.fetch_add(1);
        }
      }
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      SpatialDb<2>& reference = *references[t];
      Rng rng(1000 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        const uint32_t k = 1 + static_cast<uint32_t>(i % 16);
        QueryResponse<2> got = router.Execute(QueryRequest<2>::Knn(q, k));
        if (!got.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        KnnOptions knn;
        knn.k = k;
        auto want = KnnSearch<2>(reference.tree(), q, knn, nullptr);
        if (!want.ok() || want->size() != got.neighbors.size() ||
            (!got.neighbors.empty() &&
             std::memcmp(got.neighbors.data(), want->data(),
                         got.neighbors.size() * sizeof(Neighbor)) != 0)) {
          mismatches.fetch_add(1);
        }
        if (i % 3 == 0) {
          const Point2 corner{{q.coord[0] + rng.Uniform(-0.1, 0.1),
                               q.coord[1] + rng.Uniform(-0.1, 0.1)}};
          const Rect<2> window = Rect<2>::FromCorners(q, corner);
          QueryResponse<2> range =
              router.Execute(QueryRequest<2>::Range(window));
          std::vector<Entry<2>> want_range;
          if (!range.ok() ||
              !reference.tree().Search(window, &want_range).ok() ||
              range.entries.size() != want_range.size()) {
            mismatches.fetch_add(1);
          }
        }
        if (i % 5 == 0) {
          // 32 queries spread over every tile, so every shard owns some
          // and runs both phases of the owner-first batch scatter.
          std::vector<Point2> points = {q};
          while (points.size() < kBatchSize) {
            const Rect<2>& tile =
                (*set)->tile(static_cast<uint32_t>(points.size()) %
                             options.num_shards);
            points.push_back({{rng.Uniform(tile.lo.coord[0], tile.hi.coord[0]),
                               rng.Uniform(tile.lo.coord[1],
                                           tile.hi.coord[1])}});
          }
          for (uint64_t runs : OwnerFirstExecutions<2>(**set, points)) {
            batch_executions.fetch_add(runs);
          }
          QueryResponse<2> batch =
              router.Execute(QueryRequest<2>::BatchKnn(points, 4));
          if (!batch.ok() || batch.batch_offsets.size() != kBatchSize + 1) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t j = 0; j < points.size(); ++j) {
            KnnOptions four;
            four.k = 4;
            auto want_j = KnnSearch<2>(reference.tree(), points[j], four,
                                       nullptr);
            const uint32_t lo = batch.batch_offsets[j];
            const uint32_t hi = batch.batch_offsets[j + 1];
            if (!want_j.ok() || want_j->size() != hi - lo ||
                std::memcmp(batch.neighbors.data() + lo, want_j->data(),
                            (hi - lo) * sizeof(Neighbor)) != 0) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true);
  scraper.join();
  shard_scraper.join();

  EXPECT_EQ(mismatches.load(), 0u);
  // Every kNN ran inline; ranges and batches took the queue: a range
  // once per shard, a batch once per phase it gave each shard.
  EXPECT_NE(router.ScrapeMetrics().find(
                "spatial_router_inline_scatters_total " +
                std::to_string(kThreads * kQueriesPerThread) + "\n"),
            std::string::npos);
  uint64_t queued = 0;
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    queued += (*set)->shard(s).Snapshot().queue_wait.total_count;
  }
  EXPECT_EQ(queued, static_cast<uint64_t>(options.num_shards) * kThreads *
                            (kQueriesPerThread / 3) +
                        batch_executions.load());
}

// Serving shards: every batch pins a snapshot per phase, and writes land
// between batches. After each acked insert the next batch — queries on and
// around the new object, anywhere in or outside the initial tiles — must
// match the exact answer over the post-write dataset, even when the new
// object sits in a shard other than the one owning the query (tiles do not
// grow with inserts; only the shards' roots do).
TEST(ShardStressTest, ServingBatchesSeeEveryAckedWrite) {
  std::vector<Entry<2>> data = MakeData(1500);
  ShardSet<2>::Options options;
  options.num_shards = 4;
  options.serving = true;
  options.dir = ::testing::TempDir() + "/shard_stress_serving";
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  ASSERT_EQ(0, system(("rm -rf " + options.dir + " && mkdir -p " +
                       options.dir).c_str()));
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  Rng rng(77);
  uint64_t next_id = data.size();
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Point2 p{{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)}};
    const QueryResponse<2> ack = router.Execute(
        QueryRequest<2>::Insert(Rect<2>::FromPoint(p), next_id));
    ASSERT_TRUE(ack.ok()) << ack.status.ToString();
    data.push_back(Entry<2>{Rect<2>::FromPoint(p), next_id++});

    std::vector<Point2> points = {p};
    for (int j = 0; j < 15; ++j) {
      points.push_back({{p.coord[0] + rng.Uniform(-0.05, 0.05),
                         p.coord[1] + rng.Uniform(-0.05, 0.05)}});
    }
    for (int j = 0; j < 16; ++j) {
      points.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
    }
    for (uint32_t k : {1u, 6u}) {
      const QueryResponse<2> batch =
          router.Execute(QueryRequest<2>::BatchKnn(points, k));
      ASSERT_TRUE(batch.ok()) << batch.status.ToString();
      ASSERT_EQ(batch.batch_offsets.size(), points.size() + 1);
      for (size_t j = 0; j < points.size(); ++j) {
        const std::vector<Neighbor> want = RefKnn<2>(data, points[j], k);
        const uint32_t lo = batch.batch_offsets[j];
        ASSERT_EQ(batch.batch_offsets[j + 1] - lo, want.size());
        EXPECT_EQ(0, std::memcmp(batch.neighbors.data() + lo, want.data(),
                                 want.size() * sizeof(Neighbor)))
            << "query " << j;
      }
    }
  }
}

}  // namespace
}  // namespace spatial
