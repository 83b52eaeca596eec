// Concurrency stress for the scatter-gather path, built for TSan
// (tools/tsan_check.sh): many threads drive one ShardRouter, each mixing
// kNN (run inline on the calling thread, nearest shard first, with the
// shared prune bound streaming and some requests sampled) with ranges and
// batches (queued to the shard workers), while other threads scrape the
// router's merged metrics and every shard's own. Every answer is checked
// byte-identical against a single-tree reference, so a data race that
// corrupts a bound, an inline lane or a merge shows up even without TSan.
// Batches span every tile, so each takes both phases of the owner-first
// batch scatter on every shard; serving-shard cases interleave acked
// writes with batches, and with inline kNN from several router threads.

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

// Serving shards under concurrent inline kNN: router threads run kNN on
// their own threads, borrowing the shards' idle workers' pools and
// snapshot slots, while a writer inserts and deletes. After each acked
// insert a k=1 kNN at its point returns it; after each acked delete the
// id is gone, and no reader whose query started after that ack sees it.
TEST(ShardStressTest, ServingInlineKnnSeesEveryAckedWrite) {
  const std::vector<Entry<2>> data = MakeData(2000);
  ShardSet<2>::Options options;
  options.num_shards = 4;
  options.serving = true;
  options.dir = ::testing::TempDir() + "/shard_stress_inline_serving";
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  ASSERT_EQ(0, system(("rm -rf " + options.dir + " && mkdir -p " +
                       options.dir).c_str()));
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  constexpr int kReaders = 3;
  constexpr int kRounds = 60;
  const uint64_t first_id = data.size();
  // Per written id: the write sequence number at which its delete was
  // acked (0 = not deleted). Readers compare it with the sequence number
  // they read before their query started.
  std::vector<std::atomic<uint64_t>> deleted_at(kRounds);
  std::atomic<uint64_t> write_seq{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + t);
      while (!done.load(std::memory_order_relaxed)) {
        const uint64_t seq = write_seq.load(std::memory_order_acquire);
        const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        const uint32_t k = 1 + static_cast<uint32_t>(rng.NextBounded(12));
        const QueryResponse<2> got =
            router.Execute(QueryRequest<2>::Knn(q, k));
        reads.fetch_add(1, std::memory_order_relaxed);
        if (!got.ok() || got.neighbors.size() != k) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < got.neighbors.size(); ++i) {
          const Neighbor& nb = got.neighbors[i];
          if (i > 0 && got.neighbors[i - 1].dist_sq > nb.dist_sq) {
            mismatches.fetch_add(1);
          }
          if (nb.id >= first_id) {
            const uint64_t at = deleted_at[nb.id - first_id].load();
            if (at != 0 && at <= seq) mismatches.fetch_add(1);
          }
        }
      }
    });
  }

  // The writer inserts one object per round and deletes the object it
  // inserted two rounds earlier, checking each write through the router.
  Rng rng(600);
  std::vector<Rect<2>> written;
  uint64_t checks = 0;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Rect<2> mbr = Rect<2>::FromPoint(
        {{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
    const uint64_t id = first_id + round;
    written.push_back(mbr);
    ASSERT_TRUE(router.Execute(QueryRequest<2>::Insert(mbr, id)).ok());
    write_seq.fetch_add(1, std::memory_order_release);
    const QueryResponse<2> found =
        router.Execute(QueryRequest<2>::Knn(mbr.Center(), 1));
    ++checks;
    ASSERT_TRUE(found.ok()) << found.status.ToString();
    ASSERT_EQ(found.neighbors.size(), 1u);
    EXPECT_EQ(found.neighbors[0].id, id);
    EXPECT_EQ(found.neighbors[0].dist_sq, 0.0);
    if (round >= 2) {
      const uint64_t victim = id - 2;
      const Rect<2>& victim_mbr = written[victim - first_id];
      const QueryResponse<2> ack =
          router.Execute(QueryRequest<2>::Delete(victim_mbr, victim));
      ASSERT_TRUE(ack.ok()) << ack.status.ToString();
      ASSERT_EQ(ack.affected, 1u);
      deleted_at[victim - first_id].store(
          write_seq.fetch_add(1, std::memory_order_release) + 1);
      const QueryResponse<2> gone =
          router.Execute(QueryRequest<2>::Knn(victim_mbr.Center(), 1));
      ++checks;
      ASSERT_TRUE(gone.ok()) << gone.status.ToString();
      ASSERT_EQ(gone.neighbors.size(), 1u);
      EXPECT_NE(gone.neighbors[0].id, victim);
    }
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  // Every kNN took the inline scatter; a shard's share queued only when
  // no worker was idle to lend its state.
  EXPECT_NE(router.ScrapeMetrics().find(
                "spatial_router_inline_scatters_total " +
                std::to_string(reads.load() + checks) + "\n"),
            std::string::npos);
  uint64_t executions = 0;
  uint64_t queued = 0;
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    const ServiceStats stats = (*set)->shard(s).Snapshot();
    executions += stats.latency.total_count;
    queued += stats.queue_wait.total_count;
  }
  EXPECT_EQ(executions, options.num_shards * (reads.load() + checks));
  EXPECT_LT(queued, executions);
}

}  // namespace
}  // namespace spatial
