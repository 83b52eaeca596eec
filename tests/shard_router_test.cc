// Scatter-gather correctness: for every shard count and backend, the
// router's merged answers must be byte-identical (memcmp) to the same
// query against one tree holding the whole dataset. Also covers write
// routing (insert to one shard, delete broadcast) through the serving
// backend, and that bound streaming never changes an answer.

#include "shard/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "db/spatial_db.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeData(size_t n, uint64_t seed = 99) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

// The router's deterministic order: (dist_sq, id). Random-double data has
// no distance ties, so this is also the unique sorted-by-distance order
// the single tree produces.
std::vector<Neighbor> Normalized(std::vector<Neighbor> v) {
  std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.dist_sq != b.dist_sq ? a.dist_sq < b.dist_sq : a.id < b.id;
  });
  return v;
}

void ExpectByteIdentical(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Neighbor)));
  }
}

void ExpectEntriesByteIdentical(std::vector<Entry<2>> got,
                                std::vector<Entry<2>> want) {
  auto by_id = [](const Entry<2>& a, const Entry<2>& b) {
    return a.id < b.id;
  };
  std::sort(want.begin(), want.end(), by_id);  // got is already id-sorted
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Entry<2>)));
  }
}

// The whole dataset in one tree — the answer the shards must reproduce.
Result<SpatialDb<2>> MakeReference(const std::vector<Entry<2>>& data) {
  SpatialDb<2>::Options options;
  options.page_size = 512;
  options.buffer_pages = 128;
  SPATIAL_ASSIGN_OR_RETURN(SpatialDb<2> db,
                           SpatialDb<2>::CreateInMemory(options));
  SPATIAL_RETURN_IF_ERROR(db.BulkLoadData(data, BulkLoadMethod::kStr));
  return db;
}

ShardSet<2>::Options SetOptions(uint32_t shards, bool file_backed,
                                const std::string& dir) {
  ShardSet<2>::Options options;
  options.num_shards = shards;
  options.file_backed = file_backed;
  options.dir = dir;
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  return options;
}

void RunEquivalenceSuite(uint32_t shards, bool file_backed,
                         bool stream_bound) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " file=" + std::to_string(file_backed) +
               " stream=" + std::to_string(stream_bound));
  const auto data = MakeData(3000);
  auto reference = MakeReference(data);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // A directory of its own: other test binaries write shard_<i>.sdb files
  // too, and ctest runs them in parallel.
  const std::string dir = ::testing::TempDir() + "/shard_router_test";
  ASSERT_EQ(0, system(("mkdir -p " + dir).c_str()));
  auto set = ShardSet<2>::Build(data, SetOptions(shards, file_backed, dir));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2>::Options router_options;
  router_options.stream_bound = stream_bound;
  ShardRouter<2> router(set->get(), router_options);

  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};

    for (uint32_t k : {1u, 5u, 17u}) {
      KnnOptions knn;
      knn.k = k;
      auto want = KnnSearch<2>(reference->tree(), q, knn, nullptr);
      ASSERT_TRUE(want.ok());
      QueryResponse<2> got = router.Execute(QueryRequest<2>::Knn(q, k));
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      ExpectByteIdentical(got.neighbors, Normalized(*want));
    }

    // Range window around the query point.
    const Point2 corner{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    const Rect<2> window = Rect<2>::FromCorners(q, corner);
    std::vector<Entry<2>> want_entries;
    ASSERT_TRUE(reference->tree().Search(window, &want_entries).ok());
    QueryResponse<2> got_range = router.Execute(QueryRequest<2>::Range(window));
    ASSERT_TRUE(got_range.ok());
    ExpectEntriesByteIdentical(got_range.entries, want_entries);

    // Incremental top-k.
    std::vector<Neighbor> want_topk;
    IncrementalKnn<2> inc(reference->tree(), q, nullptr);
    for (int j = 0; j < 10; ++j) {
      auto next = inc.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      want_topk.push_back(**next);
    }
    QueryResponse<2> got_topk = router.Execute(QueryRequest<2>::TopK(q, 10));
    ASSERT_TRUE(got_topk.ok());
    ExpectByteIdentical(got_topk.neighbors, Normalized(want_topk));
  }

  // One batch covering several query points at once.
  std::vector<Point2> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
  }
  QueryResponse<2> got_batch =
      router.Execute(QueryRequest<2>::BatchKnn(batch, 5));
  ASSERT_TRUE(got_batch.ok());
  ASSERT_EQ(got_batch.batch_offsets.size(), batch.size() + 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    KnnOptions knn;
    knn.k = 5;
    auto want = KnnSearch<2>(reference->tree(), batch[i], knn, nullptr);
    ASSERT_TRUE(want.ok());
    std::vector<Neighbor> got(
        got_batch.neighbors.begin() + got_batch.batch_offsets[i],
        got_batch.neighbors.begin() + got_batch.batch_offsets[i + 1]);
    ExpectByteIdentical(got, Normalized(*want));
  }
}

TEST(ShardRouterTest, MemoryBackendMatchesSingleTree) {
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    RunEquivalenceSuite(shards, /*file_backed=*/false, /*stream_bound=*/true);
  }
}

TEST(ShardRouterTest, FileBackendMatchesSingleTree) {
  for (uint32_t shards : {1u, 4u}) {
    RunEquivalenceSuite(shards, /*file_backed=*/true, /*stream_bound=*/true);
  }
}

TEST(ShardRouterTest, IndependentBoundsMatchSingleTree) {
  RunEquivalenceSuite(4, /*file_backed=*/false, /*stream_bound=*/false);
}

TEST(ShardRouterTest, SharedBoundSavesPagesOnLaggardShards) {
  // With streaming on, the shard holding the answer publishes its k-th
  // distance and the other shards prune against it; total pages visited
  // must not exceed the independent-bounds total.
  const auto data = MakeData(5000);
  auto run = [&](bool stream) {
    auto set = ShardSet<2>::Build(data, SetOptions(4, false, ""));
    EXPECT_TRUE(set.ok());
    ShardRouter<2>::Options options;
    options.stream_bound = stream;
    ShardRouter<2> router(set->get(), options);
    Rng rng(11);
    uint64_t pages = 0;
    for (int i = 0; i < 50; ++i) {
      const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
      QueryResponse<2> r = router.Execute(QueryRequest<2>::Knn(q, 10));
      EXPECT_TRUE(r.ok());
      pages += r.stats.nodes_visited;
    }
    return pages;
  };
  const uint64_t with_bound = run(true);
  const uint64_t without_bound = run(false);
  EXPECT_LE(with_bound, without_bound);
}

TEST(ShardRouterTest, ServingBackendRoutesWrites) {
  const auto data = MakeData(800);
  auto options = SetOptions(4, true, ::testing::TempDir() + "/serve");
  options.serving = true;
  ASSERT_EQ(0, system(("mkdir -p " + options.dir).c_str()));
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  // Insert lands in exactly one shard and becomes visible to kNN.
  const Point2 p{{0.31, 0.62}};
  QueryResponse<2> ins = router.Execute(
      QueryRequest<2>::Insert(Rect<2>::FromPoint(p), 1'000'000));
  ASSERT_TRUE(ins.ok()) << ins.status.ToString();
  EXPECT_EQ(ins.affected, 1u);

  QueryResponse<2> nn = router.Execute(QueryRequest<2>::Knn(p, 1));
  ASSERT_TRUE(nn.ok());
  ASSERT_EQ(nn.neighbors.size(), 1u);
  EXPECT_EQ(nn.neighbors[0].id, 1'000'000u);
  EXPECT_EQ(nn.neighbors[0].dist_sq, 0.0);

  // Delete broadcasts; exactly the one shard holding the object reports a
  // match.
  QueryResponse<2> del = router.Execute(
      QueryRequest<2>::Delete(Rect<2>::FromPoint(p), 1'000'000));
  ASSERT_TRUE(del.ok()) << del.status.ToString();
  EXPECT_EQ(del.affected, 1u);

  QueryResponse<2> gone = router.Execute(QueryRequest<2>::Knn(p, 1));
  ASSERT_TRUE(gone.ok());
  ASSERT_TRUE(gone.neighbors.empty() || gone.neighbors[0].id != 1'000'000u);

  // Checkpoint broadcasts to every shard.
  QueryResponse<2> ckpt = router.Execute(QueryRequest<2>::Checkpoint());
  EXPECT_TRUE(ckpt.ok()) << ckpt.status.ToString();
}

TEST(ShardRouterTest, MetricsExposePerShardFamilies) {
  const auto data = MakeData(400);
  auto set = ShardSet<2>::Build(data, SetOptions(3, false, ""));
  ASSERT_TRUE(set.ok());
  ShardRouter<2> router(set->get());
  for (int i = 0; i < 5; ++i) {
    router.Execute(QueryRequest<2>::Knn({{0.5, 0.5}}, 3));
  }
  router.Execute(QueryRequest<2>::TopK({{0.5, 0.5}}, 2));
  const std::string scrape = router.ScrapeMetrics();
  // One labeled family, not per-kind metric names: hyphenated kind names
  // survive intact as label values (legal there, unlike in metric names).
  EXPECT_NE(scrape.find("spatial_router_requests_total{kind=\"knn\"} 5"),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_router_requests_total{kind=\"top-k\"} 1"),
            std::string::npos);
  EXPECT_EQ(scrape.find("spatial_router_requests_total_knn"),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_router_merge_ns"), std::string::npos);
  EXPECT_NE(scrape.find("spatial_shard_queries_total{shard=\"0\""),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_shard_queries_total{shard=\"2\""),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_shard_query_latency_ns"), std::string::npos);
}

}  // namespace
}  // namespace spatial
