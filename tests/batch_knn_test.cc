// The batched kNN API and the scratch arena are execution strategies, not
// algorithms: everything here asserts they reproduce the one-at-a-time
// KnnSearch answers exactly — same ids, bit-identical distances, identical
// per-query counters — on both the memory and the file backend, and that
// one scratch survives hundreds of sequential queries. Also covers the
// visit-order equivalence of the lazy-heap ABL path against full sorting.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/knn.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "db/spatial_db.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> UniformData(size_t n, uint64_t seed) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

std::vector<Point2> UniformQueries(const std::vector<Entry<2>>& data,
                                   size_t n, uint64_t seed) {
  Rng rng(seed);
  return GenerateQueries<2>(data, n, QueryDistribution::kUniform, 0.0, &rng);
}

void ExpectStatsEqual(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.leaf_nodes_visited, b.leaf_nodes_visited);
  EXPECT_EQ(a.internal_nodes_visited, b.internal_nodes_visited);
  EXPECT_EQ(a.objects_examined, b.objects_examined);
  EXPECT_EQ(a.abl_entries_generated, b.abl_entries_generated);
  EXPECT_EQ(a.pruned_s1, b.pruned_s1);
  EXPECT_EQ(a.pruned_s3, b.pruned_s3);
  EXPECT_EQ(a.pruned_leaf, b.pruned_leaf);
  EXPECT_EQ(a.distance_computations, b.distance_computations);
}

// Bitwise comparison: the batch is required to be *byte*-identical to the
// sequential answers, not merely tie-equivalent.
void ExpectNeighborsIdentical(const Neighbor* a, const Neighbor* b,
                              size_t n) {
  if (n == 0) return;
  EXPECT_EQ(std::memcmp(a, b, n * sizeof(Neighbor)), 0);
}

// Runs every query twice — sequentially via KnnSearch and as one batch via
// KnnSearchBatch through `scratch` — and asserts identical answers + stats.
void CheckBatchMatchesSequential(const RTree<2>& tree,
                                 const std::vector<Point2>& queries,
                                 const KnnOptions& options,
                                 QueryScratch<2>* scratch) {
  BatchKnnResult batch;
  ASSERT_TRUE(KnnSearchBatch<2>(tree, queries.data(), queries.size(), options,
                                scratch, &batch)
                  .ok());
  ASSERT_EQ(batch.num_queries(), queries.size());
  ASSERT_EQ(batch.stats.size(), queries.size());
  ASSERT_EQ(batch.offsets.front(), 0u);
  ASSERT_EQ(batch.offsets.back(), batch.neighbors.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats seq_stats;
    auto seq = KnnSearch<2>(tree, queries[i], options, &seq_stats);
    ASSERT_TRUE(seq.ok());
    const auto [ptr, count] = batch.Query(i);
    ASSERT_EQ(count, seq->size()) << "query " << i;
    ExpectNeighborsIdentical(ptr, seq->data(), count);
    ExpectStatsEqual(batch.stats[i], seq_stats);
  }
}

TEST(BatchKnnTest, MatchesSequentialOnMemoryBackend) {
  auto data = UniformData(3000, /*seed=*/42);
  TestIndex2D index(/*page_size=*/512, /*buffer_pages=*/256);
  index.InsertAll(data);
  auto queries = UniformQueries(data, 60, /*seed=*/7);

  QueryScratch<2> scratch;
  for (uint32_t k : {1u, 4u, 16u}) {
    KnnOptions options;
    options.k = k;
    CheckBatchMatchesSequential(*index.tree, queries, options, &scratch);
  }
}

TEST(BatchKnnTest, MatchesSequentialOnBulkLoadedTree) {
  auto data = UniformData(5000, /*seed=*/1337);
  DiskManager disk(1024);
  BufferPool pool(&disk, 512);
  auto loaded = BulkLoad<2>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
  ASSERT_TRUE(loaded.ok());
  auto queries = UniformQueries(data, 50, /*seed=*/9);

  QueryScratch<2> scratch;
  for (uint32_t k : {1u, 4u, 16u}) {
    KnnOptions options;
    options.k = k;
    CheckBatchMatchesSequential(*loaded, queries, options, &scratch);
  }
}

TEST(BatchKnnTest, MatchesSequentialOnFileBackend) {
  const std::string path = ::testing::TempDir() + "batch_knn_test.sdb";
  auto data = UniformData(4000, /*seed=*/5);
  {
    SpatialDb<2>::Options options;
    options.page_size = 1024;
    auto db = SpatialDb<2>::CreateOnFile(path, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  auto reopened = SpatialDb<2>::OpenFromFileReadOnly(path, 1024, 256);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto queries = UniformQueries(data, 40, /*seed=*/11);

  QueryScratch<2> scratch;
  for (uint32_t k : {1u, 4u, 16u}) {
    KnnOptions options;
    options.k = k;
    CheckBatchMatchesSequential(reopened->tree(), queries, options, &scratch);
  }
  std::remove(path.c_str());
}

// One scratch must survive arbitrarily many sequential queries: 150 queries
// and three interleaved k values through the same arena, each answer checked
// against brute force.
TEST(BatchKnnTest, ScratchReuseAcrossManyQueries) {
  auto data = UniformData(2500, /*seed=*/77);
  TestIndex2D index(/*page_size=*/512, /*buffer_pages=*/256);
  index.InsertAll(data);
  auto queries = UniformQueries(data, 150, /*seed=*/3);

  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  for (size_t i = 0; i < queries.size(); ++i) {
    KnnOptions options;
    options.k = (i % 3 == 0) ? 1 : (i % 3 == 1) ? 5 : 16;
    ASSERT_TRUE(KnnSearchInto<2>(*index.tree, queries[i], options, &scratch,
                                 &out, nullptr)
                    .ok());
    ExpectKnnMatchesBruteForce(data, queries[i], options.k, out);
  }
}

TEST(BatchKnnTest, EmptyTreeAndOversizedK) {
  TestIndex2D index;
  QueryScratch<2> scratch;
  std::vector<Neighbor> out{{1, 1.0}};  // stale content must be cleared
  KnnOptions options;
  options.k = 8;
  ASSERT_TRUE(KnnSearchInto<2>(*index.tree, Point2{{0.5, 0.5}}, options,
                               &scratch, &out, nullptr)
                  .ok());
  EXPECT_TRUE(out.empty());

  BatchKnnResult batch;
  const std::vector<Point2> queries = {Point2{{0.1, 0.2}}, Point2{{0.9, 0.9}}};
  ASSERT_TRUE(KnnSearchBatch<2>(*index.tree, queries.data(), queries.size(),
                                options, &scratch, &batch)
                  .ok());
  EXPECT_EQ(batch.num_queries(), 2u);
  EXPECT_TRUE(batch.neighbors.empty());

  // k larger than the tree returns every object, still batch == sequential.
  auto data = UniformData(10, /*seed=*/2);
  index.InsertAll(data);
  CheckBatchMatchesSequential(*index.tree, queries, options, &scratch);
}

TEST(BatchKnnTest, ZeroQueriesIsANoOp) {
  TestIndex2D index;
  index.InsertAll(UniformData(100, /*seed=*/4));
  QueryScratch<2> scratch;
  BatchKnnResult batch;
  ASSERT_TRUE(
      KnnSearchBatch<2>(*index.tree, nullptr, 0, KnnOptions{}, &scratch,
                        &batch)
          .ok());
  EXPECT_EQ(batch.num_queries(), 0u);
}

// One SharedPruneBound handed to a whole batch would let a later query
// prune against an earlier query's k-th distance. Here query 0 sits in a
// dense cluster (tiny k-th distance) and query 1 far from it (large k-th
// distance): sharing the bound would cut query 1's answer short, so the
// batch must refuse a single shared bound outright.
TEST(BatchKnnTest, OneSharedBoundOnABatchIsRejected) {
  std::vector<Entry<2>> data;
  Rng rng(21);
  for (uint64_t i = 0; i < 400; ++i) {
    const double x = i < 300 ? rng.Uniform(0.10, 0.11) : rng.Uniform(0.5, 1.0);
    const double y = i < 300 ? rng.Uniform(0.10, 0.11) : rng.Uniform(0.5, 1.0);
    data.push_back(Entry<2>{Rect<2>::FromPoint(Point2{{x, y}}), i});
  }
  TestIndex2D index(/*page_size=*/512, /*buffer_pages=*/256);
  index.InsertAll(data);
  const std::vector<Point2> queries = {Point2{{0.105, 0.105}},
                                       Point2{{0.75, 0.75}}};
  SharedPruneBound bound;
  KnnOptions options;
  options.k = 5;
  options.shared_bound = &bound;
  QueryScratch<2> scratch;
  BatchKnnResult batch;
  const Status status = KnnSearchBatch<2>(*index.tree, queries.data(),
                                          queries.size(), options, &scratch,
                                          &batch);
  ASSERT_TRUE(status.IsInvalidArgument())
      << "accepted (" << status.ToString() << "); query 1 got "
      << (batch.num_queries() == 2 ? batch.Query(1).second : 0) << " of "
      << options.k << " neighbors";
}

// Per-query bounds: each query prunes against and publishes into its own
// bound only. Half the bounds start at the query's exact k-th distance
// (what an owner shard would publish); the answers must equal the
// unbounded sequential ones, the pre-tightened queries must cost no more
// pages, and every fresh bound must end at its own query's k-th distance.
TEST(BatchKnnTest, PerQueryBoundsKeepAnswersAndPublishPerQuery) {
  auto data = UniformData(3000, /*seed=*/61);
  TestIndex2D index(/*page_size=*/512, /*buffer_pages=*/256);
  index.InsertAll(data);
  const auto queries = UniformQueries(data, 40, /*seed=*/62);
  KnnOptions options;
  options.k = 6;
  QueryScratch<2> scratch;
  BatchKnnResult unbounded;
  ASSERT_TRUE(KnnSearchBatch<2>(*index.tree, queries.data(), queries.size(),
                                options, &scratch, &unbounded)
                  .ok());

  std::vector<SharedPruneBound> bounds(queries.size());
  std::vector<SharedPruneBound*> ptrs;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto [nbrs, count] = unbounded.Query(i);
    ASSERT_EQ(count, options.k);
    if (i % 2 == 0) bounds[i].TightenSq(nbrs[count - 1].dist_sq);
    ptrs.push_back(&bounds[i]);
  }
  BatchKnnResult bounded;
  ASSERT_TRUE(KnnSearchBatch<2>(*index.tree, queries.data(), queries.size(),
                                options, &scratch, &bounded, ptrs.data())
                  .ok());
  ASSERT_EQ(bounded.offsets, unbounded.offsets);
  ExpectNeighborsIdentical(bounded.neighbors.data(),
                           unbounded.neighbors.data(),
                           unbounded.neighbors.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto [nbrs, count] = unbounded.Query(i);
    EXPECT_EQ(bounds[i].LoadSq(), nbrs[count - 1].dist_sq) << "query " << i;
    EXPECT_LE(bounded.stats[i].nodes_visited,
              unbounded.stats[i].nodes_visited);
  }
}

// MINDIST ordering takes the lazy-heap ABL path; `force_full_sort`
// switches back to full sorting. Both must visit the exact same node
// sequence — the heap is an evaluation-order optimization, not a
// traversal change — for k = 1 (where S1 compacts the ABL first) and for
// larger k (pure S3 pruning) alike.
TEST(BatchKnnTest, LazyHeapVisitsIdenticalNodeOrder) {
  auto data = UniformData(4000, /*seed=*/21);
  DiskManager disk(512);
  BufferPool pool(&disk, 512);
  auto loaded = BulkLoad<2>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
  ASSERT_TRUE(loaded.ok());
  auto queries = UniformQueries(data, 80, /*seed=*/13);

  QueryScratch<2> scratch;
  std::vector<Neighbor> heap_out, sort_out;
  for (uint32_t k : {1u, 10u}) {
    for (const Point2& q : queries) {
      std::vector<uint64_t> heap_trace, sort_trace;
      KnnOptions options;  // default kMinDist ordering: lazy-heap eligible
      options.k = k;
      options.visit_trace = &heap_trace;
      QueryStats heap_stats;
      ASSERT_TRUE(KnnSearchInto<2>(*loaded, q, options, &scratch, &heap_out,
                                   &heap_stats)
                      .ok());

      options.force_full_sort = true;
      options.visit_trace = &sort_trace;
      QueryStats sort_stats;
      ASSERT_TRUE(KnnSearchInto<2>(*loaded, q, options, &scratch, &sort_out,
                                   &sort_stats)
                      .ok());

      ASSERT_FALSE(heap_trace.empty());
      EXPECT_EQ(heap_trace, sort_trace);
      ASSERT_EQ(heap_out.size(), sort_out.size());
      ExpectNeighborsIdentical(heap_out.data(), sort_out.data(),
                               heap_out.size());
      ExpectStatsEqual(heap_stats, sort_stats);
    }
  }
}

// End-to-end through the service: one kBatchKnn request == the same queries
// submitted individually as kKnn.
TEST(BatchKnnTest, ServiceBatchMatchesIndividualRequests) {
  auto data = UniformData(3000, /*seed=*/99);
  auto db = SpatialDb<2>::CreateInMemory({});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());
  ASSERT_TRUE(db->Flush().ok());

  QueryService<2>::Options options;
  options.num_workers = 2;
  auto service = QueryService<2>::Attach(*db, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto queries = UniformQueries(data, 30, /*seed=*/17);
  const uint32_t k = 4;

  QueryResponse<2> batch =
      (*service)->Execute(QueryRequest<2>::BatchKnn(queries, k));
  ASSERT_TRUE(batch.ok()) << batch.status.ToString();
  ASSERT_EQ(batch.batch_offsets.size(), queries.size() + 1);
  ASSERT_EQ(batch.batch_offsets.back(), batch.neighbors.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResponse<2> single =
        (*service)->Execute(QueryRequest<2>::Knn(queries[i], k));
    ASSERT_TRUE(single.ok()) << single.status.ToString();
    const size_t begin = batch.batch_offsets[i];
    const size_t count = batch.batch_offsets[i + 1] - begin;
    ASSERT_EQ(count, single.neighbors.size()) << "query " << i;
    ExpectNeighborsIdentical(batch.neighbors.data() + begin,
                             single.neighbors.data(), count);
  }
}

}  // namespace
}  // namespace spatial
