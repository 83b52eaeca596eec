// Reverse nearest neighbor is reverse k-NN at k = 1: every case here runs
// ReverseKnnSearch with k = 1 against a brute-force reverse-NN oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/reverse_knn.h"
#include "data/clustered.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "geom/metrics.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

// Brute-force reverse NN: o qualifies iff no other object is strictly
// closer to o than the query is.
std::set<uint64_t> BruteReverseNn(const std::vector<Entry<2>>& data,
                                  const Point2& q) {
  std::set<uint64_t> result;
  for (size_t i = 0; i < data.size(); ++i) {
    const Point2 o = data[i].mbr.Center();
    const double to_query = SquaredDistance(o, q);
    double nearest_other = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < data.size(); ++j) {
      if (j == i) continue;
      nearest_other = std::min(
          nearest_other, SquaredDistance(o, data[j].mbr.Center()));
    }
    if (to_query <= nearest_other) result.insert(data[i].id);
  }
  return result;
}

// The reverse nearest neighbors of q: reverse k-NN at k = 1.
Result<std::vector<Neighbor>> ReverseNn(const RTree<2>& tree,
                                        const Point2& q) {
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  ReverseKnnOptions options;
  options.k = 1;
  SPATIAL_RETURN_IF_ERROR(
      ReverseKnnSearch(tree, q, options, &scratch, &out, nullptr));
  return out;
}

std::set<uint64_t> IdsOf(const std::vector<Neighbor>& neighbors) {
  std::set<uint64_t> ids;
  for (const Neighbor& n : neighbors) ids.insert(n.id);
  return ids;
}

TEST(ReverseNnTest, EmptyTree) {
  TestIndex2D index;
  auto result = ReverseNn(*index.tree, {{0.5, 0.5}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(ReverseNnTest, SingleObjectIsAlwaysReverseNn) {
  TestIndex2D index;
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{0.3, 0.3}}), 7).ok());
  auto result = ReverseNn(*index.tree, {{0.9, 0.9}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 7u);
}

TEST(ReverseNnTest, HandCaseAsymmetry) {
  // a at 0, b at 3, query at 1: q is a's nearest entity (|aq|=1 < |ab|=3),
  // but b prefers a (|bq|=2 vs |ba|=3 -> q closer? |bq|=2 < |ab|=3, so b
  // also picks q). Move b to 2.5: |bq|=1.5, |ba|=2.5 -> q wins again.
  // Put a third point c at 2.8 next to b: now b's nearest is c (0.3).
  TestIndex2D index;
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{0.0, 0.0}}), 1).ok());
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{2.5, 0.0}}), 2).ok());
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{2.8, 0.0}}), 3).ok());
  auto result = ReverseNn(*index.tree, {{1.0, 0.0}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(IdsOf(*result), (std::set<uint64_t>{1}));
}

TEST(ReverseNnTest, QueryOnDataPoint) {
  TestIndex2D index;
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{0.5, 0.5}}), 1).ok());
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{0.9, 0.9}}), 2).ok());
  auto result = ReverseNn(*index.tree, {{0.5, 0.5}});
  ASSERT_TRUE(result.ok());
  // Object 1 coincides with q (distance 0); object 2's nearest other is 1.
  const std::set<uint64_t> got = IdsOf(*result);
  EXPECT_TRUE(got.count(1));
}

class ReverseNnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReverseNnPropertyTest, MatchesBruteForceUniform) {
  TestIndex2D index;
  Rng rng(GetParam());
  auto data =
      MakePointEntries(GenerateUniform<2>(600, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  for (int trial = 0; trial < 30; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    auto result = ReverseNn(*index.tree, q);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(IdsOf(*result), BruteReverseNn(data, q)) << "trial " << trial;
  }
}

TEST_P(ReverseNnPropertyTest, MatchesBruteForceClustered) {
  TestIndex2D index;
  Rng rng(GetParam() ^ 0xcafe);
  auto data = MakePointEntries(
      GenerateClustered<2>(500, UnitBounds<2>(), ClusteredOptions{}, &rng));
  index.InsertAll(data);
  for (int trial = 0; trial < 30; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    auto result = ReverseNn(*index.tree, q);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(IdsOf(*result), BruteReverseNn(data, q)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReverseNnPropertyTest,
                         ::testing::Values(3u, 33u, 333u, 3333u));

TEST(ReverseNnTest, ResultCountIsBoundedBySix) {
  // Classic 2-D fact: a point has at most six reverse nearest neighbors in
  // general position (one per 60-degree sector).
  TestIndex2D index;
  Rng rng(99);
  auto data =
      MakePointEntries(GenerateUniform<2>(2000, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  for (int trial = 0; trial < 50; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    auto result = ReverseNn(*index.tree, q);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->size(), 6u);
  }
}

TEST(ReverseNnTest, IsolatedQueryFarFromDenseClusterHasNoReverseNn) {
  // All points huddle together; a faraway query attracts nobody.
  TestIndex2D index;
  Rng rng(100);
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 300; ++i) {
    data.push_back(Entry<2>{
        Rect2::FromPoint(
            {{0.5 + rng.Uniform(0, 0.01), 0.5 + rng.Uniform(0, 0.01)}}),
        i});
    ASSERT_TRUE(index.tree->Insert(data.back().mbr, i).ok());
  }
  auto result = ReverseNn(*index.tree, {{5.0, 5.0}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace spatial
