#include "core/best_first.h"

#include "core/incremental.h"

namespace spatial {

template <int D>
Result<std::vector<Neighbor>> BestFirstKnn(TreeArg<D> tree,
                                           const Point<D>& query, uint32_t k,
                                           QueryScratch<D>* scratch,
                                           QueryStats* stats) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  std::vector<Neighbor> result;
  result.reserve(k);
  IncrementalKnn<D> iter(tree, query, scratch, stats);
  while (result.size() < k) {
    SPATIAL_ASSIGN_OR_RETURN(std::optional<Neighbor> next, iter.Next());
    if (!next.has_value()) break;
    result.push_back(*next);
  }
  return result;
}

template <int D>
Result<std::vector<Neighbor>> BestFirstKnn(TreeArg<D> tree,
                                           const Point<D>& query, uint32_t k,
                                           QueryStats* stats) {
  return BestFirstKnn<D>(tree, query, k, nullptr, stats);
}

template Result<std::vector<Neighbor>> BestFirstKnn<2>(TreeRef<2>,
                                                       const Point<2>&,
                                                       uint32_t, QueryStats*);
template Result<std::vector<Neighbor>> BestFirstKnn<3>(TreeRef<3>,
                                                       const Point<3>&,
                                                       uint32_t, QueryStats*);
template Result<std::vector<Neighbor>> BestFirstKnn<4>(TreeRef<4>,
                                                       const Point<4>&,
                                                       uint32_t, QueryStats*);

template Result<std::vector<Neighbor>> BestFirstKnn<2>(TreeRef<2>,
                                                       const Point<2>&,
                                                       uint32_t,
                                                       QueryScratch<2>*,
                                                       QueryStats*);
template Result<std::vector<Neighbor>> BestFirstKnn<3>(TreeRef<3>,
                                                       const Point<3>&,
                                                       uint32_t,
                                                       QueryScratch<3>*,
                                                       QueryStats*);
template Result<std::vector<Neighbor>> BestFirstKnn<4>(TreeRef<4>,
                                                       const Point<4>&,
                                                       uint32_t,
                                                       QueryScratch<4>*,
                                                       QueryStats*);

}  // namespace spatial
