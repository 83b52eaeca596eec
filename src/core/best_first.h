#ifndef SPATIAL_CORE_BEST_FIRST_H_
#define SPATIAL_CORE_BEST_FIRST_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/neighbor_buffer.h"
#include "core/query_stats.h"
#include "core/scratch.h"
#include "core/tree_ref.h"
#include "geom/point.h"

namespace spatial {

// Global best-first k-NN: repeatedly expands the queue entry with the
// smallest MINDIST until k objects have been emitted. Visits the provably
// minimal set of R-tree nodes for the query, at the cost of a global
// priority queue. Used as the page-access-optimal comparator in E8.
// `tree` is either backend; the emission order is bit-identical on both.
template <int D>
Result<std::vector<Neighbor>> BestFirstKnn(TreeArg<D> tree,
                                           const Point<D>& query, uint32_t k,
                                           QueryStats* stats);

// As above, but the queue and staging buffers are borrowed from `scratch`
// (may be null for a private arena) so repeated queries reuse storage.
template <int D>
Result<std::vector<Neighbor>> BestFirstKnn(TreeArg<D> tree,
                                           const Point<D>& query, uint32_t k,
                                           QueryScratch<D>* scratch,
                                           QueryStats* stats);

extern template Result<std::vector<Neighbor>> BestFirstKnn<2>(
    TreeRef<2>, const Point<2>&, uint32_t, QueryStats*);
extern template Result<std::vector<Neighbor>> BestFirstKnn<3>(
    TreeRef<3>, const Point<3>&, uint32_t, QueryStats*);
extern template Result<std::vector<Neighbor>> BestFirstKnn<4>(
    TreeRef<4>, const Point<4>&, uint32_t, QueryStats*);

extern template Result<std::vector<Neighbor>> BestFirstKnn<2>(
    TreeRef<2>, const Point<2>&, uint32_t, QueryScratch<2>*, QueryStats*);
extern template Result<std::vector<Neighbor>> BestFirstKnn<3>(
    TreeRef<3>, const Point<3>&, uint32_t, QueryScratch<3>*, QueryStats*);
extern template Result<std::vector<Neighbor>> BestFirstKnn<4>(
    TreeRef<4>, const Point<4>&, uint32_t, QueryScratch<4>*, QueryStats*);

}  // namespace spatial

#endif  // SPATIAL_CORE_BEST_FIRST_H_
