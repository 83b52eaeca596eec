#include "core/incremental.h"

#include <algorithm>

#include "geom/metrics_simd.h"
#include "rtree/node.h"

namespace spatial {

template <int D>
IncrementalKnn<D>::IncrementalKnn(TreeRef<D> tree, const Point<D>& query,
                                  QueryStats* stats)
    : IncrementalKnn(tree, query, nullptr, stats) {}

template <int D>
IncrementalKnn<D>::IncrementalKnn(TreeRef<D> tree, const Point<D>& query,
                                  QueryScratch<D>* scratch, QueryStats* stats)
    : tree_(tree), query_(query), stats_(stats), scratch_(scratch) {
  if (scratch_ == nullptr) {
    owned_scratch_ = std::make_unique<QueryScratch<D>>();
    scratch_ = owned_scratch_.get();
  }
  scratch_->heap.clear();
  if (!tree_.empty()) {
    scratch_->heap.push_back(
        DistHeapItem{0.0, /*is_object=*/false, tree_.root_page()});
    if (stats_ != nullptr) ++stats_->heap_pushes;
  }
}

template <int D>
Result<std::optional<Neighbor>> IncrementalKnn<D>::Next() {
  std::vector<DistHeapItem>& heap = scratch_->heap;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const DistHeapItem item = heap.back();
    heap.pop_back();
    if (stats_ != nullptr) ++stats_->heap_pops;
    if (item.is_object) {
      return std::optional<Neighbor>(Neighbor{item.id, item.dist_sq});
    }
    SPATIAL_RETURN_IF_ERROR(ExpandNode(static_cast<PageId>(item.id)));
  }
  return std::optional<Neighbor>(std::nullopt);
}

template <int D>
Status IncrementalKnn<D>::ExpandNode(PageId node_id) {
  ExpandedNode<D> node;
  SPATIAL_RETURN_IF_ERROR(tree_.Expand(
      node_id, scratch_, &node, "incremental knn: node page has bad magic"));
  if (stats_ != nullptr) {
    ++stats_->nodes_visited;
    if (node.is_leaf()) {
      ++stats_->leaf_nodes_visited;
    } else {
      ++stats_->internal_nodes_visited;
    }
  }
  if (obs::TraceContext* t = scratch_->trace) t->CountNode(node.level);
  const bool is_leaf = node.is_leaf();
  const uint32_t n = node.count;
  if (n == 0) return Status::OK();

  // Expansion never recurses, so a paged leaf's pin is simply held inside
  // `node` for the whole call; the metric for all entries runs through the
  // dispatched SoA kernel over the node's planes (ObjectDist and MINDIST
  // are the same kernel — both are MBR MINDIST).
  double* dist =
      scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
  if (is_leaf) {
    ObjectDistSqBatchSoa(query_, node.soa, dist);
  } else {
    MinDistSqBatchSoa(query_, node.soa, dist);
  }
  if (stats_ != nullptr) {
    stats_->distance_computations += n;
    stats_->heap_pushes += n;
    if (is_leaf) {
      stats_->objects_examined += n;
    } else {
      stats_->abl_entries_generated += n;
    }
  }

  std::vector<DistHeapItem>& heap = scratch_->heap;
  for (uint32_t i = 0; i < n; ++i) {
    heap.push_back(DistHeapItem{dist[i], is_leaf, node.id(i)});
    std::push_heap(heap.begin(), heap.end());
  }
  return Status::OK();
}

template class IncrementalKnn<2>;
template class IncrementalKnn<3>;
template class IncrementalKnn<4>;

}  // namespace spatial
