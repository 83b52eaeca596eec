#ifndef SPATIAL_CORE_GEO_BROWSE_H_
#define SPATIAL_CORE_GEO_BROWSE_H_

#include <algorithm>
#include <utility>

#include "common/result.h"
#include "core/query_stats.h"
#include "core/scratch.h"
#include "core/tree_ref.h"
#include "geom/rect.h"

namespace spatial {

// Geometry-preserving incremental distance browse, shared by the
// reverse-kNN and NN-skyline traversals (the queries that still need the
// popped box *after* the node holding it is gone — sector assignment,
// per-source dominance tests). Works over either backend through
// TreeRef, keeps all queue state in the scratch arena (zero
// steady-state allocations), and computes keys with the batch kernel the
// caller supplies, so one node expansion prices all entries in one pass.
//
// Unlike IncrementalKnn, Next() surfaces *both* nodes and objects: the
// caller decides per popped node whether to descend (Expand) or prune it,
// which is what makes the skyline's dominance pruning possible.
//
// KeyFn signature: void(const SoaBlock<D>& soa, double* keys) — fills
// keys[0..soa.n) with the squared-distance key of each staged entry and
// charges its own distance_computations.
template <int D, class KeyFn>
class GeoBrowse {
 public:
  GeoBrowse(TreeRef<D> tree, KeyFn key, QueryScratch<D>* scratch,
            QueryStats* stats, const char* bad_magic_message)
      : tree_(tree),
        key_(std::move(key)),
        scratch_(scratch),
        stats_(stats),
        bad_magic_message_(bad_magic_message) {
    scratch_->geo_heap.clear();
    if (!tree_.empty()) {
      scratch_->geo_heap.push_back(
          GeoHeapItem<D>{0.0, /*is_object=*/false, tree_.root_page(),
                         Rect<D>::Empty()});
      if (stats_ != nullptr) ++stats_->heap_pushes;
    }
  }

  // Pops the item with the smallest key (node or object) into *out.
  // Returns false when the queue is exhausted. Keys of popped items are
  // nondecreasing as long as the caller only Expands popped nodes.
  Result<bool> Next(GeoHeapItem<D>* out) {
    std::vector<GeoHeapItem<D>>& heap = scratch_->geo_heap;
    if (heap.empty()) return false;
    std::pop_heap(heap.begin(), heap.end());
    *out = heap.back();
    heap.pop_back();
    if (stats_ != nullptr) ++stats_->heap_pops;
    return true;
  }

  // Descends a node previously returned by Next: expands it and enqueues
  // its children (or objects) with their keys and geometry.
  Status Expand(const GeoHeapItem<D>& item) {
    ExpandedNode<D> node;
    SPATIAL_RETURN_IF_ERROR(tree_.Expand(static_cast<PageId>(item.id),
                                         scratch_, &node, bad_magic_message_));
    if (stats_ != nullptr) {
      ++stats_->nodes_visited;
      if (node.is_leaf()) {
        ++stats_->leaf_nodes_visited;
      } else {
        ++stats_->internal_nodes_visited;
      }
    }
    if (obs::TraceContext* t = scratch_->trace) t->CountNode(node.level);
    const uint32_t n = node.count;
    if (n == 0) return Status::OK();

    const bool is_leaf = node.is_leaf();
    double* keys =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    key_(node.soa, keys);
    if (stats_ != nullptr) {
      stats_->heap_pushes += n;
      if (is_leaf) {
        stats_->objects_examined += n;
      } else {
        stats_->abl_entries_generated += n;
      }
    }
    // The box geometry is read back out of the staged SoA planes — both
    // backends expose them, and the plane values are the entry's exact
    // lo/hi doubles, so the reconstructed Rect is bit-exact.
    std::vector<GeoHeapItem<D>>& heap = scratch_->geo_heap;
    for (uint32_t i = 0; i < n; ++i) {
      GeoHeapItem<D> child;
      child.dist_sq = keys[i];
      child.is_object = is_leaf;
      child.id = node.id(i);
      for (int d = 0; d < D; ++d) {
        child.mbr.lo[d] = node.soa.lo(d)[i];
        child.mbr.hi[d] = node.soa.hi(d)[i];
      }
      heap.push_back(child);
      std::push_heap(heap.begin(), heap.end());
    }
    return Status::OK();
  }

 private:
  const TreeRef<D> tree_;
  KeyFn key_;
  QueryScratch<D>* scratch_;
  QueryStats* stats_;
  const char* bad_magic_message_;
};

}  // namespace spatial

#endif  // SPATIAL_CORE_GEO_BROWSE_H_
