#ifndef SPATIAL_CORE_TREE_REF_H_
#define SPATIAL_CORE_TREE_REF_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/status.h"
#include "core/scratch.h"
#include "geom/metrics_simd.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/resident_tree.h"

namespace spatial {

// One expanded node, in the exact form the traversals consume: the SoA
// planes the SIMD kernels read and an id column. Produced by
// TreeRef::Expand from either backend; the traversal code is identical
// for both, which is what keeps the resident tier's answers and visit order
// bit-identical to the paged path.
//
// Id access is strided because the paged leaf path reads ids in place from
// the pinned page image (id embedded in Entry<D>), while every other path
// has a dense uint64_t column. Internal nodes guarantee density, so descent
// loops use child_ids() directly.
template <int D>
struct ExpandedNode {
  SoaBlock<D> soa;
  const char* id_base = nullptr;
  size_t id_stride = 0;  // bytes between consecutive ids
  uint32_t count = 0;
  uint16_t level = 0;
  // Paged leaves only: the pin that keeps `id_base` (and soa.planes'
  // source) valid. Released with the ExpandedNode. Never held for internal
  // nodes — descent recursion must keep pin-depth at one frame.
  PageHandle pin;

  bool is_leaf() const { return level == 0; }

  uint64_t id(uint32_t i) const {
    uint64_t v;
    std::memcpy(&v, id_base + static_cast<size_t>(i) * id_stride, sizeof(v));
    return v;
  }

  // Dense id column; valid only when Expand guaranteed density (internal
  // nodes from either backend, resident leaves).
  const uint64_t* dense_ids() const {
    return reinterpret_cast<const uint64_t*>(id_base);
  }
};

// One handle over either tree backend: a paged RTree (borrowing its buffer
// pool) or a compiled ResidentTree (storage/resident_tree.h). Every core
// entry point that serves both tiers takes a TreeRef, and both tree types
// convert to it implicitly, so callers pass whichever tree they hold.
//
// Expand() is the uniform node expansion. Paged: fetch the page through
// the buffer pool, stage its SoA planes into the scratch arena and (for
// internal nodes) copy the child-id column out so the pin can drop before
// descent. Resident: one table lookup — the planes and ids already sit in
// the compiled arena, so the scratch arena is not touched at all.
//
// The handle borrows the tree and snapshots its root and emptiness; it is
// copy-free to construct, and must not outlive the tree or a mutation of
// it.
template <int D>
class TreeRef {
 public:
  TreeRef(const RTree<D>& tree)  // NOLINT: implicit by design
      : pool_(tree.pool()),
        resident_(nullptr),
        root_page_(tree.root_page()),
        empty_(tree.empty()) {}
  TreeRef(const ResidentTree<D>& tree)  // NOLINT: implicit by design
      : pool_(nullptr),
        resident_(&tree),
        root_page_(tree.root_page()),
        empty_(tree.empty()) {}

  bool resident() const { return resident_ != nullptr; }
  // The compiled tree; non-null iff resident().
  const ResidentTree<D>* resident_tree() const { return resident_; }
  PageId root_page() const { return root_page_; }
  bool empty() const { return empty_; }

  // Expands node `id` into `out`. `bad_magic_message` is the Corruption
  // text for a page that fails the magic check (per-caller so the paged
  // traversals keep their established error strings); the resident backend
  // reports an unknown id as Corruption too — a compiled tree contains
  // every page its root reaches, so a miss means the caller's root does not
  // belong to this compiled tree.
  Status Expand(PageId id, QueryScratch<D>* scratch, ExpandedNode<D>* out,
                const char* bad_magic_message) const {
    if (resident_ != nullptr) {
      const ResidentNodeRef<D>* node = resident_->Find(id);
      if (node == nullptr) {
        return Status::Corruption("resident tree: unknown node page");
      }
      out->soa = node->soa();
      out->id_base = reinterpret_cast<const char*>(node->ids);
      out->id_stride = sizeof(uint64_t);
      out->count = node->count;
      out->level = node->level;
      return Status::OK();
    }

    SPATIAL_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(id));
    NodeView<D> view(handle.data(), pool_->page_size());
    if (!view.has_valid_magic()) {
      return Status::Corruption(bad_magic_message);
    }
    const uint32_t n = view.count();
    out->count = n;
    out->level = view.level();
    if (n == 0) return Status::OK();
    const Entry<D>* page_entries = view.entries();
    out->soa = scratch->StageSoa(page_entries, n);
    if (view.is_leaf()) {
      // Leaves recurse no further: hold the pin and read ids in place.
      out->id_base = reinterpret_cast<const char*>(page_entries) +
                     offsetof(Entry<D>, id);
      out->id_stride = sizeof(Entry<D>);
      out->pin = std::move(handle);
    } else {
      // Internal nodes: copy the one column descent needs, then drop the
      // pin so pin-depth stays at one frame however deep the tree.
      uint64_t* child_ids = scratch->child_ids.EnsureCapacity(n);
      for (uint32_t i = 0; i < n; ++i) child_ids[i] = page_entries[i].id;
      out->id_base = reinterpret_cast<const char*>(child_ids);
      out->id_stride = sizeof(uint64_t);
    }
    return Status::OK();
  }

 private:
  BufferPool* pool_;
  const ResidentTree<D>* resident_;
  PageId root_page_;
  bool empty_;
};

// The spelling core entry points use for their tree parameter: TreeRef<D>
// in a non-deduced context, so D is deduced from the other arguments and
// an RTree or ResidentTree argument converts implicitly.
template <int D>
using TreeArg = std::type_identity_t<TreeRef<D>>;

}  // namespace spatial

#endif  // SPATIAL_CORE_TREE_REF_H_
