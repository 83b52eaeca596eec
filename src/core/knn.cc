#include "core/knn.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "core/node_access.h"
#include "geom/metrics.h"
#include "geom/metrics_simd.h"
#include "rtree/node.h"

namespace spatial {

const char* AblOrderingName(AblOrdering ordering) {
  switch (ordering) {
    case AblOrdering::kMinDist:
      return "mindist";
    case AblOrdering::kMinMaxDist:
      return "minmaxdist";
    case AblOrdering::kNone:
      return "none";
  }
  return "unknown";
}

namespace {

// Relative slack applied to MINMAXDIST-based pruning (S1/S2). MINDIST of a
// descendant box and MINMAXDIST of an ancestor box can denote the same
// geometric distance yet differ by an ulp, because they are computed through
// different floating-point expression trees; without slack, strict
// comparisons can prune the branch holding the guaranteed object. Inflating
// the upper bound keeps it an upper bound, so correctness is unaffected.
// (S3 needs no slack: MINDIST(q, box) <= dist(q, object) holds in floating
// point by monotonicity of per-dimension clamping.)
constexpr double kMinMaxSlack = 1.0 + 1e-9;

// ABL orderings. Ties on the distance key are broken by child page id so
// that every traversal path (full sort, lazy heap) visits tied siblings in
// the same order — the visit-order tests rely on this determinism.
inline bool MinDistLess(const AblSlot& a, const AblSlot& b) {
  if (a.min_dist_sq != b.min_dist_sq) return a.min_dist_sq < b.min_dist_sq;
  return a.child < b.child;
}
inline bool MinMaxDistLess(const AblSlot& a, const AblSlot& b) {
  if (a.min_max_dist_sq != b.min_max_dist_sq) {
    return a.min_max_dist_sq < b.min_max_dist_sq;
  }
  return a.child < b.child;
}

// Truncates the shared ABL arena back to this recursion level's base on
// every exit path (shrinking never allocates).
struct AblFrame {
  std::vector<AblSlot>* arena;
  size_t base;
  ~AblFrame() { arena->resize(base); }
};

// Compile-time node-access policies. The traversal below is templated on
// one of these rather than branching per visit, so the resident
// instantiation compiles down to a table lookup with no ExpandedNode
// staging, no PageHandle, and no backend branch on its hot path — the
// paged instantiation is exactly the NodeAccessor expansion it always was.
// Both yield nodes with the same count/level/soa/id accessors, so the
// traversal source (and therefore answers, visit order, and stats) is
// identical for both backends.
template <int D>
class PagedAccess {
 public:
  using Node = ExpandedNode<D>;
  explicit PagedAccess(const RTree<D>& tree) : access_(tree) {}
  Status Expand(PageId id, QueryScratch<D>* scratch, Node* storage,
                const Node** out, const char* bad_magic_message) const {
    *out = storage;
    return access_.Expand(id, scratch, storage, bad_magic_message);
  }
  void Prefetch(PageId) const {}

 private:
  const NodeAccessor<D> access_;
};

template <int D>
class ResidentAccess {
 public:
  using Node = ResidentNodeRef<D>;
  explicit ResidentAccess(const ResidentTree<D>& tree) : tree_(&tree) {}
  Status Expand(PageId id, QueryScratch<D>*, Node*, const Node** out,
                const char*) const {
    const ResidentNodeRef<D>* node = tree_->Find(id);
    if (node == nullptr) {
      return Status::Corruption("resident tree: unknown node page");
    }
    *out = node;
    return Status::OK();
  }
  void Prefetch(PageId id) const {
    if (const ResidentNodeRef<D>* node = tree_->Find(id)) {
      __builtin_prefetch(node->planes);
    }
  }

 private:
  const ResidentTree<D>* tree_;
};

// The SoA planes in the form the kernels take, from either node shape (the
// paged ExpandedNode carries the staged block by value, the resident node
// derives it from its arena record).
template <int D>
inline const SoaBlock<D>& NodeSoa(const ExpandedNode<D>& node) {
  return node.soa;
}
template <int D>
inline SoaBlock<D> NodeSoa(const ResidentNodeRef<D>& node) {
  return node.soa();
}

// The depth-first branch-and-bound search, generic over the node backend:
// the Access policy expands pages from either the paged buffer pool or a
// compiled ResidentTree, so one traversal serves both tiers with
// bit-identical answers and visit order.
//
// kObserved selects the instrumented instantiation: stats accumulation,
// trace counting, and visit recording all compile away when the caller
// passed none of them (the steady-state serving shape), instead of costing
// a dozen predictable-but-present branches per visit. Both instantiations
// run the identical search — observation never feeds back into pruning.
template <int D, class Access, bool kObserved>
class DepthFirstKnn {
 public:
  DepthFirstKnn(const Access& access, PageId root_page,
                const Point<D>& query, const KnnOptions& options,
                QueryScratch<D>* scratch, QueryStats* stats)
      : access_(access),
        root_page_(root_page),
        query_(query),
        options_(options),
        scratch_(scratch),
        stats_(stats),
        // S1/S2 depend on MINMAXDIST bounding a *single* object, so they
        // are sound only for k = 1.
        s1_active_(options.use_s1 && options.k == 1),
        s2_active_(options.use_s2 && options.k == 1),
        // Under MINDIST ordering the ABL is consumed in ascending-MINDIST
        // order until the bound kills the rest, so entries are selected
        // lazily (min-scan per visited child) instead of fully sorted.
        // Selection order equals sorted order (ties broken by page id in
        // both), and the prune bound only ever tightens, so the moment the
        // remaining minimum exceeds it every remaining entry is dead —
        // exactly the set the sorted loop would skip. The traversal is
        // therefore unchanged for every k.
        lazy_heap_(options.ordering == AblOrdering::kMinDist &&
                   !options.force_full_sort),
        // inf * inf == inf, so an unbounded search still seeds at +inf.
        max_dist_sq_(options.max_distance * options.max_distance),
        // At epsilon = 0 this is exactly 1.0, and bound * 1.0 == bound
        // bitwise for every finite double and +-inf, so the exact path is
        // unchanged — no branch needed.
        relax_sq_(1.0 /
                  ((1.0 + options.epsilon) * (1.0 + options.epsilon))),
        visit_budget_(options.max_visits) {}

  Status Run(std::vector<Neighbor>* out, bool append) {
    scratch_->buffer.Reset(options_.k);
    scratch_->abl.clear();
    SPATIAL_RETURN_IF_ERROR(Visit(root_page_));
    scratch_->buffer.ExtractSorted(out, append);
    return Status::OK();
  }

 private:
  // Current pruning bound for *descent*: actual k-th nearest distance (S3)
  // combined with the MINMAXDIST-based estimate (S2). Branches at MINDIST
  // strictly above the bound cannot improve the result. The bound is
  // seeded at max_distance^2 (distance-bounded kNN; +inf when unbounded)
  // and the final value is relaxed by 1/(1+epsilon)^2 (approximate kNN):
  // every object inside a skipped subtree satisfies
  // dist^2 >= mindist^2 > bound_at_skip * relax_sq, and bound_at_skip
  // never goes below the final k-th answer distance, which yields the
  // per-answer contract r_i <= (1+epsilon) * t_i.
  double PruneBoundSq() const {
    double bound = max_dist_sq_;
    if (options_.use_s3) bound = std::min(bound, scratch_->buffer.WorstDistSq());
    if (s2_active_) bound = std::min(bound, estimate_sq_);
    // Cross-shard streaming: another shard's published k-th distance is a
    // valid upper bound on the global k-th distance (core/shared_bound.h).
    if (options_.shared_bound != nullptr) {
      bound = std::min(bound, options_.shared_bound->LoadSq());
    }
    return bound * relax_sq_;
  }

  // Object-level bound: the same combination *without* the epsilon
  // relaxation. Leaf objects have their exact distances in hand by the
  // time they are filtered (the kernel computes all of them in one plane
  // pass), so discarding one under the relaxed bound would give up answer
  // quality without saving any work. The relaxation therefore gates only
  // descent decisions (PruneBoundSq above); within every visited leaf the
  // buffer keeps the genuinely best objects. The (1+epsilon) contract is
  // untouched — its proof only concerns subtrees that were never entered —
  // and at epsilon = 0 the two bounds are bitwise identical.
  double ObjectBoundSq() const {
    double bound = max_dist_sq_;
    if (options_.use_s3) bound = std::min(bound, scratch_->buffer.WorstDistSq());
    if (s2_active_) bound = std::min(bound, estimate_sq_);
    if (options_.shared_bound != nullptr) {
      bound = std::min(bound, options_.shared_bound->LoadSq());
    }
    return bound;
  }

  // Publishes this search's local k-th distance to the shared bound once
  // the buffer holds k candidates; called whenever an offer tightened it.
  void PublishBound() {
    if (options_.shared_bound != nullptr && scratch_->buffer.full()) {
      options_.shared_bound->TightenSq(scratch_->buffer.WorstDistSq());
    }
  }

  Status VisitLeaf(const typename Access::Node& node) {
    // Object distances through the dispatched SoA kernel over the node's
    // planes — staged per visit by the paged backend, precomputed at
    // compile time by the resident one. Distance evaluation and the entry-
    // bound prefilter are fused into one plane pass: the kernel emits the
    // same distance array and the same ascending survivor set the separate
    // compute + FilterNotAboveSoa passes produced (every index it drops
    // would fail the in-loop test below as well, since the bound only
    // tightens from here), without re-streaming the finished array.
    const uint32_t n = node.count;
    const auto& soa = NodeSoa(node);
    double* dist =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    NeighborBuffer& buffer = scratch_->buffer;
    // The bound only tightens when an offer is kept, so it is hoisted out
    // of the loop and refreshed on that event alone. Objects compete at
    // the unrelaxed bound (see ObjectBoundSq).
    double bound_sq = ObjectBoundSq();
    uint32_t* idx =
        scratch_->filter_idx.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    const uint32_t kept = ks_.min_dist_filter(query_.coord.data(), soa.planes,
                                              soa.stride, soa.n, bound_sq,
                                              dist, idx);
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        stats_->objects_examined += n;
        stats_->distance_computations += n;
        stats_->pruned_leaf += n - kept;
      }
    }
    for (uint32_t j = 0; j < kept; ++j) {
      const uint32_t i = idx[j];
      // An entry already beyond the (now possibly tighter) prune bound
      // cannot enter the answer; skipping it avoids the buffer's sift work.
      if (dist[i] > bound_sq) {
        if constexpr (kObserved) {
          if (stats_ != nullptr) ++stats_->pruned_leaf;
        }
        continue;
      }
      if (buffer.Offer(node.id(i), dist[i])) {
        PublishBound();
        bound_sq = ObjectBoundSq();
      }
    }
    return Status::OK();
  }

  Status Visit(PageId node_id) {
    // Early-termination budget (kApproxKnn): once max_visits nodes have
    // been expanded the whole descent unwinds and the buffer's current
    // contents become the answer. Checked before the expand so the visit
    // that trips the budget is never charged.
    if (visit_budget_ != 0) {
      if (visits_ >= visit_budget_) {
        stopped_ = true;
        return Status::OK();
      }
      ++visits_;
    }
    typename Access::Node storage;
    const typename Access::Node* node_ptr = nullptr;
    SPATIAL_RETURN_IF_ERROR(access_.Expand(node_id, scratch_, &storage,
                                           &node_ptr,
                                           "knn: node page has bad magic"));
    const typename Access::Node& node = *node_ptr;
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        ++stats_->nodes_visited;
        if (node.is_leaf()) {
          ++stats_->leaf_nodes_visited;
        } else {
          ++stats_->internal_nodes_visited;
        }
      }
      if (obs::TraceContext* t = scratch_->trace) t->CountNode(node.level);
      if (options_.visit_trace != nullptr) {
        options_.visit_trace->push_back(node_id);
      }
    }

    const uint32_t n = node.count;
    if (n == 0) return Status::OK();

    if (node.is_leaf()) return VisitLeaf(node);

    // Internal node: the planes and the dense child-id column are ready
    // (Expand already dropped any pin), so go straight to the metrics.
    // Evaluate them for all children in one pass. MINMAXDIST is needed
    // only by S1/S2 and by the MINMAXDIST ordering; when it is, the fused
    // kernel produces both metrics from a single traversal of the planes.
    const uint64_t* child_ids = node.dense_ids();
    const auto& soa = NodeSoa(node);
    double* dmin =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    uint32_t* idx =
        scratch_->filter_idx.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    const bool minmax_ordering =
        options_.ordering == AblOrdering::kMinMaxDist;
    const bool need_minmax = s1_active_ || s2_active_ || minmax_ordering;
    // Three single-pass shapes, picked by who consumes what:
    //  - S1/S2 under MINDIST ordering (the k == 1 hot path) only ever reads
    //    the *minimum* MINMAXDIST, so the fused reduce kernel returns that
    //    scalar directly and the per-entry array is never materialized. The
    //    reduced min is bit-identical to std::min over the array the fused
    //    kernel would have written (min over an identical value set).
    //  - MINMAXDIST ordering needs the per-entry array for the sort, so it
    //    keeps the two-array fused kernel (+ scalar reduce when S1/S2 also
    //    want the min).
    //  - Neither active: MINDIST and the S3 bound prefilter fuse into one
    //    pass; the survivor set matches compute-then-FilterNotAboveSoa
    //    exactly (PruneBoundSq cannot tighten mid-node — no offers happen
    //    between here and the filter in the unfused form).
    double* dminmax = nullptr;
    double min_minmax = std::numeric_limits<double>::infinity();
    bool prefiltered = false;
    uint32_t kept = 0;
    if ((s1_active_ || s2_active_) && !minmax_ordering) {
      min_minmax = ks_.min_dist_min_minmax(query_.coord.data(), soa.planes,
                                           soa.stride, soa.n, dmin);
    } else if (need_minmax) {
      dminmax =
          scratch_->min_max_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
      ks_.min_and_min_max(query_.coord.data(), soa.planes, soa.stride, soa.n,
                          dmin, dminmax);
      if (s1_active_ || s2_active_) {
        for (uint32_t i = 0; i < n; ++i) {
          min_minmax = std::min(min_minmax, dminmax[i]);
        }
      }
    } else {
      kept = ks_.min_dist_filter(query_.coord.data(), soa.planes, soa.stride,
                                 soa.n, PruneBoundSq(), dmin, idx);
      prefiltered = true;
    }
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        stats_->abl_entries_generated += n;
        stats_->distance_computations += need_minmax ? 2 * uint64_t{n} : n;
      }
    }

    // Strategy 1 filters with the vector kernel and pushes only the
    // surviving slots (`<= bound` is exactly `!(> bound)` for these
    // never-NaN distances, and the filter preserves index order, so the ABL
    // contents match the old push-all-then-compact loop bit for bit). The
    // slot's min_max_dist_sq is only read under MINMAXDIST ordering — the
    // one case where the per-entry array exists — so the reduce-only path
    // stores 0.0 there without changing any comparison.
    std::vector<AblSlot>& abl = scratch_->abl;
    AblFrame frame{&abl, abl.size()};
    const size_t base = frame.base;
    bool pushed = false;
    if (s1_active_ || s2_active_) {
      if (s1_active_) {
        // Strategy 1: some sibling is guaranteed to contain an object at
        // distance <= min_minmax; branches strictly beyond it are dead.
        const double s1_bound = min_minmax * kMinMaxSlack;
        kept = ks_.filter_not_above(dmin, n, s1_bound, idx);
        if constexpr (kObserved) {
          if (stats_ != nullptr) stats_->pruned_s1 += n - kept;
        }
        for (uint32_t j = 0; j < kept; ++j) {
          const uint32_t i = idx[j];
          abl.push_back(AblSlot{static_cast<PageId>(child_ids[i]), dmin[i],
                                dminmax != nullptr ? dminmax[i] : 0.0});
        }
        pushed = true;
      }
      if (s2_active_ && min_minmax * kMinMaxSlack < estimate_sq_) {
        // Strategy 2: tighten the NN distance estimate.
        estimate_sq_ = min_minmax * kMinMaxSlack;
        if constexpr (kObserved) {
          if (stats_ != nullptr) ++stats_->estimate_updates_s2;
        }
      }
    }
    if (!pushed) {
      // Strategy-3 prefilter: a child at MINDIST beyond the current bound
      // can never be descended — the bound only tightens from here, and
      // every consumption loop below rechecks it — so such children skip
      // the ABL entirely and are charged to pruned_s3 now instead of when
      // the consumption loop would have reached them. Same visits, same
      // counts, but the selection scan and sort touch only live slots.
      if (!prefiltered) {
        kept = ks_.filter_not_above(dmin, n, PruneBoundSq(), idx);
      }
      if constexpr (kObserved) {
        if (stats_ != nullptr) stats_->pruned_s3 += n - kept;
      }
      for (uint32_t j = 0; j < kept; ++j) {
        const uint32_t i = idx[j];
        abl.push_back(AblSlot{static_cast<PageId>(child_ids[i]), dmin[i],
                              dminmax != nullptr ? dminmax[i] : 0.0});
      }
    }
    const size_t m = abl.size() - base;
    // The surviving children are about to be visited in MINDIST order;
    // start pulling their arena records into cache so the selection scan
    // below overlaps the memory latency. Compiles away for paged access.
    for (size_t i = 0; i < m; ++i) access_.Prefetch(abl[base + i].child);

    if (lazy_heap_) {
      // Consume children in MINDIST order by scanning the frame for the
      // remaining minimum each round, visiting until that minimum exceeds
      // the bound — at that point *every* remaining child exceeds it.
      // Selection order equals heap-pop order equals sorted order (ties
      // broken by page id in all three, and the scan compares the whole
      // remaining set, so its result is independent of slot order), but at
      // node fan-outs the scan beats a heap: the bound usually kills the
      // descent after a handful of children, and the scan writes nothing,
      // where make_heap shuffles 24-byte slots even for children that are
      // never visited.
      size_t live = m;
      while (live > 0) {
        // Recompute the frame pointer each round: recursion below may grow
        // (and reallocate) the arena past this frame.
        AblSlot* slots = abl.data() + base;
        size_t best = 0;
        for (size_t i = 1; i < live; ++i) {
          if (MinDistLess(slots[i], slots[best])) best = i;
        }
        const AblSlot slot = slots[best];
        if (slot.min_dist_sq > PruneBoundSq()) {
          if constexpr (kObserved) {
            if (stats_ != nullptr) {
              stats_->pruned_s3 += static_cast<uint64_t>(live);
            }
          }
          break;
        }
        slots[best] = slots[--live];  // unordered remove; the set survives
        SPATIAL_RETURN_IF_ERROR(Visit(slot.child));
        if (stopped_) break;
      }
      return Status::OK();
    }

    // The comparators are wrapped in lambdas so std::sort instantiates on a
    // unique inlinable closure type; passing the functions themselves would
    // make every comparison an indirect call through a function pointer.
    switch (options_.ordering) {
      case AblOrdering::kMinDist:
        std::sort(abl.begin() + base, abl.end(),
                  [](const AblSlot& a, const AblSlot& b) {
                    return MinDistLess(a, b);
                  });
        break;
      case AblOrdering::kMinMaxDist:
        std::sort(abl.begin() + base, abl.end(),
                  [](const AblSlot& a, const AblSlot& b) {
                    return MinMaxDistLess(a, b);
                  });
        break;
      case AblOrdering::kNone:
        break;
    }

    // Recurse in ABL order, re-testing the bound after every return
    // (strategy 3 / upward pruning).
    for (size_t i = 0; i < m; ++i) {
      const AblSlot slot = abl[base + i];  // copy: recursion moves the arena
      if (slot.min_dist_sq > PruneBoundSq()) {
        if constexpr (kObserved) {
          if (stats_ != nullptr) ++stats_->pruned_s3;
        }
        continue;
      }
      SPATIAL_RETURN_IF_ERROR(Visit(slot.child));
      if (stopped_) break;
    }
    return Status::OK();
  }

  const Access access_;
  const PageId root_page_;
  const Point<D> query_;
  const KnnOptions options_;
  QueryScratch<D>* scratch_;
  QueryStats* stats_;
  // The dispatched kernel set, resolved once per search: the per-call
  // wrappers in metrics_simd.h re-read a function-local static behind an
  // init guard, which a traversal making several kernel calls per visit
  // has no reason to pay.
  const SoaKernelSet& ks_ = SoaKernels<D>();
  const bool s1_active_;
  const bool s2_active_;
  const bool lazy_heap_;
  const double max_dist_sq_;
  const double relax_sq_;
  const uint64_t visit_budget_;
  uint64_t visits_ = 0;
  bool stopped_ = false;
  double estimate_sq_ = std::numeric_limits<double>::infinity();
};

// Global best-first traversal for the approximate search (an active
// epsilon and/or visit budget): nodes are expanded in ascending-MINDIST
// order off one priority queue instead of depth-first, because both knobs
// need the *global* order to bite:
//
//  - The epsilon-relaxed cutoff is final the moment the queue's minimum
//    key exceeds bound/(1+eps)^2 — every unexpanded node is at least that
//    far, so the traversal ends without the verification tail the
//    depth-first shape pays (DFS must keep visiting siblings to prove the
//    bound; the global order proves it by construction).
//  - A visit budget spent here buys the globally most promising nodes.
//    Spent on a DFS it buys a depth-first prefix of the first subtree,
//    which is why budgeted DFS recall collapses (measured in E21).
//
// Exact kNN keeps the paper's depth-first engine untouched; this path is
// entered only when an approximation knob is active, so zero-knob
// requests remain bit-identical to the exact search by running the same
// code. S1/S2 are MINMAXDIST descent heuristics of the DFS shape (k = 1
// only) and are not consulted here; S3, max_distance, and the shared
// shard bound compose exactly as in the DFS engine — objects compete at
// the unrelaxed bound, descent and termination use the relaxed one, so
// the (1+epsilon) per-rank contract argument carries over unchanged.
template <int D, class Access, bool kObserved>
class BestFirstApproxKnn {
 public:
  BestFirstApproxKnn(const Access& access, PageId root_page,
                     const Point<D>& query, const KnnOptions& options,
                     QueryScratch<D>* scratch, QueryStats* stats)
      : access_(access),
        root_page_(root_page),
        query_(query),
        options_(options),
        scratch_(scratch),
        stats_(stats),
        max_dist_sq_(options.max_distance * options.max_distance),
        relax_sq_(1.0 /
                  ((1.0 + options.epsilon) * (1.0 + options.epsilon))),
        visit_budget_(options.max_visits) {}

  Status Run(std::vector<Neighbor>* out, bool append) {
    scratch_->buffer.Reset(options_.k);
    std::vector<KnnFrameHeapItem>& heap = scratch_->knn_heap;
    std::vector<KnnChildSlot>& kids = scratch_->knn_children;
    heap.clear();
    kids.clear();
    uint64_t visits = 0;
    // Direct-descent slot: an expanded node's best child usually beats the
    // current heap minimum (keys only grow downward), so it is handed to
    // the next iteration here instead of round-tripping through the heap.
    // Best-first order is preserved exactly — the slot is only armed when
    // its key is <= the heap minimum, so it *is* the global minimum (and
    // stays so: everything pushed while it is armed keys at or above it
    // by MBR containment).
    bool has_next = true;
    double next_key = 0.0;
    PageId next_node = root_page_;
    while (true) {
      if (visit_budget_ != 0 && visits >= visit_budget_) break;
      double key;
      PageId node_id;
      if (has_next) {
        key = next_key;
        node_id = next_node;
        has_next = false;
        // The key is a lower bound on every remaining subtree, so one
        // relaxed-bound comparison terminates the whole search.
        if (key > PruneBoundSq()) break;
      } else if (!heap.empty()) {
        // A frame's key is the exact minimum over its live children, so
        // the same single comparison terminates before the frame is even
        // resolved.
        const KnnFrameHeapItem top = heap.front();
        if (top.dist_sq > PruneBoundSq()) break;
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
        // Resolve the frame: one scan finds the minimum child (the node to
        // visit) and the runner-up key, which re-keys the successor frame.
        KnnChildSlot* slot = kids.data();
        uint32_t m1 = top.pos;
        double min2 = std::numeric_limits<double>::infinity();
        for (uint32_t i = top.pos + 1; i < top.end; ++i) {
          if (slot[i].dist_sq < slot[m1].dist_sq ||
              (slot[i].dist_sq == slot[m1].dist_sq &&
               slot[i].page < slot[m1].page)) {
            min2 = slot[m1].dist_sq;
            m1 = i;
          } else if (slot[i].dist_sq < min2) {
            min2 = slot[i].dist_sq;
          }
        }
        key = slot[m1].dist_sq;
        node_id = static_cast<PageId>(slot[m1].page);
        if (top.pos + 1 < top.end) {
          std::swap(slot[m1], slot[top.pos]);
          heap.push_back(KnnFrameHeapItem{min2, top.pos + 1, top.end});
          std::push_heap(heap.begin(), heap.end());
        }
      } else {
        break;
      }
      ++visits;
      SPATIAL_RETURN_IF_ERROR(
          Visit(node_id, &has_next, &next_key, &next_node));
    }
    scratch_->buffer.ExtractSorted(out, append);
    return Status::OK();
  }

 private:
  // Same bound pair as the DFS engine (minus S2, which never arms here):
  // descent and termination at the relaxed bound, object competition at
  // the exact one.
  double PruneBoundSq() const {
    double bound = max_dist_sq_;
    if (options_.use_s3) bound = std::min(bound, scratch_->buffer.WorstDistSq());
    if (options_.shared_bound != nullptr) {
      bound = std::min(bound, options_.shared_bound->LoadSq());
    }
    return bound * relax_sq_;
  }
  double ObjectBoundSq() const {
    double bound = max_dist_sq_;
    if (options_.use_s3) bound = std::min(bound, scratch_->buffer.WorstDistSq());
    if (options_.shared_bound != nullptr) {
      bound = std::min(bound, options_.shared_bound->LoadSq());
    }
    return bound;
  }

  void PublishBound() {
    if (options_.shared_bound != nullptr && scratch_->buffer.full()) {
      options_.shared_bound->TightenSq(scratch_->buffer.WorstDistSq());
    }
  }

  Status Visit(PageId node_id, bool* has_next, double* next_key,
               PageId* next_node) {
    typename Access::Node storage;
    const typename Access::Node* node_ptr = nullptr;
    SPATIAL_RETURN_IF_ERROR(access_.Expand(node_id, scratch_, &storage,
                                           &node_ptr,
                                           "knn: node page has bad magic"));
    const typename Access::Node& node = *node_ptr;
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        ++stats_->nodes_visited;
        if (node.is_leaf()) {
          ++stats_->leaf_nodes_visited;
        } else {
          ++stats_->internal_nodes_visited;
        }
      }
      if (obs::TraceContext* t = scratch_->trace) t->CountNode(node.level);
      if (options_.visit_trace != nullptr) {
        options_.visit_trace->push_back(node_id);
      }
    }

    const uint32_t n = node.count;
    if (n == 0) return Status::OK();
    const auto& soa = NodeSoa(node);
    double* dist =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    uint32_t* idx =
        scratch_->filter_idx.EnsureCapacity(QueryScratch<D>::DistSlots(n));

    if (node.is_leaf()) {
      // Identical to the DFS leaf pass: fused distance + exact-bound
      // prefilter, offers at the unrelaxed bound.
      NeighborBuffer& buffer = scratch_->buffer;
      double bound_sq = ObjectBoundSq();
      const uint32_t kept = ks_.min_dist_filter(query_.coord.data(),
                                                soa.planes, soa.stride, soa.n,
                                                bound_sq, dist, idx);
      if constexpr (kObserved) {
        if (stats_ != nullptr) {
          stats_->objects_examined += n;
          stats_->distance_computations += n;
          stats_->pruned_leaf += n - kept;
        }
      }
      for (uint32_t j = 0; j < kept; ++j) {
        const uint32_t i = idx[j];
        if (dist[i] > bound_sq) {
          if constexpr (kObserved) {
            if (stats_ != nullptr) ++stats_->pruned_leaf;
          }
          continue;
        }
        if (buffer.Offer(node.id(i), dist[i])) {
          PublishBound();
          bound_sq = ObjectBoundSq();
        }
      }
      return Status::OK();
    }

    // Internal node: children at MINDIST within the relaxed bound join the
    // global queue; the rest are pruned now (they could only be re-tested
    // against an even tighter bound later).
    const uint64_t* child_ids = node.dense_ids();
    const uint32_t kept = ks_.min_dist_filter(query_.coord.data(), soa.planes,
                                              soa.stride, soa.n,
                                              PruneBoundSq(), dist, idx);
    if constexpr (kObserved) {
      if (stats_ != nullptr) {
        stats_->abl_entries_generated += n;
        stats_->distance_computations += n;
        stats_->pruned_s3 += n - kept;
      }
    }
    if (kept == 0) return Status::OK();
    // The best child goes to the direct-descent slot when it is already at
    // or below the heap minimum (tie goes to descent — equal keys may be
    // expanded in either order without affecting any bound); its siblings
    // become one arena frame behind a single heap entry keyed by their
    // minimum (lazy sibling expansion — see KnnFrameHeapItem).
    uint32_t best = idx[0];
    for (uint32_t j = 1; j < kept; ++j) {
      const uint32_t i = idx[j];
      if (dist[i] < dist[best] ||
          (dist[i] == dist[best] && child_ids[i] < child_ids[best])) {
        best = i;
      }
    }
    std::vector<KnnFrameHeapItem>& heap = scratch_->knn_heap;
    std::vector<KnnChildSlot>& kids = scratch_->knn_children;
    const bool descend = heap.empty() || !(heap.front().dist_sq < dist[best]);
    const uint32_t start = static_cast<uint32_t>(kids.size());
    double frame_min = std::numeric_limits<double>::infinity();
    for (uint32_t j = 0; j < kept; ++j) {
      const uint32_t i = idx[j];
      if (descend && i == best) continue;
      if (dist[i] < frame_min) frame_min = dist[i];
      kids.push_back(KnnChildSlot{dist[i], child_ids[i]});
    }
    if (kids.size() > start) {
      heap.push_back(KnnFrameHeapItem{frame_min, start,
                                      static_cast<uint32_t>(kids.size())});
      std::push_heap(heap.begin(), heap.end());
    }
    if (descend) {
      *has_next = true;
      *next_key = dist[best];
      *next_node = static_cast<PageId>(child_ids[best]);
    }
    return Status::OK();
  }

  const Access access_;
  const PageId root_page_;
  const Point<D> query_;
  const KnnOptions options_;
  QueryScratch<D>* scratch_;
  QueryStats* stats_;
  const SoaKernelSet& ks_ = SoaKernels<D>();
  const double max_dist_sq_;
  const double relax_sq_;
  const uint64_t visit_budget_;
};

template <int D, class Access>
Status KnnSearchIntoImpl(const Access& access, PageId root_page, bool empty,
                         const Point<D>& query, const KnnOptions& options,
                         QueryScratch<D>* scratch, std::vector<Neighbor>* out,
                         QueryStats* stats) {
  SPATIAL_CHECK(scratch != nullptr && out != nullptr);
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  out->clear();
  if (empty) return Status::OK();
  // An active approximation knob selects the best-first engine; zero-knob
  // searches take the paper's depth-first engine, bit for bit.
  const bool approx = options.epsilon > 0.0 || options.max_visits != 0;
  if (stats == nullptr && options.visit_trace == nullptr &&
      scratch->trace == nullptr) {
    if (approx) {
      BestFirstApproxKnn<D, Access, /*kObserved=*/false> search(
          access, root_page, query, options, scratch, stats);
      return search.Run(out, /*append=*/false);
    }
    DepthFirstKnn<D, Access, /*kObserved=*/false> search(
        access, root_page, query, options, scratch, stats);
    return search.Run(out, /*append=*/false);
  }
  if (approx) {
    BestFirstApproxKnn<D, Access, /*kObserved=*/true> search(
        access, root_page, query, options, scratch, stats);
    return search.Run(out, /*append=*/false);
  }
  DepthFirstKnn<D, Access, /*kObserved=*/true> search(access, root_page, query,
                                                      options, scratch, stats);
  return search.Run(out, /*append=*/false);
}

template <int D, class Access>
Status KnnSearchBatchImpl(const Access& access, PageId root_page, bool empty,
                          const Point<D>* queries, size_t num_queries,
                          const KnnOptions& options, QueryScratch<D>* scratch,
                          BatchKnnResult* out,
                          SharedPruneBound* const* bounds) {
  SPATIAL_CHECK(scratch != nullptr && out != nullptr);
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  if (options.shared_bound != nullptr) {
    return Status::InvalidArgument(
        "a kNN batch takes per-query bounds, not one shared bound");
  }
  out->Clear();
  out->offsets.push_back(0);
  KnnOptions query_options = options;
  for (size_t q = 0; q < num_queries; ++q) {
    out->stats.emplace_back();
    if (!empty) {
      query_options.shared_bound = bounds != nullptr ? bounds[q] : nullptr;
      DepthFirstKnn<D, Access, /*kObserved=*/true> search(
          access, root_page, queries[q], query_options, scratch,
          &out->stats.back());
      SPATIAL_RETURN_IF_ERROR(search.Run(&out->neighbors, /*append=*/true));
    }
    out->offsets.push_back(static_cast<uint32_t>(out->neighbors.size()));
  }
  return Status::OK();
}

}  // namespace

template <int D>
Status KnnSearchInto(const RTree<D>& tree, const Point<D>& query,
                     const KnnOptions& options, QueryScratch<D>* scratch,
                     std::vector<Neighbor>* out, QueryStats* stats) {
  return KnnSearchIntoImpl<D>(PagedAccess<D>(tree), tree.root_page(),
                              tree.empty(), query, options, scratch, out,
                              stats);
}

template <int D>
Status KnnSearchInto(const ResidentTree<D>& tree, const Point<D>& query,
                     const KnnOptions& options, QueryScratch<D>* scratch,
                     std::vector<Neighbor>* out, QueryStats* stats) {
  return KnnSearchIntoImpl<D>(ResidentAccess<D>(tree), tree.root_page(),
                              tree.empty(), query, options, scratch, out,
                              stats);
}

template <int D>
Result<std::vector<Neighbor>> KnnSearch(const RTree<D>& tree,
                                        const Point<D>& query,
                                        const KnnOptions& options,
                                        QueryStats* stats) {
  QueryScratch<D> scratch;
  std::vector<Neighbor> out;
  SPATIAL_RETURN_IF_ERROR(
      KnnSearchInto(tree, query, options, &scratch, &out, stats));
  return out;
}

template <int D>
Status KnnSearchBatch(const RTree<D>& tree, const Point<D>* queries,
                      size_t num_queries, const KnnOptions& options,
                      QueryScratch<D>* scratch, BatchKnnResult* out,
                      SharedPruneBound* const* bounds) {
  return KnnSearchBatchImpl<D>(PagedAccess<D>(tree), tree.root_page(),
                               tree.empty(), queries, num_queries, options,
                               scratch, out, bounds);
}

template <int D>
Status KnnSearchBatch(const ResidentTree<D>& tree, const Point<D>* queries,
                      size_t num_queries, const KnnOptions& options,
                      QueryScratch<D>* scratch, BatchKnnResult* out,
                      SharedPruneBound* const* bounds) {
  return KnnSearchBatchImpl<D>(ResidentAccess<D>(tree), tree.root_page(),
                               tree.empty(), queries, num_queries, options,
                               scratch, out, bounds);
}

template Result<std::vector<Neighbor>> KnnSearch<2>(const RTree<2>&,
                                                    const Point<2>&,
                                                    const KnnOptions&,
                                                    QueryStats*);
template Result<std::vector<Neighbor>> KnnSearch<3>(const RTree<3>&,
                                                    const Point<3>&,
                                                    const KnnOptions&,
                                                    QueryStats*);
template Result<std::vector<Neighbor>> KnnSearch<4>(const RTree<4>&,
                                                    const Point<4>&,
                                                    const KnnOptions&,
                                                    QueryStats*);

template Status KnnSearchInto<2>(const RTree<2>&, const Point<2>&,
                                 const KnnOptions&, QueryScratch<2>*,
                                 std::vector<Neighbor>*, QueryStats*);
template Status KnnSearchInto<3>(const RTree<3>&, const Point<3>&,
                                 const KnnOptions&, QueryScratch<3>*,
                                 std::vector<Neighbor>*, QueryStats*);
template Status KnnSearchInto<4>(const RTree<4>&, const Point<4>&,
                                 const KnnOptions&, QueryScratch<4>*,
                                 std::vector<Neighbor>*, QueryStats*);

template Status KnnSearchInto<2>(const ResidentTree<2>&, const Point<2>&,
                                 const KnnOptions&, QueryScratch<2>*,
                                 std::vector<Neighbor>*, QueryStats*);
template Status KnnSearchInto<3>(const ResidentTree<3>&, const Point<3>&,
                                 const KnnOptions&, QueryScratch<3>*,
                                 std::vector<Neighbor>*, QueryStats*);
template Status KnnSearchInto<4>(const ResidentTree<4>&, const Point<4>&,
                                 const KnnOptions&, QueryScratch<4>*,
                                 std::vector<Neighbor>*, QueryStats*);

template Status KnnSearchBatch<2>(const RTree<2>&, const Point<2>*, size_t,
                                  const KnnOptions&, QueryScratch<2>*,
                                  BatchKnnResult*, SharedPruneBound* const*);
template Status KnnSearchBatch<3>(const RTree<3>&, const Point<3>*, size_t,
                                  const KnnOptions&, QueryScratch<3>*,
                                  BatchKnnResult*, SharedPruneBound* const*);
template Status KnnSearchBatch<4>(const RTree<4>&, const Point<4>*, size_t,
                                  const KnnOptions&, QueryScratch<4>*,
                                  BatchKnnResult*, SharedPruneBound* const*);

template Status KnnSearchBatch<2>(const ResidentTree<2>&, const Point<2>*,
                                  size_t, const KnnOptions&, QueryScratch<2>*,
                                  BatchKnnResult*, SharedPruneBound* const*);
template Status KnnSearchBatch<3>(const ResidentTree<3>&, const Point<3>*,
                                  size_t, const KnnOptions&, QueryScratch<3>*,
                                  BatchKnnResult*, SharedPruneBound* const*);
template Status KnnSearchBatch<4>(const ResidentTree<4>&, const Point<4>*,
                                  size_t, const KnnOptions&, QueryScratch<4>*,
                                  BatchKnnResult*, SharedPruneBound* const*);

}  // namespace spatial
