#include "service/query_service.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <utility>

#include "core/constrained.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "core/reverse_knn.h"
#include "core/skyline.h"

namespace spatial {

namespace {

// Cap on how many queued write requests one group commit absorbs; bounds
// batch latency without limiting throughput (the next batch starts
// immediately).
constexpr size_t kMaxWriteBatch = 256;

uint64_t SinceNs(std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

// The inline lane a thread tries first: threads take successive lanes, so
// concurrent callers rarely contend for one.
uint32_t ThreadLaneHint() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t hint =
      next.fetch_add(1, std::memory_order_relaxed);
  return hint;
}

// Resets `r` to a default response, keeping its vectors' capacity.
template <int D>
void ResetKeepingCapacity(QueryResponse<D>* r) {
  QueryResponse<D> fresh;
  fresh.neighbors.swap(r->neighbors);
  fresh.entries.swap(r->entries);
  fresh.batch_offsets.swap(r->batch_offsets);
  fresh.neighbors.clear();
  fresh.entries.clear();
  fresh.batch_offsets.clear();
  *r = std::move(fresh);
}

}  // namespace

template <int D>
QueryService<D>::QueryService(const SpatialDb<D>* db,
                              std::unique_ptr<SpatialDb<D>> owned,
                              const Options& options)
    : options_(options),
      owned_db_(std::move(owned)),
      db_(db),
      queue_(options.queue_capacity),
      epoch_(std::chrono::steady_clock::now()) {}

template <int D>
Result<std::unique_ptr<QueryService<D>>> QueryService<D>::Open(
    const std::string& path, uint32_t page_size, const Options& options) {
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  // The service's own pool is used only to decode the superblock and
  // validate the root; queries run through the per-worker pools.
  SPATIAL_ASSIGN_OR_RETURN(
      SpatialDb<D> db,
      SpatialDb<D>::OpenFromFileReadOnly(path, page_size,
                                         /*buffer_pages=*/16));
  auto owned = std::make_unique<SpatialDb<D>>(std::move(db));
  const SpatialDb<D>* raw = owned.get();
  std::unique_ptr<QueryService<D>> service(
      new QueryService<D>(raw, std::move(owned), options));
  SPATIAL_RETURN_IF_ERROR(service->StartWorkers());
  return service;
}

template <int D>
Result<std::unique_ptr<QueryService<D>>> QueryService<D>::Attach(
    const SpatialDb<D>& db, const Options& options) {
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<QueryService<D>> service(
      new QueryService<D>(&db, nullptr, options));
  SPATIAL_RETURN_IF_ERROR(service->StartWorkers());
  return service;
}

template <int D>
Result<std::unique_ptr<QueryService<D>>> QueryService<D>::OpenServing(
    const std::string& path, const ServingOptions& serving_options,
    const Options& options) {
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  if (serving_options.max_reader_slots < options.num_workers) {
    return Status::InvalidArgument(
        "serving: max_reader_slots must cover every worker");
  }
  SPATIAL_ASSIGN_OR_RETURN(std::unique_ptr<ServingDb<D>> serving,
                           ServingDb<D>::Open(path, serving_options));
  const SpatialDb<D>* raw = &serving->db();
  std::unique_ptr<QueryService<D>> service(
      new QueryService<D>(raw, nullptr, options));
  service->serving_db_ = std::move(serving);
  SPATIAL_RETURN_IF_ERROR(service->StartWorkers());
  return service;
}

template <int D>
Status QueryService<D>::StartWorkers() {
  // Build every worker's private view/pool/tree before the first thread
  // starts, so worker construction needs no synchronization.
  PageId root_page = db_->tree().root_page();
  uint64_t tree_size = db_->tree().size();
  uint64_t reclaim_gen = 0;
  if (serving_db_ != nullptr) {
    const TreeSnapshot snap = serving_db_->CurrentSnapshot();
    root_page = snap.root_page;
    tree_size = snap.size;
    reclaim_gen = snap.reclaim_gen;
  }
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    // Distinct nonzero xorshift seeds per worker (value is arbitrary).
    worker->rng = 0x9E3779B97F4A7C15ULL * (i + 1) + 1;
    worker->disk = std::make_unique<ReadOnlyDiskView>(
        &db_->disk(), options_.simulated_read_latency_us,
        &worker->read_latency);
    worker->pool = std::make_unique<BufferPool>(
        worker->disk.get(), options_.frames_per_worker, options_.eviction);
    SPATIAL_ASSIGN_OR_RETURN(
        RTree<D> tree, RTree<D>::Open(worker->pool.get(),
                                      db_->tree().options(), root_page,
                                      tree_size));
    worker->tree.emplace(std::move(tree));
    if (serving_db_ != nullptr) {
      SPATIAL_ASSIGN_OR_RETURN(worker->reader_slot,
                               serving_db_->RegisterReader());
      worker->last_reclaim_gen = reclaim_gen;
      reader_slots_held_ = true;
    }
    workers_.push_back(std::move(worker));
  }
  if (options_.resident_tier) {
    // Best effort: no thread is running yet, so the walk needs no pin and
    // the publish needs no ordering. A failed compile (in practice: the
    // arena cap; a corrupt page would have failed Open already) silently
    // leaves every query on the paged path.
    uint64_t source_epoch = 0;
    if (serving_db_ != nullptr) {
      source_epoch = serving_db_->CurrentSnapshot().epoch;
    }
    if (CompileResident(root_page, tree_size, source_epoch).ok() &&
        serving_db_ == nullptr) {
      // Read-only trees are immutable for the service's lifetime, so the
      // hot paths can hold the raw pointer and skip resident_mu_ per query.
      resident_fixed_ = resident_.get();
    }
  }
  for (uint32_t i = 0; i < kInlineLanes; ++i) {
    // Seeds distinct from every worker's (value is arbitrary).
    inline_lanes_[i].rng = 0xD1B54A32D192ED03ULL * (i + 1) + 1;
  }
  RegisterMetrics();
  epoch_ = std::chrono::steady_clock::now();
  threads_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    threads_.emplace_back(&QueryService<D>::WorkerLoop, this,
                          workers_[i].get(), i);
  }
  if (serving_db_ != nullptr) {
    write_queue_ =
        std::make_unique<RequestQueue<Task>>(options_.queue_capacity);
    writer_thread_ = std::thread(&QueryService<D>::WriterLoop, this);
  }
  return Status::OK();
}

template <int D>
QueryService<D>::~QueryService() {
  Shutdown();
}

template <int D>
void QueryService<D>::Shutdown() {
  stopped_.store(true, std::memory_order_release);
  queue_.Close();
  if (write_queue_ != nullptr) write_queue_->Close();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (writer_thread_.joinable()) writer_thread_.join();
  if (serving_db_ != nullptr && reader_slots_held_) {
    for (const auto& worker : workers_) {
      // An inline caller may still hold this worker's state; it checked
      // stopped_ under the lock, so once we hold it no caller uses the
      // slot again.
      std::lock_guard<std::mutex> lock(worker->state_mu);
      serving_db_->ReleaseReader(worker->reader_slot);
    }
    reader_slots_held_ = false;
  }
}

template <int D>
std::future<QueryResponse<D>> QueryService<D>::Submit(
    QueryRequest<D> request) {
  Task task;
  task.request = std::move(request);
  task.submit_time = std::chrono::steady_clock::now();
  std::future<QueryResponse<D>> future = task.promise.get_future();
  const bool is_write = IsWriteKind(task.request.kind);
  if (is_write && serving_db_ == nullptr) {
    QueryResponse<D> response;
    response.status = Status::InvalidArgument(
        "write requests need a serving-mode service (OpenServing)");
    task.promise.set_value(std::move(response));
    return future;
  }
  RequestQueue<Task>& queue = is_write ? *write_queue_ : queue_;
  if (!queue.Push(std::move(task))) {
    // Queue closed; Push left `task` intact, so answer inline.
    QueryResponse<D> response;
    response.status = Status::InvalidArgument("query service is shut down");
    task.promise.set_value(std::move(response));
  }
  return future;
}

template <int D>
QueryResponse<D> QueryService<D>::Execute(QueryRequest<D> request) {
  return Submit(std::move(request)).get();
}

template <int D>
bool QueryService<D>::CanExecuteInline(QueryKind kind) const {
  return options_.simulated_read_latency_us == 0 && IsResidentEligible(kind) &&
         !stopped_.load(std::memory_order_acquire);
}

template <int D>
typename QueryService<D>::InlineLane* QueryService<D>::AcquireLane() {
  const uint32_t hint = ThreadLaneHint();
  for (uint32_t i = 0; i < kInlineLanes; ++i) {
    InlineLane& lane = inline_lanes_[(hint + i) % kInlineLanes];
    if (!lane.busy.load(std::memory_order_relaxed) &&
        !lane.busy.exchange(true, std::memory_order_acquire)) {
      return &lane;
    }
  }
  return nullptr;
}

template <int D>
typename QueryService<D>::Worker* QueryService<D>::BorrowWorker(
    std::unique_lock<std::mutex>* state) {
  const uint32_t n = options_.num_workers;
  const uint32_t hint = ThreadLaneHint();
  for (uint32_t i = 0; i < n; ++i) {
    Worker* worker = workers_[(hint + i) % n].get();
    std::unique_lock<std::mutex> lock(worker->state_mu, std::try_to_lock);
    if (!lock.owns_lock()) continue;
    // Shutdown sets stopped_ before it takes each worker's lock to release
    // the reader slot, so a lock taken after that sees the flag.
    if (stopped_.load(std::memory_order_acquire)) return nullptr;
    *state = std::move(lock);
    return worker;
  }
  return nullptr;
}

template <int D>
void QueryService<D>::ExecuteInline(const QueryRequest<D>& request,
                                    QueryScratch<D>* scratch,
                                    QueryResponse<D>* response) {
  InlineLane* lane =
      CanExecuteInline(request.kind) ? AcquireLane() : nullptr;
  // Without a compiled read-only arena the query needs a worker's pool and
  // tree handle (and, serving, its snapshot slot): borrow an idle one.
  std::unique_lock<std::mutex> state;
  Worker* borrowed = nullptr;
  if (lane != nullptr && resident_fixed_ == nullptr) {
    borrowed = BorrowWorker(&state);
    if (borrowed == nullptr) {
      lane->busy.store(false, std::memory_order_release);
      lane = nullptr;
    }
  }
  if (lane == nullptr) {
    *response = Execute(request);
    return;
  }
  ResetKeepingCapacity(response);
  const uint32_t worker_id =
      options_.num_workers + 1 + static_cast<uint32_t>(lane - inline_lanes_);
  RunQuery(lane, worker_id, scratch, request,
           std::chrono::steady_clock::now(), /*queue_wait_ns=*/0, response,
           [&] {
             if (borrowed != nullptr) {
               DispatchOnWorker(lane, borrowed, scratch, request, response);
             } else {
               Dispatch(lane, /*tree=*/nullptr, scratch, request,
                        resident_fixed_, response);
             }
           });
  lane->busy.store(false, std::memory_order_release);
}

template <int D>
void QueryService<D>::WorkerLoop(Worker* worker, uint32_t worker_id) {
  while (std::optional<Task> task = queue_.Pop()) {
    const auto start = std::chrono::steady_clock::now();
    const uint64_t queue_wait_ns = SinceNs(task->submit_time, start);
    worker->queue_wait.Record(queue_wait_ns);
    QueryResponse<D> response;
    RunQuery(worker, worker_id, &worker->scratch, task->request, start,
             queue_wait_ns, &response, [&] {
               std::lock_guard<std::mutex> lock(worker->state_mu);
               DispatchOnWorker(worker, worker, &worker->scratch,
                                task->request, &response);
             });
    // Stamped where the response is fulfilled, so a scatter-gather caller
    // can tell when this shard finished, not when it was looked at.
    response.completed_at_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    task->promise.set_value(std::move(response));
  }
}

template <int D>
void QueryService<D>::DispatchOnWorker(Executor* ex, Worker* worker,
                                       QueryScratch<D>* scratch,
                                       const QueryRequest<D>& request,
                                       QueryResponse<D>* response) {
  if (serving_db_ == nullptr) {
    Dispatch(ex, &*worker->tree, scratch, request, resident_fixed_, response);
    return;
  }
  // Pin the current snapshot for the whole query: the checkpoint
  // reclaimer will not recycle any page this version can reach until the
  // Unpin. A reclaim_gen change means some earlier checkpoint DID recycle
  // ids — cached images of them are stale, drop them.
  const TreeSnapshot snap = serving_db_->PinSnapshot(worker->reader_slot);
  Status prep = Status::OK();
  if (snap.reclaim_gen != worker->last_reclaim_gen) {
    prep = worker->pool->InvalidateAll();
    if (prep.ok()) worker->last_reclaim_gen = snap.reclaim_gen;
  }
  if (prep.ok()) {
    worker->tree->Rebase(snap.root_page, snap.size, snap.root_level);
    // The resident tree is trusted only when it was compiled from exactly
    // the snapshot this query pinned: a write bumps the epoch (and usually
    // the COW root), so a stale arena can never serve a query — it just
    // falls back to the paged path.
    std::shared_ptr<const ResidentTree<D>> resident;
    if (options_.resident_tier) {
      std::lock_guard<std::mutex> lock(resident_mu_);
      resident = resident_;
    }
    const ResidentTree<D>* fast =
        (resident != nullptr && resident->source_epoch() == snap.epoch &&
         resident->root_page() == snap.root_page)
            ? resident.get()
            : nullptr;
    Dispatch(ex, &*worker->tree, scratch, request, fast, response);
  } else {
    response->status = std::move(prep);
  }
  serving_db_->UnpinSnapshot(worker->reader_slot);
}

template <int D>
template <typename DispatchFn>
void QueryService<D>::RunQuery(Executor* ex, uint32_t worker_id,
                               QueryScratch<D>* scratch,
                               const QueryRequest<D>& request,
                               std::chrono::steady_clock::time_point start,
                               uint64_t queue_wait_ns,
                               QueryResponse<D>* response,
                               DispatchFn&& dispatch) {
  // Per-query sampling draw; an armed scratch->trace pointer is the only
  // thing the traversals see (one pointer test per node visit; nothing
  // allocates on either path). A propagated trace context (wire v3:
  // trace_id + trace_sampled) forces the draw, so a router-sampled request
  // is traced by every shard it scatters to.
  const bool forced = request.trace_sampled && request.trace_id != 0;
  const bool sampled =
      forced || obs::SampleDraw(&ex->rng, options_.trace_sample_per_million);
  if (sampled) {
    ex->trace_ctx.Reset();
    ex->trace_ctx.SetSpan(obs::SpanKind::kQueueWait, queue_wait_ns);
    scratch->trace = &ex->trace_ctx;
  }
  dispatch();
  const uint64_t ns = SinceNs(start, std::chrono::steady_clock::now());
  response->latency_ns = ns;
  response->worker_id = worker_id;
  ex->histogram.Record(ns);
  (response->ok() ? ex->ok : ex->failed)
      .fetch_add(1, std::memory_order_relaxed);
  const int kind = static_cast<int>(request.kind);
  ++ex->kind_count[kind];
  ex->kind_stats[kind].Add(response->stats);
  if (sampled) {
    ex->trace_ctx.SetSpan(obs::SpanKind::kExecute, ns);
    scratch->trace = nullptr;
  }
  if (sampled || ns >= slow_log_->slow_threshold_ns()) {
    // Stack POD copied into the log's preallocated ring: the capture path
    // allocates nothing.
    obs::QueryTraceRecord rec;
    rec.worker = static_cast<uint16_t>(worker_id);
    rec.k = request.kind == QueryKind::kTopK ? request.top_k : request.knn.k;
    rec.SetKindName(QueryKindName(request.kind));
    rec.latency_ns = ns;
    rec.queue_wait_ns = queue_wait_ns;
    rec.traced = sampled;
    rec.stats = response->stats;
    if (sampled) {
      for (int l = 0; l < obs::kTraceMaxLevels; ++l) {
        rec.nodes_per_level[l] = ex->trace_ctx.nodes_per_level[l];
      }
      // The response carries the record back to the caller — over the
      // wire when the request rode a sampled trace context, so the router
      // can place this shard's span inside the assembled trace.
      response->trace = rec;
      response->has_trace = true;
    }
    slow_log_->Record(rec);
  }
}

template <int D>
void QueryService<D>::WriterLoop() {
  while (std::optional<Task> task = write_queue_->Pop()) {
    std::vector<Task> batch;
    batch.push_back(std::move(*task));
    // Group commit: everything already queued rides this batch — one WAL
    // write plus one fsync amortized over all of it.
    while (batch.size() < kMaxWriteBatch) {
      std::optional<Task> more = write_queue_->TryPop();
      if (!more.has_value()) break;
      batch.push_back(std::move(*more));
    }
    RunWriteBatch(&batch);
  }
}

template <int D>
void QueryService<D>::RunWriteBatch(std::vector<Task>* batch) {
  // The writer "worker id" is one past the readers'.
  const uint32_t writer_id = options_.num_workers;
  size_t i = 0;
  while (i < batch->size()) {
    const auto start = std::chrono::steady_clock::now();
    const auto finish = [&](Task* t, QueryResponse<D> response) {
      response.latency_ns = SinceNs(start, std::chrono::steady_clock::now());
      response.worker_id = writer_id;
      t->promise.set_value(std::move(response));
    };
    if ((*batch)[i].request.kind == QueryKind::kCheckpoint) {
      QueryResponse<D> response;
      // Completed checkpoints are counted by the database itself, which
      // also sees the ones WAL rotation triggers inside ApplyBatch.
      response.status = serving_db_->Checkpoint();
      if (response.ok()) {
        DropStaleResident();
      } else {
        writes_failed_.fetch_add(1, std::memory_order_relaxed);
      }
      finish(&(*batch)[i], std::move(response));
      ++i;
      continue;
    }
    // A contiguous run of inserts/deletes becomes one ApplyBatch (one
    // commit); a checkpoint request acts as a barrier between runs.
    size_t j = i;
    std::vector<typename ServingDb<D>::WriteOp> ops;
    while (j < batch->size() &&
           (*batch)[j].request.kind != QueryKind::kCheckpoint) {
      const QueryRequest<D>& rq = (*batch)[j].request;
      ops.push_back(rq.kind == QueryKind::kInsert
                        ? ServingDb<D>::WriteOp::Insert(rq.window,
                                                        rq.object_id)
                        : ServingDb<D>::WriteOp::Delete(rq.window,
                                                        rq.object_id));
      ++j;
    }
    std::vector<typename ServingDb<D>::WriteResult> results;
    const Status applied = serving_db_->ApplyBatch(ops, &results);
    if (applied.ok()) DropStaleResident();
    for (size_t k = i; k < j; ++k) {
      QueryResponse<D> response;
      response.status = applied;
      if (applied.ok()) {
        response.lsn = results[k - i].lsn;
        response.affected = results[k - i].applied ? 1 : 0;
      }
      (applied.ok() ? writes_ok_ : writes_failed_)
          .fetch_add(1, std::memory_order_relaxed);
      finish(&(*batch)[k], std::move(response));
    }
    i = j;
  }
}

template <int D>
void QueryService<D>::Dispatch(Executor* ex, const RTree<D>* tree,
                               QueryScratch<D>* scratch,
                               const QueryRequest<D>& request,
                               const ResidentTree<D>* resident,
                               QueryResponse<D>* out) {
  QueryResponse<D>& response = *out;
  const int kind = static_cast<int>(request.kind);
  // One tree handle per query: the resident tree when the caller resolved
  // a fresh one, the paged tree otherwise. Resident-eligible kinds take it
  // once their own validation passed and leave the switch with `break`;
  // the tier decision is counted after the switch unless the core rejected
  // the options (InvalidArgument, before any traversal), so a rejected or
  // empty request counts nothing. A fallback is an eligible query the tier
  // *could not* serve (disabled tiers count nothing — the gap is not a
  // fallback). Every other case returns from the switch: ranges and
  // constrained kNN stay on the paged tree.
  const TreeRef<D> target =
      resident != nullptr ? TreeRef<D>(*resident) : TreeRef<D>(*tree);
  // The exact kinds must stay exact: approximation knobs ride only on
  // kApproxKnn, whose metrics and contract are separate by design.
  const bool approx_knobs_set =
      request.knn.epsilon != 0.0 || request.knn.max_visits != 0;
  switch (request.kind) {
    case QueryKind::kKnn: {
      if (approx_knobs_set) {
        response.status = Status::InvalidArgument(
            "epsilon/max_visits require the approx-knn kind");
        return;
      }
      response.status =
          KnnSearchInto<D>(target, request.query, request.knn, scratch,
                           &response.neighbors, &response.stats);
      break;
    }
    case QueryKind::kConstrainedKnn: {
      if (approx_knobs_set ||
          request.knn.max_distance !=
              std::numeric_limits<double>::infinity()) {
        response.status = Status::InvalidArgument(
            "constrained kNN supports none of epsilon/max_visits/"
            "max_distance");
        return;
      }
      auto result = ConstrainedKnnSearch<D>(*tree, request.query,
                                            request.window, request.knn,
                                            &response.stats);
      if (result.ok()) {
        response.neighbors = std::move(result).value();
      } else {
        response.status = result.status();
      }
      return;
    }
    case QueryKind::kRange: {
      response.status = tree->Search(request.window, &response.entries);
      return;
    }
    case QueryKind::kTopK: {
      if (request.top_k < 1) {
        response.status = Status::InvalidArgument("top_k must be >= 1");
        return;
      }
      IncrementalKnn<D> scan(target, request.query, scratch,
                             &response.stats);
      for (uint32_t i = 0; i < request.top_k; ++i) {
        auto next = scan.Next();
        if (!next.ok()) {
          response.status = next.status();
          break;
        }
        if (!next->has_value()) break;  // tree exhausted
        response.neighbors.push_back(**next);
      }
      break;
    }
    case QueryKind::kBatchKnn: {
      if (approx_knobs_set) {
        response.status = Status::InvalidArgument(
            "epsilon/max_visits require the approx-knn kind");
        return;
      }
      if (request.batch_queries.empty()) {
        response.batch_offsets.push_back(0);
        return;
      }
      BatchKnnResult batch;
      response.status = KnnSearchBatch<D>(
          target, request.batch_queries.data(), request.batch_queries.size(),
          request.knn, scratch, &batch, request.batch_bounds);
      if (response.status.ok()) {
        response.neighbors = std::move(batch.neighbors);
        response.batch_offsets = std::move(batch.offsets);
        for (const QueryStats& qs : batch.stats) response.stats.Add(qs);
      }
      break;
    }
    case QueryKind::kReverseKnn: {
      if constexpr (D == 2) {
        ReverseKnnOptions rknn;
        rknn.k = request.knn.k;
        // Shard scatter path: sector candidates only, with geometry — the
        // router verifies against the global tree itself.
        response.status =
            request.rknn_candidates_only
                ? ReverseKnnCandidates(target, request.query, rknn, scratch,
                                       &response.entries, &response.stats)
                : ReverseKnnSearch(target, request.query, rknn, scratch,
                                   &response.neighbors, &response.stats);
      } else {
        // The sector construction is planar (core/reverse_knn.h); surface
        // that as a client error instead of the historical link error.
        response.status = Status::InvalidArgument(
            "reverse-knn supports 2-D services only");
      }
      break;
    }
    case QueryKind::kNnSkyline: {
      response.status = NnSkylineSearch<D>(
          target, request.batch_queries.data(), request.batch_queries.size(),
          scratch, &response.entries, &response.stats);
      break;
    }
    case QueryKind::kApproxKnn: {
      response.status =
          KnnSearchInto<D>(target, request.query, request.knn, scratch,
                           &response.neighbors, &response.stats);
      break;
    }
    case QueryKind::kInsert:
    case QueryKind::kDelete:
    case QueryKind::kCheckpoint:
      // Submit routes write kinds to the writer thread; reaching a reader
      // worker with one is a bug.
      response.status =
          Status::Internal("write request dispatched to a query worker");
      return;
  }
  // Only resident-eligible kinds leave the switch; any other value lies
  // outside the enum.
  if (!IsResidentEligible(request.kind)) {
    response.status = Status::InvalidArgument("unknown query kind");
    return;
  }
  if (response.status.IsInvalidArgument()) return;
  if (target.resident()) {
    ++ex->tier_hits[kind];
  } else if (options_.resident_tier) {
    ++ex->tier_fallbacks[kind];
  }
}

template <int D>
Status QueryService<D>::CompileResident(PageId root_page, uint64_t tree_size,
                                        uint64_t source_epoch) {
  // A throwaway view + small pool: the walk reads every page exactly once
  // (pin depth 1), so worker pools and their statistics stay untouched.
  ReadOnlyDiskView disk(&db_->disk());
  BufferPool pool(&disk, /*capacity=*/64, options_.eviction);
  typename ResidentTree<D>::Options opts;
  opts.max_arena_bytes = options_.resident_max_bytes;
  opts.source_epoch = source_epoch;
  SPATIAL_ASSIGN_OR_RETURN(
      ResidentTree<D> compiled,
      ResidentTree<D>::Compile(&pool, root_page, tree_size, opts));
  resident_compile_ns_.Record(compiled.compile_ns());
  resident_compiles_.fetch_add(1, std::memory_order_relaxed);
  auto tree = std::make_shared<const ResidentTree<D>>(std::move(compiled));
  {
    std::lock_guard<std::mutex> lock(resident_mu_);
    resident_ = std::move(tree);
  }
  return Status::OK();
}

template <int D>
void QueryService<D>::DropStaleResident() {
  if (!options_.resident_tier || serving_db_ == nullptr) return;
  const TreeSnapshot snap = serving_db_->CurrentSnapshot();
  std::lock_guard<std::mutex> lock(resident_mu_);
  if (resident_ != nullptr && (resident_->source_epoch() != snap.epoch ||
                               resident_->root_page() != snap.root_page)) {
    resident_.reset();
    resident_invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <int D>
Status QueryService<D>::RecompileResidentTier() {
  if (!options_.resident_tier) {
    return Status::InvalidArgument("resident tier is disabled");
  }
  if (serving_db_ == nullptr) {
    // Read-only trees never change; the startup compile either already
    // succeeded (workers hold it) or the tree is over the arena cap.
    std::lock_guard<std::mutex> lock(resident_mu_);
    return resident_ != nullptr
               ? Status::OK()
               : Status::ResourceExhausted(
                     "resident tree exceeds resident_max_bytes");
  }
  // Pin the snapshot for the whole walk so no page this version reaches
  // can be recycled mid-compile. If a write publishes a newer version
  // while we compile, the per-query epoch check simply never routes to
  // the result and the next write's DropStaleResident frees it.
  SPATIAL_ASSIGN_OR_RETURN(const uint32_t slot, serving_db_->RegisterReader());
  const TreeSnapshot snap = serving_db_->PinSnapshot(slot);
  const Status compiled = CompileResident(snap.root_page, snap.size,
                                          snap.epoch);
  serving_db_->UnpinSnapshot(slot);
  serving_db_->ReleaseReader(slot);
  return compiled;
}

template <int D>
std::shared_ptr<const ResidentTree<D>> QueryService<D>::resident_tree()
    const {
  std::lock_guard<std::mutex> lock(resident_mu_);
  return resident_;
}

template <int D>
void QueryService<D>::RegisterMetrics() {
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  obs::SlowQueryLog::Options log_options;
  log_options.slow_capacity = options_.slow_log_capacity;
  log_options.sampled_capacity = options_.sampled_log_capacity;
  log_options.slow_threshold_ns = options_.slow_query_threshold_ns;
  slow_log_ = std::make_unique<obs::SlowQueryLog>(log_options);
  metrics_->AddCollector(
      [this](obs::ExpositionWriter& writer) { CollectMetrics(writer); });
}

namespace {

// Per-kind traversal counters, emitted one family per stat with a `kind`
// label. Member pointers keep the scrape in lockstep with QueryStats.
struct QueryStatField {
  const char* name;
  const char* help;
  uint64_t QueryStats::*field;
};

constexpr QueryStatField kQueryStatFields[] = {
    {"spatial_query_nodes_visited_total", "R-tree pages fetched by queries",
     &QueryStats::nodes_visited},
    {"spatial_query_leaf_nodes_visited_total", "Leaf pages fetched",
     &QueryStats::leaf_nodes_visited},
    {"spatial_query_internal_nodes_visited_total", "Internal pages fetched",
     &QueryStats::internal_nodes_visited},
    {"spatial_query_abl_entries_generated_total",
     "Active branch list entries considered",
     &QueryStats::abl_entries_generated},
    {"spatial_query_pruned_s1_total",
     "Branches pruned by strategy 1 (MINDIST > sibling MINMAXDIST)",
     &QueryStats::pruned_s1},
    {"spatial_query_estimate_updates_s2_total",
     "NN estimate updates from strategy 2 (MINMAXDIST)",
     &QueryStats::estimate_updates_s2},
    {"spatial_query_pruned_s3_total",
     "Branches pruned by strategy 3 (MINDIST > k-th nearest)",
     &QueryStats::pruned_s3},
    {"spatial_query_pruned_leaf_total",
     "Leaf entries skipped before distance evaluation",
     &QueryStats::pruned_leaf},
    {"spatial_query_objects_examined_total", "Objects distance-tested",
     &QueryStats::objects_examined},
    {"spatial_query_distance_computations_total",
     "Distance kernel evaluations", &QueryStats::distance_computations},
    {"spatial_query_heap_pushes_total",
     "Best-first / incremental heap pushes", &QueryStats::heap_pushes},
    {"spatial_query_heap_pops_total", "Best-first / incremental heap pops",
     &QueryStats::heap_pops},
};

std::string KindLabel(QueryKind kind) {
  std::string label = "kind=\"";
  label += QueryKindName(kind);
  label += '"';
  return label;
}

}  // namespace

template <int D>
void QueryService<D>::CollectMetrics(obs::ExpositionWriter& writer) const {
  const ServiceStats stats = Snapshot();

  writer.Family("spatial_workers", "Query worker threads",
                obs::MetricType::kGauge);
  writer.Sample("spatial_workers", "",
                static_cast<uint64_t>(stats.workers));
  writer.Family("spatial_uptime_seconds",
                "Seconds since service start (or ResetStats)",
                obs::MetricType::kGauge);
  writer.Sample("spatial_uptime_seconds", "", stats.elapsed_seconds);

  writer.Family("spatial_queries_total",
                "Completed queries by outcome", obs::MetricType::kCounter);
  writer.Sample("spatial_queries_total", "outcome=\"ok\"", stats.queries_ok);
  writer.Sample("spatial_queries_total", "outcome=\"failed\"",
                stats.queries_failed);

  writer.Family("spatial_queries_by_kind_total",
                "Completed requests by query kind",
                obs::MetricType::kCounter);
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const QueryKind kind = static_cast<QueryKind>(k);
    writer.Sample("spatial_queries_by_kind_total", KindLabel(kind),
                  KindQueryCount(kind));
  }

  // Traversal counters per read kind (write kinds never produce
  // QueryStats; their shards stay zero and are elided).
  QueryStats per_kind[kNumQueryKinds];
  for (int k = 0; k < kNumQueryKinds; ++k) {
    per_kind[k] = KindQueryStats(static_cast<QueryKind>(k));
  }
  for (const QueryStatField& field : kQueryStatFields) {
    writer.Family(field.name, field.help, obs::MetricType::kCounter);
    for (int k = 0; k < kNumQueryKinds; ++k) {
      const QueryKind kind = static_cast<QueryKind>(k);
      if (IsWriteKind(kind)) continue;
      writer.Sample(field.name, KindLabel(kind), per_kind[k].*field.field);
    }
  }

  writer.Family("spatial_buffer_logical_fetches_total",
                "Buffer pool Fetch() calls (the paper's page accesses)",
                obs::MetricType::kCounter);
  writer.Sample("spatial_buffer_logical_fetches_total", "",
                static_cast<uint64_t>(stats.buffer.logical_fetches));
  writer.Family("spatial_buffer_hits_total", "Buffer pool hits",
                obs::MetricType::kCounter);
  writer.Sample("spatial_buffer_hits_total", "",
                static_cast<uint64_t>(stats.buffer.hits));
  writer.Family("spatial_buffer_misses_total", "Buffer pool misses",
                obs::MetricType::kCounter);
  writer.Sample("spatial_buffer_misses_total", "",
                static_cast<uint64_t>(stats.buffer.misses));
  writer.Family("spatial_buffer_evictions_total", "Buffer pool evictions",
                obs::MetricType::kCounter);
  writer.Sample("spatial_buffer_evictions_total", "",
                static_cast<uint64_t>(stats.buffer.evictions));
  writer.Family("spatial_buffer_hit_rate",
                "Buffer pool hit rate since start/reset",
                obs::MetricType::kGauge);
  writer.Sample("spatial_buffer_hit_rate", "", stats.buffer.HitRate());

  writer.Family("spatial_io_physical_reads_total",
                "Physical page reads (buffer pool misses reaching disk)",
                obs::MetricType::kCounter);
  writer.Sample("spatial_io_physical_reads_total", "",
                static_cast<uint64_t>(stats.io.physical_reads));

  writer.Family("spatial_query_latency_ns",
                "Per-query wall time inside the worker",
                obs::MetricType::kHistogram);
  writer.Histogram("spatial_query_latency_ns", "", stats.latency);
  writer.Family("spatial_queue_wait_ns",
                "Submit-to-dequeue wait per request",
                obs::MetricType::kHistogram);
  writer.Histogram("spatial_queue_wait_ns", "", stats.queue_wait);

  obs::HistogramSnapshot read_latency;
  for (const auto& worker : workers_) {
    read_latency += worker->read_latency.Snapshot();
  }
  writer.Family("spatial_read_latency_ns",
                "Physical page-read latency (miss path)",
                obs::MetricType::kHistogram);
  writer.Histogram("spatial_read_latency_ns", "", read_latency);

  writer.Family("spatial_slow_queries_recorded_total",
                "Queries offered to the slow/sampled query log",
                obs::MetricType::kCounter);
  writer.Sample("spatial_slow_queries_recorded_total", "",
                slow_log_->total_recorded());
  writer.Family("spatial_slow_queries_retained",
                "Entries currently retained in the slow-query log",
                obs::MetricType::kGauge);
  writer.Sample("spatial_slow_queries_retained", "population=\"slow\"",
                static_cast<uint64_t>(slow_log_->slow_captured()));
  writer.Sample("spatial_slow_queries_retained", "population=\"sampled\"",
                static_cast<uint64_t>(slow_log_->sampled_captured()));

  // Resident tier (docs/PERF.md "Resident tier"). The gauges describe the
  // currently published arena (zero after an invalidation); the routing
  // counters cover only resident-eligible kinds.
  writer.Family("spatial_resident_arena_bytes",
                "Bytes in the published resident-tier arena",
                obs::MetricType::kGauge);
  writer.Sample("spatial_resident_arena_bytes", "",
                stats.resident_arena_bytes);
  writer.Family("spatial_resident_nodes",
                "Nodes compiled into the published resident-tier arena",
                obs::MetricType::kGauge);
  writer.Sample("spatial_resident_nodes",
                "", static_cast<uint64_t>(stats.resident_nodes));
  writer.Family("spatial_resident_compiles_total",
                "Resident-tier arena compilations",
                obs::MetricType::kCounter);
  writer.Sample("spatial_resident_compiles_total", "",
                stats.resident_compiles);
  writer.Family("spatial_resident_invalidations_total",
                "Resident-tier arenas dropped after a write published a "
                "new tree version",
                obs::MetricType::kCounter);
  writer.Sample("spatial_resident_invalidations_total", "",
                stats.resident_invalidations);
  writer.Family("spatial_resident_compile_ns",
                "Resident-tier compile duration",
                obs::MetricType::kHistogram);
  writer.Histogram("spatial_resident_compile_ns", "",
                   resident_compile_ns_.Snapshot());
  writer.Family("spatial_resident_queries_total",
                "Resident-eligible queries by serving tier",
                obs::MetricType::kCounter);
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const QueryKind kind = static_cast<QueryKind>(k);
    if (!IsResidentEligible(kind)) continue;
    uint64_t hits = 0;
    uint64_t fallbacks = 0;
    ForEachExecutor([&](const Executor& ex) {
      hits += ex.tier_hits[k];
      fallbacks += ex.tier_fallbacks[k];
    });
    writer.Sample("spatial_resident_queries_total",
                  KindLabel(kind) + ",tier=\"resident\"", hits);
    writer.Sample("spatial_resident_queries_total",
                  KindLabel(kind) + ",tier=\"paged\"", fallbacks);
  }

  if (serving_db_ == nullptr) return;

  writer.Family("spatial_writes_total",
                "Durable write requests by outcome",
                obs::MetricType::kCounter);
  writer.Sample("spatial_writes_total", "outcome=\"ok\"", stats.writes_ok);
  writer.Sample("spatial_writes_total", "outcome=\"failed\"",
                stats.writes_failed);
  writer.Family("spatial_checkpoints_total", "Completed checkpoints",
                obs::MetricType::kCounter);
  writer.Sample("spatial_checkpoints_total", "", stats.checkpoints);

  writer.Family("spatial_snapshot_epoch",
                "Current published snapshot epoch", obs::MetricType::kGauge);
  writer.Sample("spatial_snapshot_epoch", "", serving_db_->epoch());
  writer.Family("spatial_reclaim_gen",
                "Page-reclamation generation (bumps when a checkpoint "
                "recycles page ids)",
                obs::MetricType::kGauge);
  writer.Sample("spatial_reclaim_gen", "", serving_db_->reclaim_gen());
  writer.Family("spatial_last_lsn", "Last durable log sequence number",
                obs::MetricType::kGauge);
  writer.Sample("spatial_last_lsn", "", serving_db_->last_lsn());
  writer.Family("spatial_retired_pages",
                "COW-retired pages awaiting reclamation (reclamation depth)",
                obs::MetricType::kGauge);
  writer.Sample("spatial_retired_pages", "", serving_db_->retired_pages());
  writer.Family("spatial_reclaimed_pages_total",
                "Pages recycled by checkpoints", obs::MetricType::kCounter);
  writer.Sample("spatial_reclaimed_pages_total", "",
                serving_db_->reclaimed_pages_total());

  const obs::WalMetrics& wal = serving_db_->wal_metrics();
  writer.Family("spatial_wal_fsync_ns",
                "WAL fsync latency per group commit",
                obs::MetricType::kHistogram);
  writer.Histogram("spatial_wal_fsync_ns", "", wal.fsync_ns.Snapshot());
  writer.Family("spatial_wal_commit_records",
                "Records per WAL group commit (batch size)",
                obs::MetricType::kHistogram);
  writer.Histogram("spatial_wal_commit_records", "",
                   wal.commit_records.Snapshot());
  writer.Family("spatial_wal_commit_bytes", "Bytes per WAL group commit",
                obs::MetricType::kHistogram);
  writer.Histogram("spatial_wal_commit_bytes", "",
                   wal.commit_bytes.Snapshot());
  writer.Family("spatial_checkpoint_sync_ns",
                "Data-file fsync latency during checkpoints",
                obs::MetricType::kHistogram);
  writer.Histogram("spatial_checkpoint_sync_ns", "",
                   serving_db_->checkpoint_sync_histogram().Snapshot());
}

template <int D>
template <typename Fn>
void QueryService<D>::ForEachExecutor(Fn&& fn) const {
  for (const auto& worker : workers_) fn(*worker);
  for (const InlineLane& lane : inline_lanes_) fn(lane);
}

template <int D>
ServiceStats QueryService<D>::Snapshot() const {
  ServiceStats stats;
  stats.workers = static_cast<uint32_t>(workers_.size());
  stats.writes_ok = writes_ok_.load(std::memory_order_relaxed);
  stats.writes_failed = writes_failed_.load(std::memory_order_relaxed);
  if (serving_db_ != nullptr) {
    stats.checkpoints = serving_db_->checkpoints() -
                        checkpoints_base_.load(std::memory_order_relaxed);
  }
  stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    epoch_)
          .count();
  stats.resident_compiles =
      resident_compiles_.load(std::memory_order_relaxed);
  stats.resident_invalidations =
      resident_invalidations_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(resident_mu_);
    if (resident_ != nullptr) {
      stats.resident_arena_bytes = resident_->arena_bytes();
      stats.resident_nodes = resident_->node_count();
    }
  }
  for (const auto& worker : workers_) {
    stats.io += worker->disk->stats();
    stats.buffer += worker->pool->stats();
    stats.queue_wait += worker->queue_wait.Snapshot();
  }
  ForEachExecutor([&](const Executor& ex) {
    stats.queries_ok += ex.ok.load(std::memory_order_relaxed);
    stats.queries_failed += ex.failed.load(std::memory_order_relaxed);
    for (int kind = 0; kind < kNumQueryKinds; ++kind) {
      stats.query.Add(ex.kind_stats[kind].Snapshot());
      stats.resident_hits += ex.tier_hits[kind];
      stats.resident_fallbacks += ex.tier_fallbacks[kind];
    }
    stats.latency += ex.histogram.Snapshot();
  });
  return stats;
}

template <int D>
QueryStats QueryService<D>::KindQueryStats(QueryKind kind) const {
  QueryStats stats;
  const int k = static_cast<int>(kind);
  ForEachExecutor(
      [&](const Executor& ex) { stats.Add(ex.kind_stats[k].Snapshot()); });
  return stats;
}

template <int D>
uint64_t QueryService<D>::KindQueryCount(QueryKind kind) const {
  uint64_t n = 0;
  const int k = static_cast<int>(kind);
  ForEachExecutor([&](const Executor& ex) { n += ex.kind_count[k]; });
  return n;
}

template <int D>
void QueryService<D>::Executor::Reset() {
  for (int kind = 0; kind < kNumQueryKinds; ++kind) {
    kind_stats[kind].Reset();
    kind_count[kind] = 0;
    tier_hits[kind] = 0;
    tier_fallbacks[kind] = 0;
  }
  histogram.Reset();
  ok.store(0, std::memory_order_relaxed);
  failed.store(0, std::memory_order_relaxed);
}

template <int D>
void QueryService<D>::ResetStats() {
  for (const auto& worker : workers_) {
    worker->Reset();
    worker->disk->ResetStats();
    worker->pool->ResetStats();
    worker->queue_wait.Reset();
    worker->read_latency.Reset();
  }
  for (InlineLane& lane : inline_lanes_) lane.Reset();
  writes_ok_.store(0, std::memory_order_relaxed);
  writes_failed_.store(0, std::memory_order_relaxed);
  if (serving_db_ != nullptr) {
    checkpoints_base_.store(serving_db_->checkpoints(),
                            std::memory_order_relaxed);
  }
  epoch_ = std::chrono::steady_clock::now();
}

template class QueryService<2>;
template class QueryService<3>;

}  // namespace spatial
