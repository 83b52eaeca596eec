// Request-anatomy benchmark: one served kNN workload per run, measured end
// to end at the client and, in a separate traced run, boundary by boundary
// from the RPC front door down to the WAL. NOTES.md explains the workloads,
// the metrics and what each later change is expected to move.
//
//   perfbench_anatomy --workload knn-point-rpc --seed 1 --seconds 5
//   perfbench_anatomy_traced --workload mixed-serving --seed 1 --seconds 5
//       --trace 1
//   perfbench_anatomy --self-test
//
// Every run: generate the inputs from --seed with the in-repo generators,
// set the served stack up (4 shards x 1 worker behind an RpcServer) several
// times and keep the last, gate the answers across every layer, then time
// a closed loop of RPC clients for --seconds. --trace 0 prints the
// end-to-end metrics; --trace 1 (the binary built with the counting
// allocator) additionally replays the query stream through each public
// boundary in turn and prints the per-layer metrics. The last line of
// standard output is the JSON result. Nothing under src/ is instrumented:
// every layer is timed from outside, around its public entry point.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/knn.h"
#include "data/clustered.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "geom/metrics.h"
#include "geom/metrics_simd.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "shard/shard_router.h"
#include "shard/shard_set.h"
#include "storage/buffer_pool.h"
#include "storage/read_only_disk.h"
#include "support.h"
#include "../tests/reference.h"

#ifdef PERFBENCH_COUNT_ALLOCS
#include "common/alloc_tracker.h"
#endif

namespace perfbench {
namespace {

using spatial::BufferPool;
using spatial::Entry;
using spatial::Neighbor;
using spatial::QueryStats;
using spatial::Rect;
using spatial::Rng;
using spatial::Status;
using Point2 = spatial::Point<2>;
using Request = spatial::QueryRequest<2>;
using Response = spatial::QueryResponse<2>;
using Service = spatial::QueryService<2>;
using ShardSet = spatial::ShardSet<2>;
using Router = spatial::ShardRouter<2>;
using Server = spatial::RpcServer<2>;
using Client = spatial::RpcClient<2>;

constexpr uint32_t kK = 10;
constexpr uint32_t kShards = 4;
constexpr uint32_t kPageSize = 1024;
constexpr uint32_t kFramesPerWorker = 256;
constexpr uint32_t kReadClients = 2;  // closed-loop read connections
// The acked-write log is sized for this many writes per second; one
// writer connection waiting on a durable ack stays far below it.
constexpr double kMaxWritesPerS = 10000.0;
// Set-up repeats: at least kMinSetups, then more until kSetupBudgetS of
// set-up time is spent or kMaxSetups is reached; setup_s is a median.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 5.0;
// Scratch files (serving shards, span dumps) live under the working
// directory, which is the checkout the benchmark runs from.
constexpr const char* kRunDir = ".perfbench_run";
constexpr const char* kOutDir = ".perfbench_out";

// One served workload; NOTES.md gives the reason for each.
struct Workload {
  const char* name;
  size_t points;
  bool clustered;       // clustered data, data-drawn queries (else uniform)
  bool serving;         // file-backed ServingDb shards with a WAL
  uint32_t batch;       // queries per BatchKnn request; 0 = single kNN
  // A writer connection issues one write per this many reads completed by
  // the read connections, so the mix is the same on a fast or a slow
  // host; 0 = read only.
  uint32_t reads_per_write;
};

constexpr Workload kWorkloads[] = {
    {"knn-point-rpc", 200000, false, false, 0, 0},
    {"knn-batch-clustered", 1000000, true, false, 256, 0},
    {"mixed-serving", 200000, false, true, 0, 6},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 5.0;
  bool trace = false;
  bool tiny = false;  // self-test scale
  bool self_test = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_anatomy --workload "
               "<knn-point-rpc|knn-batch-clustered|mixed-serving> --seed N "
               "--seconds S [--trace 0|1] [--scale full|tiny]\n"
               "       perfbench_anatomy --self-test\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") Usage("bad --scale");
      args.tiny = value == "tiny";
    } else {
      Usage("unknown flag");
    }
  }
  if (args.self_test) return args;
  if (args.workload == nullptr || !have_seed) Usage("need --workload/--seed");
  if (!(args.seconds > 0.0)) Usage("--seconds must be > 0");
  return args;
}

uint64_t ThreadAllocations() {
#ifdef PERFBENCH_COUNT_ALLOCS
  return spatial::ThreadAllocCounts().allocations;
#else
  return 0;
#endif
}

// A failed check anywhere in the run: the result reports correct=false.
struct Verdict {
  bool correct = true;
  void Fail(const std::string& why) {
    if (correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                              why.c_str());
    correct = false;
  }
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Take(spatial::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Inputs: everything derives from --seed.

struct Inputs {
  std::vector<Entry<2>> entries;  // id == index
  std::vector<Request> reads;     // the query stream, cycled by clients
  std::vector<Point2> gate_points;
};

Inputs MakeInputs(const Workload& w, size_t points, uint32_t batch,
                  uint64_t seed) {
  Inputs in;
  Rng data_rng(seed);
  const auto bounds = spatial::UnitBounds<2>();
  // Many small clusters: strongly skewed, yet enough of them that the
  // layout averages out between seeds. With the generator's default 16
  // clusters, router pages per query moved by +-20% from seed to seed.
  const spatial::ClusteredOptions clusters{256, 0.005};
  in.entries = spatial::MakePointEntries(
      w.clustered
          ? spatial::GenerateClustered<2>(points, bounds, clusters, &data_rng)
          : spatial::GenerateUniform<2>(points, bounds, &data_rng));
  Rng query_rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const auto dist = w.clustered ? spatial::QueryDistribution::kDataDrawn
                                : spatial::QueryDistribution::kUniform;
  const size_t requests = batch == 0 ? 4096 : 64;
  const size_t per_request = batch == 0 ? 1 : batch;
  const auto qs = spatial::GenerateQueries<2>(
      in.entries, requests * per_request, dist, 0.0, &query_rng);
  for (size_t r = 0; r < requests; ++r) {
    if (batch == 0) {
      in.reads.push_back(Request::Knn(qs[r], kK));
    } else {
      in.reads.push_back(Request::BatchKnn(
          std::vector<Point2>(qs.begin() + r * batch,
                              qs.begin() + (r + 1) * batch),
          kK));
    }
  }
  // Gate on the first queries of the stream itself.
  const size_t gate = std::min<size_t>(qs.size(), batch == 0 ? 64 : batch);
  in.gate_points.assign(qs.begin(), qs.begin() + gate);
  return in;
}

// ---------------------------------------------------------------------------
// The served stack: ShardSet + ShardRouter (+ RpcServer).

struct SetupTimes {
  double shard_build_s = 0.0;
  double resident_compile_s = 0.0;
  double server_start_s = 0.0;
  double total_s = 0.0;
  double cpu_s = 0.0;  // CPU time of the building thread over total_s
};

class Stack {
 public:
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  // Front to back: the server joins its threads before the router and the
  // shards go, and the shard files outlive their services.
  ~Stack() {
    server_.reset();
    router_.reset();
    set_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  // Builds `shards` shards over a copy of `entries` (the copy is not
  // timed) and, when `serve`, an RpcServer in front of the router.
  static std::unique_ptr<Stack> Build(const Workload& w,
                                      const std::vector<Entry<2>>& entries,
                                      uint32_t shards, bool serve,
                                      const std::string& dir,
                                      SetupTimes* times) {
    auto stack = std::make_unique<Stack>();
    ShardSet::Options options;
    options.num_shards = shards;
    options.page_size = kPageSize;
    options.service.num_workers = 1;
    options.service.frames_per_worker = kFramesPerWorker;
    options.service.resident_tier = true;
    if (w.serving) {
      stack->dir_ = dir;
      std::filesystem::create_directories(dir);
      options.serving = true;
      options.dir = dir;
    }
    std::vector<Entry<2>> items = entries;
    const double cpu0 = ThreadCpuS();
    const uint64_t t0 = NowNs();
    stack->set_ = Take(ShardSet::Build(std::move(items), options),
                       "shard set build");
    const uint64_t t1 = NowNs();
    stack->router_ = std::make_unique<Router>(stack->set_.get());
    if (serve) {
      Server::Options server_options;
      stack->server_ =
          Take(Server::Start(stack->router_.get(), server_options),
               "rpc server start");
    }
    const uint64_t t2 = NowNs();
    const double cpu2 = ThreadCpuS();
    if (times != nullptr) {
      times->cpu_s = cpu2 - cpu0;
      times->shard_build_s = static_cast<double>(t1 - t0) * 1e-9;
      times->server_start_s = static_cast<double>(t2 - t1) * 1e-9;
      times->total_s = static_cast<double>(t2 - t0) * 1e-9;
      double compile_ns = 0.0;
      for (uint32_t s = 0; s < shards; ++s) {
        compile_ns += static_cast<double>(
            ScrapeHistogram(stack->set_->shard(s).ScrapeMetrics(),
                            "spatial_resident_compile_ns")
                .total);
      }
      times->resident_compile_s = compile_ns * 1e-9;
    }
    return stack;
  }

  ShardSet& set() { return *set_; }
  Router& router() { return *router_; }
  uint16_t port() const { return server_->port(); }

 private:
  std::string dir_;
  std::unique_ptr<ShardSet> set_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Server> server_;
};

// Direct paged traversal of one shard's current tree version the way a
// service worker does it: a private buffer pool over the shard's disk and,
// in serving mode, a pinned snapshot around every call.
class PagedReader {
 public:
  explicit PagedReader(Service* service)
      : service_(service),
        view_(&service->db().disk(), 0, nullptr),
        pool_(&view_, kFramesPerWorker) {
    spatial::PageId root = service->db().tree().root_page();
    uint64_t size = service->db().tree().size();
    if (service->serving()) {
      slot_ = Take(service->serving_db()->RegisterReader(), "reader slot");
      const spatial::TreeSnapshot snap =
          service->serving_db()->CurrentSnapshot();
      root = snap.root_page;
      size = snap.size;
      reclaim_gen_ = snap.reclaim_gen;
    }
    tree_.emplace(Take(spatial::RTree<2>::Open(
                           &pool_, service->db().tree().options(), root, size),
                       "paged reader open"));
  }
  PagedReader(const PagedReader&) = delete;
  PagedReader& operator=(const PagedReader&) = delete;
  ~PagedReader() {
    if (service_->serving()) service_->serving_db()->ReleaseReader(slot_);
  }

  // A single kNN into `out`, or a kBatchKnn request into `batch_out`.
  Status Run(const Request& request, spatial::QueryScratch<2>* scratch,
             std::vector<Neighbor>* out, spatial::BatchKnnResult* batch_out,
             QueryStats* stats) {
    spatial::ServingDb<2>* db =
        service_->serving() ? service_->serving_db() : nullptr;
    Status status = Status::OK();
    if (db != nullptr) {
      const spatial::TreeSnapshot snap = db->PinSnapshot(slot_);
      if (snap.reclaim_gen != reclaim_gen_) {
        status = pool_.InvalidateAll();
        reclaim_gen_ = snap.reclaim_gen;
      }
      tree_->Rebase(snap.root_page, snap.size, snap.root_level);
    }
    if (status.ok()) status = Search(request, scratch, out, batch_out, stats);
    if (db != nullptr) db->UnpinSnapshot(slot_);
    return status;
  }

 private:
  Status Search(const Request& request, spatial::QueryScratch<2>* scratch,
                std::vector<Neighbor>* out, spatial::BatchKnnResult* batch_out,
                QueryStats* stats) {
    if (request.kind == spatial::QueryKind::kBatchKnn) {
      Status s = spatial::KnnSearchBatch<2>(
          *tree_, request.batch_queries.data(), request.batch_queries.size(),
          request.knn, scratch, batch_out);
      for (const QueryStats& q : batch_out->stats) stats->Add(q);
      return s;
    }
    return spatial::KnnSearchInto<2>(*tree_, request.query, request.knn,
                                     scratch, out, stats);
  }

  Service* service_;
  spatial::ReadOnlyDiskView view_;
  BufferPool pool_;
  std::optional<spatial::RTree<2>> tree_;
  uint32_t slot_ = 0;
  uint64_t reclaim_gen_ = 0;
};

Status ResidentRun(const spatial::ResidentTree<2>& tree,
                   const Request& request, spatial::QueryScratch<2>* scratch,
                   std::vector<Neighbor>* out,
                   spatial::BatchKnnResult* batch_out, QueryStats* stats) {
  if (request.kind == spatial::QueryKind::kBatchKnn) {
    Status s = spatial::KnnSearchBatch<2>(
        tree, request.batch_queries.data(), request.batch_queries.size(),
        request.knn, scratch, batch_out);
    for (const QueryStats& q : batch_out->stats) stats->Add(q);
    return s;
  }
  return spatial::KnnSearchInto<2>(tree, request.query, request.knn, scratch,
                                   out, stats);
}

// ---------------------------------------------------------------------------
// Correctness gate: memcmp identity across every layer, brute force on a
// subset, batch slices against single answers.

std::string Describe(const Neighbor* a, size_t n) {
  std::string out;
  char buf[64];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "%s(%llu, %.17g)", i == 0 ? "" : " ",
                  static_cast<unsigned long long>(a[i].id), a[i].dist_sq);
    out += buf;
  }
  return out;
}

// Compares one layer's answer with a reference. `strict` layers share the
// reference's tree and algorithm and must be byte-identical; the others
// went through a (dist_sq, id) merge and may differ inside a k-th
// distance tie of `query` over `data` only (SameUpToKthTie).
class AnswerCheck {
 public:
  AnswerCheck(const std::vector<Entry<2>>& data, Verdict* verdict)
      : data_(data), verdict_(verdict) {}

  void Expect(const std::string& what, bool strict, const Point2& query,
              const Neighbor* got, size_t n_got, const Neighbor* want,
              size_t n_want) {
    bool tie = false;
    const bool ok =
        strict ? SameAnswer(got, n_got, want, n_want)
               : SameUpToKthTie(got, n_got, want, n_want, query, data_, &tie);
    if (tie) ++ties_;
    if (!ok) {
      verdict_->Fail(what + " differs: got " + Describe(got, n_got) +
                     " want " + Describe(want, n_want));
    }
  }
  void Expect(const std::string& what, bool strict, const Point2& query,
              const std::vector<Neighbor>& got,
              const std::vector<Neighbor>& want) {
    Expect(what, strict, query, got.data(), got.size(), want.data(),
           want.size());
  }

  size_t ties() const { return ties_; }

 private:
  const std::vector<Entry<2>>& data_;
  Verdict* verdict_;
  size_t ties_ = 0;
};

void Gate(const Inputs& in, Stack* served, Stack* single, Client* client,
          const spatial::ResidentTree<2>* resident, PagedReader* paged,
          Verdict* verdict) {
  spatial::QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  spatial::BatchKnnResult unused;
  AnswerCheck check(in.entries, verdict);
  const size_t brute = std::min<size_t>(in.gate_points.size(), 8);
  std::vector<std::vector<Neighbor>> routed;  // router x4 single answers
  for (size_t i = 0; i < in.gate_points.size() && verdict->correct; ++i) {
    const Request req = Request::Knn(in.gate_points[i], kK);
    const std::string q = " on gate query " + std::to_string(i);
    QueryStats stats;
    std::vector<Neighbor> want;
    if (Status s = paged->Run(req, &scratch, &want, &unused, &stats); !s.ok()) {
      verdict->Fail("paged core: " + s.ToString());
      return;
    }
    if (resident == nullptr) {
      verdict->Fail("resident tier was not compiled");
      return;
    }
    Status s = ResidentRun(*resident, req, &scratch, &got, &unused, &stats);
    if (!s.ok()) verdict->Fail("resident core: " + s.ToString());
    check.Expect("resident core" + q, true, req.query, got, want);
    const Response svc = single->set().shard(0).Execute(req);
    if (!svc.ok()) verdict->Fail("service: " + svc.status.ToString());
    check.Expect("service" + q, true, req.query, svc.neighbors, want);
    const Response r1 = single->router().Execute(req);
    if (!r1.ok()) verdict->Fail("router x1: " + r1.status.ToString());
    check.Expect("router x1" + q, false, req.query, r1.neighbors, want);
    Response r4 = served->router().Execute(req);
    if (!r4.ok()) verdict->Fail("router x4: " + r4.status.ToString());
    check.Expect("router x4" + q, false, req.query, r4.neighbors, want);
    auto rpc = client->Call(req);
    if (!rpc.ok() || !rpc->ok()) {
      verdict->Fail("rpc call failed" + q);
    } else {
      check.Expect("rpc vs router x4" + q, true, req.query, rpc->neighbors,
                   r4.neighbors);
    }
    if (i < brute) {
      check.Expect("brute force" + q, false, req.query,
                   spatial::RefKnn<2>(in.entries, req.query, kK), want);
    }
    routed.push_back(std::move(r4.neighbors));
  }
  // Every BatchKnn slice equals the single-kNN answer, through the router
  // and over the wire.
  const Request batch = Request::BatchKnn(in.gate_points, kK);
  auto check_batch = [&](const std::string& layer, const Response& r) {
    if (!r.ok() || r.batch_offsets.size() != routed.size() + 1) {
      verdict->Fail(layer + " batch response malformed");
      return;
    }
    for (size_t i = 0; i < routed.size(); ++i) {
      const uint32_t lo = r.batch_offsets[i];
      const uint32_t hi = r.batch_offsets[i + 1];
      if (hi < lo || hi > r.neighbors.size()) {
        verdict->Fail(layer + " batch offsets out of range");
        return;
      }
      check.Expect(layer + " batch slice " + std::to_string(i), false,
                   in.gate_points[i], r.neighbors.data() + lo, hi - lo,
                   routed[i].data(), routed[i].size());
    }
  };
  if (verdict->correct) {
    check_batch("router x4", served->router().Execute(batch));
    auto rpc = client->Call(batch);
    if (!rpc.ok()) {
      verdict->Fail("rpc batch call failed");
    } else {
      check_batch("rpc", *rpc);
    }
  }
  std::printf("gate: %zu queries; paged core == resident core == service "
              "and rpc == router x4 byte for byte; router x1, router x4, "
              "%zu brute-force answers and batch slices equal up to k-th "
              "distance ties (%zu tied); %s\n",
              in.gate_points.size(), brute, check.ties(),
              verdict->correct ? "pass" : "FAIL");
}

// A kNN answer has the expected shape (the gate proved the content).
bool WellFormed(const Request& req, const Response& r) {
  if (req.kind == spatial::QueryKind::kBatchKnn) {
    return r.batch_offsets.size() == req.batch_queries.size() + 1 &&
           r.neighbors.size() == req.batch_queries.size() * kK;
  }
  return r.neighbors.size() == kK;
}

// ---------------------------------------------------------------------------
// Paced insert/delete churn for mixed-serving. Inserts add fresh ids at
// uniform points; deletes remove original objects in a seeded order, so the
// live set keeps its size and every acked op has one expected outcome.

struct WriteOp {
  bool insert;
  Rect<2> mbr;
  uint64_t id;
};

class Churn {
 public:
  Churn(const std::vector<Entry<2>>& entries, uint64_t seed)
      : entries_(entries), rng_(seed ^ 0xC0FFEEULL), next_id_(entries.size()) {
    order_.resize(entries.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.Next64() % i]);
    }
  }

  WriteOp Next() {
    insert_next_ = !insert_next_;
    if (insert_next_ || next_delete_ >= order_.size()) {
      const Point2 p{{rng_.NextDouble(), rng_.NextDouble()}};
      return WriteOp{true, Rect<2>::FromPoint(p), next_id_++};
    }
    const Entry<2>& e = entries_[order_[next_delete_++]];
    return WriteOp{false, e.mbr, e.id};
  }

 private:
  const std::vector<Entry<2>>& entries_;
  Rng rng_;
  std::vector<size_t> order_;
  size_t next_delete_ = 0;
  uint64_t next_id_;
  bool insert_next_ = false;
};

// Every acked insert is found, with its exact MBR, and every acked delete is
// gone. One range query over the whole domain through the router answers
// for all of them at once, so the check stays cheap on a slow host.
void VerifyWrites(Router* router, const std::vector<WriteOp>& acked,
                  Verdict* verdict) {
  if (acked.empty()) return;
  const Response r =
      router->Execute(Request::Range(spatial::UnitBounds<2>()));
  if (!r.ok()) {
    verdict->Fail("write check range query: " + r.status.ToString());
    return;
  }
  std::unordered_map<uint64_t, Rect<2>> live;
  live.reserve(r.entries.size());
  for (const Entry<2>& e : r.entries) live.emplace(e.id, e.mbr);
  size_t bad = 0;
  for (const WriteOp& op : acked) {
    const auto it = live.find(op.id);
    const bool found = it != live.end() && it->second.lo == op.mbr.lo &&
                       it->second.hi == op.mbr.hi;
    if (found != op.insert) ++bad;
  }
  if (bad != 0) {
    verdict->Fail(std::to_string(bad) + " of " + std::to_string(acked.size()) +
                  " acked writes not reflected by the range query");
  }
}

// ---------------------------------------------------------------------------
// Closed loop: read clients plus the optional paced writer, all over RPC.

// The window is cut into this many equal time slices, each with its own
// latency histogram; window statistics are medians over slices.
constexpr size_t kWindowSlices = 60;

// One connection's tally: a latency histogram per window slice.
struct ClientTally {
  ClientTally() : slices(kWindowSlices) {}

  // A completion at t1 of a request issued at t0, in the window
  // [start, start + window_ns).
  void Record(uint64_t start, uint64_t window_ns, uint64_t t0, uint64_t t1) {
    const size_t i = std::min<size_t>(
        kWindowSlices - 1, (t1 - start) * kWindowSlices / window_ns);
    slices[i].Add(t1 - t0);
  }

  std::vector<LatencyHist> slices;
  uint64_t attempted = 0, failed = 0, shed = 0;
};

// Writers and readers start this long after the loop is called.
constexpr double kConnectS = 0.02;

// One closed loop: its shape, and what it recorded. All of its memory is
// allocated and written when it is made, so the benchmark's own state does
// not grow during the loop and stays out of peak_rss_mb.
struct LoopResult {
  LoopResult(uint32_t read_clients, uint32_t reads_per_write,
             double writes_per_s, double warmup_s, double window_s)
      : read_clients(read_clients),
        reads_per_write(reads_per_write),
        writes_per_s(writes_per_s),
        warmup_s(warmup_s),
        window_s(window_s),
        tallies(read_clients + 1),
        // The writer issues at most this many writes.
        acked(static_cast<size_t>(
                  (kConnectS + warmup_s + window_s) *
                  (reads_per_write > 0 ? kMaxWritesPerS : writes_per_s)) +
              2),
        usage(kWindowSlices + 1),
        host(kWindowSlices + 1) {}

  bool has_writer() const { return reads_per_write > 0 || writes_per_s > 0; }

  const uint32_t read_clients;  // closed-loop read connections
  // The writer connection: one write per reads_per_write reads when that
  // is set, else writes_per_s on a timer; neither = no writer.
  const uint32_t reads_per_write;
  const double writes_per_s;
  const double warmup_s, window_s;
  std::vector<ClientTally> tallies;  // the read connections, then the writer
  uint64_t attempted = 0;  // requests issued inside the window
  uint64_t failed = 0;     // transport or status failures
  uint64_t shed = 0;       // kOverloaded
  std::vector<WriteOp> acked;  // the first num_acked: every acked write,
  size_t num_acked = 0;        // warm-up included
  // At each window slice boundary: the process's resource usage (all
  // threads: the clients, the server, the router and the shard workers)
  // and the host's CPU ticks.
  std::vector<rusage> usage;
  std::vector<HostCpu> host;

  std::vector<WriteOp> Acked() const {
    return {acked.begin(), acked.begin() + num_acked};
  }
};

uint64_t Completed(const ClientTally* tallies, size_t n) {
  uint64_t total = 0;
  for (size_t t = 0; t < n; ++t) {
    for (const LatencyHist& h : tallies[t].slices) total += h.count();
  }
  return total;
}

// Window statistics as medians over equal time slices of the window, so a
// transient stall of the shared host moves one slice rather than the
// result. Slices hold about 1000 completions or more each, so every
// slice's p99 has ten beyond it; a thin window is one slice. The slice
// count is a divisor of kWindowSlices, at most 20.
struct SlicedStats {
  double rate = 0.0;  // completions per second
  double p50_us = 0.0;
  double p99_us = 0.0;
  size_t slices = 0;
};

SlicedStats Sliced(const ClientTally* tallies, size_t n, double window_s) {
  SlicedStats out;
  const uint64_t total = Completed(tallies, n);
  if (total == 0) return out;
  out.slices = std::clamp<size_t>(total / 1000, 1, 20);
  while (kWindowSlices % out.slices != 0) --out.slices;
  const size_t per = kWindowSlices / out.slices;
  const double width = window_s / static_cast<double>(out.slices);
  std::vector<double> rate, p50, p99;
  LatencyHist h;
  for (size_t g = 0; g < out.slices; ++g) {
    h = LatencyHist();
    for (size_t t = 0; t < n; ++t) {
      for (size_t i = g * per; i < (g + 1) * per; ++i) {
        h.Merge(tallies[t].slices[i]);
      }
    }
    rate.push_back(static_cast<double>(h.count()) / width);
    p50.push_back(h.PercentileUs(0.50));
    p99.push_back(h.PercentileUs(0.99));
  }
  out.rate = Median(rate);
  out.p50_us = Median(p50);
  out.p99_us = Median(p99);
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The `keep` items with the least host steal (`steal[i]` belongs to
// `items[i]`), and every other item with no more steal than the last of
// them, in their original order. On a quiet host that is every item.
template <typename T>
std::vector<T> LeastSteal(const std::vector<T>& items,
                          const std::vector<uint64_t>& steal, size_t keep) {
  if (items.empty() || keep == 0) return {};
  std::vector<uint64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const uint64_t cutoff = sorted[std::min(keep, sorted.size()) - 1];
  std::vector<T> out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (steal[i] <= cutoff) out.push_back(items[i]);
  }
  return out;
}

// The process's CPU cost per completed request, reads and writes
// together, from getrusage() at each 1/kWindowSlices slice of the window:
// each slice gives its user and system CPU time and voluntary context
// switches divided by the requests completed in it. Neither CPU time
// counts the time the hypervisor gives to other guests, but under steal a
// request still costs more system time: its wakeups and cross-CPU
// handoffs take longer when the host is busy. User time moves far less,
// and only the gated metric uses it. Each figure is the median over the
// third of the slices with the least host steal, ties included (every
// slice on a quiet host). NOTES.md, Steadiness, has the measurements.
struct CpuCost {
  double user_us = 0.0;   // user CPU time per request
  double sys_us = 0.0;    // system CPU time per request
  double switches = 0.0;  // voluntary context switches per request
  size_t slices = 0;      // slices the medians are over
  double steal_frac = 0.0;  // host steal over those slices
};

double Seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

CpuCost CpuPerRequest(const LoopResult& loop) {
  struct Slice {
    double user_us, sys_us, switches;
    uint64_t steal, total;  // host CPU ticks
  };
  std::vector<Slice> slices;
  std::vector<uint64_t> steal;
  for (size_t i = 0; i < kWindowSlices; ++i) {
    uint64_t done = 0;
    for (const ClientTally& tally : loop.tallies) {
      done += tally.slices[i].count();
    }
    if (done == 0) continue;
    const rusage& u0 = loop.usage[i];
    const rusage& u1 = loop.usage[i + 1];
    const HostCpu& h0 = loop.host[i];
    const HostCpu& h1 = loop.host[i + 1];
    const double n = static_cast<double>(done);
    slices.push_back(
        {(Seconds(u1.ru_utime) - Seconds(u0.ru_utime)) * 1e6 / n,
         (Seconds(u1.ru_stime) - Seconds(u0.ru_stime)) * 1e6 / n,
         static_cast<double>(u1.ru_nvcsw - u0.ru_nvcsw) / n,
         h1.steal - h0.steal, h1.total - h0.total});
    steal.push_back(h1.steal - h0.steal);
  }
  CpuCost out;
  if (slices.empty()) return out;
  std::vector<double> user, sys, switches;
  uint64_t quiet_steal = 0, quiet_total = 0;
  for (const Slice& slice :
       LeastSteal(slices, steal, std::max<size_t>(1, slices.size() / 3))) {
    user.push_back(slice.user_us);
    sys.push_back(slice.sys_us);
    switches.push_back(slice.switches);
    quiet_steal += slice.steal;
    quiet_total += slice.total;
  }
  out.user_us = Median(user);
  out.sys_us = Median(sys);
  out.switches = Median(switches);
  out.slices = user.size();
  out.steal_frac = Ratio(static_cast<double>(quiet_steal),
                         static_cast<double>(quiet_total));
  return out;
}

// One RPC round trip for the loop: counts shed/failed, reconnects after a
// transport error. Returns true when the response is OK and well formed.
bool LoopCall(uint16_t port, std::unique_ptr<Client>* client,
              const Request& req, ClientTally* tally, bool in_window,
              Response* out, Verdict* verdict) {
  if (*client == nullptr) {
    auto c = Client::Connect("127.0.0.1", port);
    if (!c.ok()) {
      if (in_window) ++tally->failed;
      return false;
    }
    *client = std::move(c).value();
  }
  auto r = (*client)->Call(req);
  if (!r.ok()) {
    client->reset();
    if (in_window) ++tally->failed;
    return false;
  }
  *out = std::move(r).value();
  if (out->status.IsOverloaded()) {
    if (in_window) ++tally->shed;
    return false;
  }
  if (!out->ok()) {
    if (in_window) ++tally->failed;
    return false;
  }
  if (!IsWriteKind(req.kind) && !WellFormed(req, *out)) {
    verdict->Fail("malformed kNN answer in the timed loop");
    if (in_window) ++tally->failed;
    return false;
  }
  return true;
}

// Runs the loop `result` describes and records into it. `stop` (may be
// null) ends the loop early; `mirror` (may be null) also applies every
// acked write to a second stack.
void RunClosedLoop(uint16_t port, const Inputs& in, Churn* churn,
                   Router* mirror, const std::atomic<bool>* stop,
                   Verdict* verdict, LoopResult* result) {
  auto stopped = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };
  const uint32_t read_clients = result->read_clients;
  const uint32_t reads_per_write = result->reads_per_write;
  std::vector<ClientTally>& tallies = result->tallies;
  const uint64_t begin = NowNs() + static_cast<uint64_t>(kConnectS * 1e9);
  const uint64_t start =
      begin + static_cast<uint64_t>(result->warmup_s * 1e9);
  const uint64_t end = start + static_cast<uint64_t>(result->window_s * 1e9);
  const uint64_t window_ns = end - start;
  std::vector<Verdict> verdicts(read_clients + 1);
  // Reads completed so far, warm-up included; the writer waits on it.
  std::atomic<uint64_t> reads_done{0};
  std::atomic<bool> readers_done{false};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < read_clients; ++t) {
    threads.emplace_back([&, t] {
      ClientTally& tally = tallies[t];
      std::unique_ptr<Client> client;
      Response resp;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          begin > NowNs() ? begin - NowNs() : 0));
      for (size_t i = t;; i += read_clients) {
        const Request& req = in.reads[i % in.reads.size()];
        const uint64_t t0 = NowNs();
        if (t0 >= end || stopped()) break;
        const bool in_window = t0 >= start;
        if (in_window) ++tally.attempted;
        const bool ok = LoopCall(port, &client, req, &tally, in_window,
                                 &resp, &verdicts[t]);
        const uint64_t t1 = NowNs();
        if (ok && in_window && t1 < end) {
          tally.Record(start, window_ns, t0, t1);
        }
        if (reads_per_write > 0 &&
            (reads_done.fetch_add(1, std::memory_order_relaxed) + 1) %
                    reads_per_write ==
                0) {
          reads_done.notify_one();
        }
      }
    });
  }
  if (result->has_writer()) {
    threads.emplace_back([&] {
      ClientTally& tally = tallies[read_clients];
      std::unique_ptr<Client> client;
      Response resp;
      const uint64_t interval =
          reads_per_write > 0
              ? 0
              : static_cast<uint64_t>(1e9 / result->writes_per_s);
      uint64_t due = begin;
      for (uint64_t n = 1;; ++n, due += interval) {
        if (reads_per_write > 0) {
          // Write n is due once the readers have completed n x
          // reads_per_write reads.
          for (uint64_t seen = reads_done.load();
               seen < n * reads_per_write && !readers_done.load();
               seen = reads_done.load()) {
            reads_done.wait(seen);
          }
        } else {
          const uint64_t now = NowNs();
          if (due > now) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          }
        }
        if (NowNs() >= end || stopped() ||
            (reads_per_write > 0 && readers_done.load())) {
          break;
        }
        if (result->num_acked == result->acked.size()) {
          verdicts[read_clients].Fail("acked-write log full");
          break;
        }
        const WriteOp op = churn->Next();
        const Request req = op.insert ? Request::Insert(op.mbr, op.id)
                                      : Request::Delete(op.mbr, op.id);
        const uint64_t t0 = NowNs();
        const bool in_window = t0 >= start && t0 < end;
        if (in_window) ++tally.attempted;
        const bool ok = LoopCall(port, &client, req, &tally, in_window, &resp,
                                 &verdicts[read_clients]);
        const uint64_t t1 = NowNs();
        if (!ok) continue;
        if (resp.affected != 1) {
          verdicts[read_clients].Fail("write acked with affected=" +
                                        std::to_string(resp.affected));
          continue;
        }
        result->acked[result->num_acked++] = op;
        if (in_window && t1 < end) tally.Record(start, window_ns, t0, t1);
        if (mirror != nullptr) mirror->Execute(req);
      }
    });
  }
  if (stop == nullptr) {
    for (size_t i = 0; i <= kWindowSlices; ++i) {
      const uint64_t due = start + window_ns * i / kWindowSlices;
      const uint64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      getrusage(RUSAGE_SELF, &result->usage[i]);
      result->host[i] = ReadHostCpu();
    }
  }
  for (uint32_t t = 0; t < read_clients; ++t) threads[t].join();
  // Wakes a writer still waiting for reads that will not come.
  readers_done.store(true);
  reads_done.fetch_add(1);
  reads_done.notify_all();
  if (result->has_writer()) threads.back().join();

  for (uint32_t t = 0; t <= read_clients; ++t) {
    const ClientTally& tally = tallies[t];
    if (!verdicts[t].correct) verdict->correct = false;
    result->attempted += tally.attempted;
    result->failed += tally.failed;
    result->shed += tally.shed;
  }
}

// ---------------------------------------------------------------------------
// Layer counters read around the closed-loop window (traced run only).

struct ShardCounters {
  spatial::ServiceStats stats;
  Hist read_latency;
  Hist wal_fsync, wal_records, wal_bytes, checkpoint_sync;
  uint64_t checkpoints = 0;
  uint64_t reclaimed = 0;
};

std::vector<ShardCounters> ReadCounters(ShardSet& set) {
  std::vector<ShardCounters> out(set.num_shards());
  for (uint32_t s = 0; s < set.num_shards(); ++s) {
    Service& svc = set.shard(s);
    out[s].stats = svc.Snapshot();
    out[s].read_latency =
        ScrapeHistogram(svc.ScrapeMetrics(), "spatial_read_latency_ns");
    if (const spatial::ServingDb<2>* db = svc.serving_db(); db != nullptr) {
      out[s].wal_fsync = db->wal_metrics().fsync_ns.Snapshot();
      out[s].wal_records = db->wal_metrics().commit_records.Snapshot();
      out[s].wal_bytes = db->wal_metrics().commit_bytes.Snapshot();
      out[s].checkpoint_sync = db->checkpoint_sync_histogram().Snapshot();
      out[s].checkpoints = db->checkpoints();
      out[s].reclaimed = db->reclaimed_pages_total();
    }
  }
  return out;
}

uint64_t Checkpoints(ShardSet& set) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < set.num_shards(); ++s) {
    if (const auto* db = set.shard(s).serving_db(); db != nullptr) {
      total += db->checkpoints();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Traced replay: each request of the stream goes through every public
// boundary in turn (rotating the order), one span per call.

enum Boundary { kRpc, kRouter4, kRouter1, kService, kResident, kPaged,
                kNumBoundaries };
constexpr const char* kBoundaryNames[kNumBoundaries] = {
    "rpc", "router4", "router1", "service", "core.resident", "core.paged"};

struct Span {
  uint32_t name;  // Boundary, or kNumBoundaries for the request root
  uint64_t start_ns, end_ns;
  uint64_t parent;  // span index of the request root; self for the root
  uint64_t request_id;
};

struct ReplayResult {
  std::vector<double> us[kNumBoundaries];
  std::vector<double> handoff_us;
  std::vector<double> untraced_rpc_us;
  std::vector<double> merge_us;  // router root merge spans, sampled pass
  uint64_t allocs[kNumBoundaries] = {};
  QueryStats core;    // paged core, summed
  QueryStats shard4;  // router x4 merged stats, summed
  uint64_t requests = 0;
  uint64_t knn_queries = 0;
  double request_bytes = 0.0, response_bytes = 0.0;
  std::vector<Span> spans;
};

ReplayResult Replay(const Inputs& in, Stack* served, Stack* single,
                    uint16_t port, const spatial::ResidentTree<2>* resident,
                    PagedReader* paged, double budget_s, size_t max_requests,
                    Verdict* verdict) {
  ReplayResult out;
  auto client = Take(Client::Connect("127.0.0.1", port), "replay connect");
  spatial::QueryScratch<2> scratch;
  std::vector<Neighbor> knn_out;
  spatial::BatchKnnResult batch_out;
  // Untraced pass first: the same requests, RPC only, clock reads only.
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  for (size_t i = 0; i < max_requests && NowNs() < deadline; ++i) {
    const uint64_t t0 = NowNs();
    auto r = client->Call(in.reads[i % in.reads.size()]);
    const uint64_t t1 = NowNs();
    if (!r.ok() || !r->ok()) verdict->Fail("untraced replay rpc failed");
    out.untraced_rpc_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  const size_t n = out.untraced_rpc_us.size();
  out.spans.reserve(n * (kNumBoundaries + 1));
  std::string wire;
  for (size_t i = 0; i < n; ++i) {
    const Request& req = in.reads[i % in.reads.size()];
    const uint64_t root = out.spans.size();
    out.spans.push_back(Span{kNumBoundaries, NowNs(), 0, root, i});
    for (int j = 0; j < kNumBoundaries; ++j) {
      const int b = (static_cast<int>(i) + j) % kNumBoundaries;
      Status status = Status::OK();
      QueryStats stats;
      uint64_t latency_ns = 0;
      const uint64_t a0 = ThreadAllocations();
      const uint64_t t0 = NowNs();
      switch (b) {
        case kRpc: {
          auto r = client->Call(req);
          status = !r.ok() ? r.status() : r->status;
          break;
        }
        case kRouter4: {
          const Response r = served->router().Execute(req);
          status = r.status;
          stats = r.stats;
          break;
        }
        case kRouter1:
          status = single->router().Execute(req).status;
          break;
        case kService: {
          const Response r = single->set().shard(0).Execute(req);
          status = r.status;
          latency_ns = r.latency_ns;
          break;
        }
        case kResident:
          status = ResidentRun(*resident, req, &scratch, &knn_out, &batch_out,
                               &stats);
          break;
        case kPaged:
          status = paged->Run(req, &scratch, &knn_out, &batch_out, &stats);
          break;
      }
      const uint64_t t1 = NowNs();
      out.allocs[b] += ThreadAllocations() - a0;
      if (!status.ok()) {
        verdict->Fail(std::string(kBoundaryNames[b]) +
                      " failed in replay: " + status.ToString());
      }
      out.spans.push_back(Span{static_cast<uint32_t>(b), t0, t1, root, i});
      out.us[b].push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (b == kService) {
        out.handoff_us.push_back(
            (static_cast<double>(t1 - t0) - static_cast<double>(latency_ns)) *
            1e-3);
      }
      if (b == kPaged) out.core.Add(stats);
      if (b == kRouter4) out.shard4.Add(stats);
    }
    out.spans[root].end_ns = NowNs();
    wire.clear();
    spatial::EncodeRequest<2>(req, &wire);
    out.request_bytes += static_cast<double>(wire.size() + 4);
    ++out.requests;
    out.knn_queries += req.kind == spatial::QueryKind::kBatchKnn
                           ? req.batch_queries.size()
                           : 1;
  }
  // A response of the stream's shape, for its wire size.
  if (n > 0) {
    const Response r = served->router().Execute(in.reads[0]);
    wire.clear();
    spatial::EncodeResponse<2>(r, &wire);
    out.response_bytes = static_cast<double>(wire.size() + 4);
  }
  // Merge time comes from the router's own root span (total minus scatter
  // of a sampled request), the one trace field that does not depend on
  // shard order. A short pass with the trace context set by the caller
  // fills the router's sampled reservoir.
  for (size_t i = 0; i < std::min<size_t>(n, 256); ++i) {
    Request req = in.reads[i % in.reads.size()];
    req.trace_id = i + 1;
    req.trace_sampled = true;
    if (!served->router().Execute(req).ok()) {
      verdict->Fail("sampled router pass failed");
    }
  }
  for (const auto& rec : served->router().trace_log().SampledEntries()) {
    out.merge_us.push_back(static_cast<double>(rec.merge_ns) * 1e-3);
  }
  return out;
}

void WriteSpans(const ReplayResult& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "span,name,start_ns,end_ns,parent,request_id\n");
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    std::fprintf(f, "%zu,%s,%llu,%llu,%llu,%llu\n", i,
                 s.name == kNumBoundaries ? "request" : kBoundaryNames[s.name],
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------

int SelfTest() {
  // The comparator must reject any perturbation of an answer.
  std::vector<Neighbor> a = {{7, 0.25}, {3, 0.5}, {9, 1.0}};
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("self-test %s: %s\n", what, cond ? "ok" : "FAILED");
    if (!cond) ++failures;
  };
  expect(SameAnswer(a, a), "identical answers compare equal");
  auto b = a;
  b[1].dist_sq = std::nextafter(b[1].dist_sq, 1.0);
  expect(!SameAnswer(a, b), "one-ulp distance change rejected");
  b = a;
  b[2].id ^= 1;
  expect(!SameAnswer(a, b), "changed id rejected");
  b = a;
  std::swap(b[0], b[1]);
  expect(!SameAnswer(a, b), "reordered answer rejected");
  b = a;
  b.pop_back();
  expect(!SameAnswer(a, b), "truncated answer rejected");
  // Across merges only the members of a k-th distance tie may differ.
  // Objects (id == index) at exact squared distances from the origin:
  // 7 at 0.25, 3 and 8 at 0.5625, 4, 5 and 9 at 1.0, 6 at 4.0.
  std::vector<Entry<2>> data(10);
  for (uint64_t id = 0; id < data.size(); ++id) {
    data[id] = Entry<2>{Rect<2>::FromPoint(Point2{{5.0, 5.0}}), id};
  }
  auto at = [&](uint64_t id, double x, double y) {
    data[id].mbr = Rect<2>::FromPoint(Point2{{x, y}});
  };
  at(7, 0.5, 0.0);
  at(3, 0.75, 0.0);
  at(8, 0.0, 0.75);
  at(9, 1.0, 0.0);
  at(4, 0.0, 1.0);
  at(5, -1.0, 0.0);
  at(6, 2.0, 0.0);
  const Point2 origin{{0.0, 0.0}};
  auto tie_ok = [&](const std::vector<Neighbor>& x,
                    const std::vector<Neighbor>& y) {
    bool tie = false;
    return SameUpToKthTie(x.data(), x.size(), y.data(), y.size(), origin,
                          data, &tie);
  };
  const std::vector<Neighbor> t = {{7, 0.25}, {3, 0.5625}, {9, 1.0},
                                   {4, 1.0}};
  expect(tie_ok(t, {{7, 0.25}, {3, 0.5625}, {4, 1.0}, {9, 1.0}}),
         "reordered k-th tie accepted across merges");
  expect(tie_ok(t, {{7, 0.25}, {3, 0.5625}, {9, 1.0}, {5, 1.0}}),
         "other member of the k-th tie accepted across merges");
  expect(!tie_ok(t, {{7, 0.25}, {8, 0.5625}, {9, 1.0}, {4, 1.0}}),
         "changed id before the k-th distance rejected across merges");
  expect(!tie_ok(t, {{7, 0.25}, {3, std::nextafter(0.5625, 1.0)}, {9, 1.0},
                     {4, 1.0}}),
         "one-ulp distance change rejected across merges");
  expect(!tie_ok(t, {{7, 0.25}, {3, 0.5625}, {9, 1.0}}),
         "truncated answer rejected across merges");
  expect(!tie_ok(t, {{7, 0.25}, {3, 0.5625}, {9, 1.0}, {9, 1.0}}),
         "duplicated id in the k-th tie rejected across merges");
  expect(!tie_ok(t, {{7, 0.25}, {3, 0.5625}, {9, 1.0}, {42, 1.0}}),
         "id not in the data rejected across merges");
  expect(!tie_ok({{7, 0.25}, {3, 0.5625}, {9, 1.0}},
                 {{7, 0.25}, {3, 0.5625}, {6, 1.0}}),
         "wrong id where no tie exists rejected across merges");
  // The histogram median stays inside its bucket and moves with the data.
  Hist h;
  h.counts[11] = 10;  // [1024, 2048)
  h.total_count = 10;
  const double m1 = HistMedian(h);
  h.counts[11] = 6;
  h.counts[10] = 4;
  const double m2 = HistMedian(h);
  expect(m1 >= 1024 && m1 < 2048 && m2 >= 1024 && m2 < m1,
         "histogram median interpolates inside its bucket");
  // The client latency histogram tracks the raw samples' percentiles.
  LatencyHist lat;
  std::vector<double> raw_us;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t ns = 20'000 + rng.Next64() % 400'000;
    lat.Add(ns);
    raw_us.push_back(static_cast<double>(ns) * 1e-3);
  }
  bool close = true;
  for (double p : {0.5, 0.99}) {
    const double want = Percentile(raw_us, p);
    close = close && std::abs(lat.PercentileUs(p) - want) < 0.01 * want;
  }
  expect(close, "latency histogram percentiles within 1% of the samples'");
  return failures == 0 ? 0 : 1;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const size_t points = args.tiny ? 5000 : w.points;
  const uint32_t batch = args.tiny ? std::min<uint32_t>(w.batch, 16) : w.batch;
  const uint32_t reads_per_write = w.reads_per_write;
  const double warmup_s = args.tiny ? 0.2 : 1.0;

  std::printf("provenance {\"kernel_tier\": \"%s\", \"build_type\": \"%s\", "
              "\"cxx_flags\": \"%s\", \"compiler\": \"%s\", "
              "\"counting_allocator\": %s}\n",
              spatial::KernelIsaName(spatial::ActiveKernelIsa()),
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER,
#ifdef PERFBENCH_COUNT_ALLOCS
              "true"
#else
              "false"
#endif
  );
  std::printf("workload %s seed %llu: %zu %s points, %u shards x 1 worker, "
              "%u read clients, batch %u, %s, window %.1f s\n",
              w.name, static_cast<unsigned long long>(args.seed), points,
              w.clustered ? "clustered" : "uniform", kShards, kReadClients,
              batch,
              reads_per_write > 0
                  ? ("1 write per " + std::to_string(reads_per_write) +
                     " reads").c_str()
                  : "read only",
              args.seconds);
  std::fflush(stdout);

  const Inputs in = MakeInputs(w, points, batch, args.seed);
  const std::string run_dir = std::string(kRunDir) + "/" +
                              std::to_string(static_cast<long>(getpid()));
  Churn churn(in.entries, args.seed);
  LoopResult loop(kReadClients, reads_per_write, 0.0, warmup_s, args.seconds);
  // peak_rss_mb counts what the process holds beyond this baseline: the
  // code, the inputs and the benchmark's own state stay out.
  malloc_trim(0);
  const double rss_baseline_mb = RssMb();

  // Set-up, repeated; the last stack is the one served.
  std::vector<SetupTimes> setups;
  std::vector<uint64_t> setup_steal;  // host steal ticks during each
  std::unique_ptr<Stack> served;
  const size_t min_setups = args.tiny ? 1 : kMinSetups;
  const size_t max_setups = args.tiny ? 1 : kMaxSetups;
  double setup_spent = 0.0;
  for (size_t i = 0;
       i < max_setups && (i < min_setups || setup_spent < kSetupBudgetS); ++i) {
    served.reset();
    SetupTimes t;
    const HostCpu host_before = ReadHostCpu();
    served = Stack::Build(w, in.entries, kShards, /*serve=*/true,
                          run_dir + "/served" + std::to_string(i), &t);
    setup_steal.push_back(ReadHostCpu().steal - host_before.steal);
    setups.push_back(t);
    setup_spent += t.total_s;
  }
  // setup_s and setup.*: medians over the half of the set-ups with the
  // least host steal, ties included, as in CpuPerRequest().
  const std::vector<SetupTimes> quiet_setups =
      LeastSteal(setups, setup_steal, (setups.size() + 1) / 2);
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : quiet_setups) v.push_back(t.*field);
    return Median(v);
  };
  // The 1-shard oracle: router x1, service, and both core tiers run on it.
  std::unique_ptr<Stack> single = Stack::Build(
      w, in.entries, 1, /*serve=*/false, run_dir + "/single", nullptr);
  // Held for the whole traced run: in mixed-serving the first write retires
  // the published arena, and the core boundary keeps timing this copy.
  std::shared_ptr<const spatial::ResidentTree<2>> resident =
      single->set().shard(0).resident_tree();
  auto paged = std::make_unique<PagedReader>(&single->set().shard(0));

  Verdict verdict;
  {
    auto client = Take(Client::Connect("127.0.0.1", served->port()),
                       "gate connect");
    Gate(in, served.get(), single.get(), client.get(), resident.get(),
         paged.get(), &verdict);
  }
  if (!verdict.correct) {
    PrintResult(false, 1, 1, {});
    return 1;
  }
  if (!args.trace) {
    // The untraced run needs the oracle for the gate only. Dropping it and
    // handing the freed heap back leaves the served stack as the memory
    // above the baseline.
    paged.reset();
    resident.reset();
    single.reset();
    malloc_trim(0);
  }

  const uint64_t ckpt_before = Checkpoints(served->set());
  const std::vector<ShardCounters> before = ReadCounters(served->set());
  const std::string scrape_before = served->router().ScrapeMetrics();
  const HostCpu cpu_before = ReadHostCpu();
  RssPeak rss;
  RunClosedLoop(served->port(), in, &churn, nullptr, nullptr, &verdict, &loop);
  const double peak_rss_mb = rss.Stop() - rss_baseline_mb;
  const HostCpu cpu_after = ReadHostCpu();
  // Share of the host's CPU time the hypervisor gave to other guests while
  // the loop ran: tells a noisy-neighbour outlier from a code change.
  std::printf("provenance {\"host_steal_frac\": %.4f}\n",
              cpu_after.total > cpu_before.total
                  ? static_cast<double>(cpu_after.steal - cpu_before.steal) /
                        static_cast<double>(cpu_after.total - cpu_before.total)
                  : 0.0);
  const std::vector<ShardCounters> after = ReadCounters(served->set());
  const std::string scrape_after = served->router().ScrapeMetrics();
  const uint64_t checkpoints = Checkpoints(served->set()) - ckpt_before;

  if (reads_per_write > 0) {
    VerifyWrites(&served->router(), loop.Acked(), &verdict);
    std::printf("writes: %zu acked and verified by range query; %llu "
                "checkpoints during warm-up and window\n",
                loop.num_acked,
                static_cast<unsigned long long>(checkpoints));
    if (checkpoints == 0) {
      // The workload exists to exercise WAL rotation; a window without a
      // rotation checkpoint did not measure what it claims to.
      verdict.Fail("mixed-serving window had zero rotation checkpoints");
    }
  }
  const ClientTally* read_tallies = loop.tallies.data();
  const ClientTally* write_tally = &loop.tallies.back();
  if (Completed(read_tallies, kReadClients) == 0) {
    verdict.Fail("no read completed in the window");
  }
  const SlicedStats reads = Sliced(read_tallies, kReadClients, loop.window_s);
  const SlicedStats writes = Sliced(write_tally, 1, loop.window_s);

  const CpuCost cost = CpuPerRequest(loop);
  std::printf("set-up: %zu repeats; medians over the %zu with the least "
              "host steal: %.3f s CPU, %.3f s wall\n",
              setups.size(), quiet_setups.size(),
              setup_median(&SetupTimes::cpu_s),
              setup_median(&SetupTimes::total_s));
  std::printf("cpu per request: %.2f us user, %.2f us system, %.3f "
              "voluntary context switches; medians over the %zu of %zu "
              "window slices with the least host steal (%.4f there)\n",
              cost.user_us, cost.sys_us, cost.switches, cost.slices,
              kWindowSlices, cost.steal_frac);
  std::printf("closed loop: %.1f s window; %llu reads in %zu slices, %llu "
              "writes in %zu slices; peak RSS %.1f MB above a %.1f MB "
              "baseline; shed %llu, failed %llu\n",
              loop.window_s,
              static_cast<unsigned long long>(
                  Completed(read_tallies, kReadClients)),
              reads.slices,
              static_cast<unsigned long long>(Completed(write_tally, 1)),
              writes.slices, peak_rss_mb, rss_baseline_mb,
              static_cast<unsigned long long>(loop.shed),
              static_cast<unsigned long long>(loop.failed));

  std::vector<Metric> metrics;
  const uint64_t failed_ops = loop.failed + loop.shed;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_median(&SetupTimes::cpu_s), "s"},
        {"user_cpu_us_per_request", cost.user_us, "us"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // Counter deltas over the closed-loop window, summed over the 4 shards.
    uint64_t res_hits = 0, res_falls = 0, fetches = 0, hits = 0, phys = 0;
    uint64_t shard_queries = 0;
    Hist queue_wait, read_lat, fsync, records, bytes, ckpt_sync;
    uint64_t reclaimed = 0;
    for (size_t s = 0; s < after.size(); ++s) {
      const auto& a = after[s];
      const auto& b = before[s];
      res_hits += a.stats.resident_hits - b.stats.resident_hits;
      res_falls += a.stats.resident_fallbacks - b.stats.resident_fallbacks;
      fetches +=
          a.stats.buffer.logical_fetches - b.stats.buffer.logical_fetches;
      hits += a.stats.buffer.hits - b.stats.buffer.hits;
      phys += a.stats.io.physical_reads - b.stats.io.physical_reads;
      shard_queries += a.stats.TotalQueries() - b.stats.TotalQueries();
      queue_wait += HistDelta(a.stats.queue_wait, b.stats.queue_wait);
      read_lat += HistDelta(a.read_latency, b.read_latency);
      fsync += HistDelta(a.wal_fsync, b.wal_fsync);
      records += HistDelta(a.wal_records, b.wal_records);
      bytes += HistDelta(a.wal_bytes, b.wal_bytes);
      ckpt_sync += HistDelta(a.checkpoint_sync, b.checkpoint_sync);
      reclaimed += a.reclaimed - b.reclaimed;
    }
    // Every read request visits every shard once.
    const double served_knn = static_cast<double>(shard_queries) / kShards *
                              (batch == 0 ? 1.0 : batch);
    const double shed_delta =
        ScrapeValue(scrape_after, "spatial_rpc_shed_total") -
        ScrapeValue(scrape_before, "spatial_rpc_shed_total");
    const double wire_errors =
        ScrapeValue(scrape_after, "spatial_rpc_wire_errors_total") -
        ScrapeValue(scrape_before, "spatial_rpc_wire_errors_total");

    // The replay. mixed-serving keeps its writer running at the write rate
    // of the closed loop, mirrored into the oracle so both stacks take the
    // paged path under write load.
    const uint64_t replay_start = NowNs();
    std::atomic<bool> stop{false};
    std::thread writer;
    const size_t max_requests = args.tiny ? 64 : (batch == 0 ? 4000 : 128);
    const double budget = args.seconds;
    const double write_rate =
        static_cast<double>(Completed(write_tally, 1)) / loop.window_s;
    LoopResult replay_writes(0, 0, reads_per_write > 0 ? write_rate : 0.0,
                             0.0, 3.0 * budget + 1.0);
    Verdict writer_verdict;  // the writer thread's own; merged after join
    if (replay_writes.has_writer()) {
      writer = std::thread([&] {
        RunClosedLoop(served->port(), in, &churn, &single->router(), &stop,
                      &writer_verdict, &replay_writes);
      });
      // Let the first mirrored write retire the oracle's arena.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ReplayResult replay = Replay(in, served.get(), single.get(),
                                 served->port(), resident.get(), paged.get(),
                                 budget, max_requests, &verdict);
    stop.store(true);
    if (writer.joinable()) writer.join();
    if (!writer_verdict.correct) verdict.correct = false;
    if (replay_writes.has_writer()) {
      VerifyWrites(&served->router(), replay_writes.Acked(), &verdict);
    }
    const double replay_s = static_cast<double>(NowNs() - replay_start) * 1e-9;
    std::filesystem::create_directories(kOutDir);
    const std::string span_path = std::string(kOutDir) + "/spans_" + w.name +
                                  "_seed" + std::to_string(args.seed) + ".csv";
    WriteSpans(replay, span_path);
    std::printf("traced replay: %llu requests x %d boundaries in %.2f s, %zu "
                "spans written to %s\n",
                static_cast<unsigned long long>(replay.requests),
                static_cast<int>(kNumBoundaries), replay_s,
                replay.spans.size(), span_path.c_str());

    const double reqs =
        static_cast<double>(std::max<uint64_t>(replay.requests, 1));
    const double knn =
        static_cast<double>(std::max<uint64_t>(replay.knn_queries, 1));
    auto p50 = [&](Boundary b) { return Median(replay.us[b]); };
    auto per_query = [&](Boundary b) {
      return static_cast<double>(replay.allocs[b]) / knn;
    };
    const QueryStats& core = replay.core;
    const double untraced_rpc = Median(replay.untraced_rpc_us);
    metrics = {
        {"net.rpc_call_us_p50", p50(kRpc), "us"},
        {"net.self_us_p50", p50(kRpc) - p50(kRouter4), "us"},
        {"net.request_bytes", replay.request_bytes / reqs, "bytes"},
        {"net.response_bytes", replay.response_bytes, "bytes"},
        {"net.shed_total", shed_delta, "count"},
        {"net.wire_errors_total", wire_errors, "count"},
        {"shard.router1_us_p50", p50(kRouter1), "us"},
        {"shard.router4_us_p50", p50(kRouter4), "us"},
        {"shard.fanout_us_p50", p50(kRouter4) - p50(kRouter1), "us"},
        {"shard.merge_us_p50", Median(replay.merge_us), "us"},
        {"shard.pages_per_query",
         static_cast<double>(replay.shard4.nodes_visited) / knn, "count"},
        {"service.execute_us_p50", p50(kService), "us"},
        {"service.handoff_us_p50", Median(replay.handoff_us), "us"},
        {"service.queue_wait_us_p50", HistMedian(queue_wait) * 1e-3, "us"},
        {"service.resident_hit_frac",
         Ratio(static_cast<double>(res_hits),
               static_cast<double>(res_hits + res_falls)),
         "ratio"},
        {"core.resident_us_p50", p50(kResident), "us"},
        {"core.paged_us_p50", p50(kPaged), "us"},
        {"core.pages_per_query", static_cast<double>(core.nodes_visited) / knn,
         "count"},
        {"core.distance_computations_per_query",
         static_cast<double>(core.distance_computations) / knn, "count"},
        {"core.prune_frac",
         Ratio(static_cast<double>(core.pruned_s1 + core.pruned_s3),
               static_cast<double>(core.abl_entries_generated)),
         "ratio"},
        {"storage.pool_hit_frac",
         Ratio(static_cast<double>(hits), static_cast<double>(fetches)),
         "ratio"},
        {"storage.physical_reads_per_query",
         Ratio(static_cast<double>(phys), served_knn), "count"},
        {"storage.read_latency_us_p50", HistMedian(read_lat) * 1e-3, "us"},
        {"wal.records_per_commit", records.Mean(), "count"},
        {"wal.fsync_us_p50", HistMedian(fsync) * 1e-3, "us"},
        {"wal.bytes_per_write",
         Ratio(static_cast<double>(bytes.total),
               static_cast<double>(records.total)),
         "bytes"},
        {"db.checkpoints", static_cast<double>(checkpoints), "count"},
        {"db.checkpoint_sync_us_p50", HistMedian(ckpt_sync) * 1e-3, "us"},
        {"snapshot.reclaimed_pages", static_cast<double>(reclaimed), "count"},
        {"setup.shard_build_s", setup_median(&SetupTimes::shard_build_s), "s"},
        {"setup.resident_compile_s",
         setup_median(&SetupTimes::resident_compile_s), "s"},
        {"setup.server_start_s", setup_median(&SetupTimes::server_start_s),
         "s"},
        {"alloc.per_query.core", per_query(kResident), "count"},
        {"alloc.per_query.service", per_query(kService), "count"},
        {"alloc.per_query.router4", per_query(kRouter4), "count"},
        {"alloc.per_query.rpc", per_query(kRpc), "count"},
        {"process.cpu_us_per_request", cost.user_us + cost.sys_us, "us"},
        {"process.sys_cpu_us_per_request", cost.sys_us, "us"},
        {"process.voluntary_switches_per_request", cost.switches, "count"},
        {"setup.wall_s", setup_median(&SetupTimes::total_s), "s"},
        {"throughput_qps", reads.rate, "1/s"},
        {"read_p50_us", reads.p50_us, "us"},
        {"read_p99_us", reads.p99_us, "us"},
        {"write_p50_us", writes.p50_us, "us"},
        {"write_p99_us", writes.p99_us, "us"},
        {"failed_frac",
         Ratio(static_cast<double>(failed_ops),
               static_cast<double>(loop.attempted)),
         "ratio"},
        {"trace.overhead_frac", Ratio(p50(kRpc), untraced_rpc) - 1.0,
         "ratio"},
    };
  }
  PrintResult(verdict.correct, std::max<uint64_t>(loop.attempted, 1),
              failed_ops, metrics);
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.self_test) return perfbench::SelfTest();
  const int rc = perfbench::Run(args);
  std::error_code ec;
  std::filesystem::remove_all(std::string(perfbench::kRunDir) + "/" +
                                  std::to_string(static_cast<long>(getpid())),
                              ec);
  std::filesystem::remove(perfbench::kRunDir, ec);  // only if now empty
  return rc;
}
