#ifndef SPATIAL_OBS_DIST_TRACE_H_
#define SPATIAL_OBS_DIST_TRACE_H_

#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

namespace spatial {
namespace obs {

// Distributed tracing across the scatter-gather hop (docs/OBSERVABILITY.md
// "Distributed traces"). The router is the root of a trace: it stamps the
// trace context (trace id, root span id, sample flag) into every scattered
// copy of a sampled request, each shard returns its own QueryTraceRecord
// in the response, and the router assembles the per-shard spans plus its
// own root spans (queue, scatter, merge) into one RouterTraceRecord.
//
// Everything here is fixed-size POD for the same reason QueryTraceRecord
// is: the capture path must never allocate. A router serving more shards
// than kMaxTraceShards records the first kMaxTraceShards and counts the
// rest in num_shards (the JSON dump flags the truncation).
inline constexpr uint32_t kMaxTraceShards = 16;

// One shard's slice of a distributed trace, as observed from the router.
// `rpc_ns` is the router-side span: submit → the shard's response was
// fulfilled when the scatter is queued, the shard's own execution when
// it runs inline on the router's thread. `queue_wait_ns` + `execute_ns`
// are the shard's own accounting, so rpc_ns - queue_wait_ns - execute_ns
// is the transport/overhead share — the network-vs-execute split the
// trace exists to expose.
struct ShardSpan {
  uint32_t shard = 0;
  uint16_t worker = 0;     // shard worker that executed the request
  bool traced = false;     // shard returned its sampled trace record
  uint64_t rpc_ns = 0;     // router-side span (see above)
  uint64_t queue_wait_ns = 0;  // shard-reported (valid when traced)
  uint64_t execute_ns = 0;     // shard-reported worker wall time
  QueryStats stats;            // shard-reported per-query counters
  uint32_t nodes_per_level[kTraceMaxLevels] = {};  // valid when traced
};

// One assembled cross-shard trace (or a router-slow capture without the
// per-shard detail when the request was not sampled).
struct RouterTraceRecord {
  uint64_t seq = 0;           // capture order, assigned by the log
  uint64_t trace_id = 0;      // propagated or router-generated, nonzero
  uint64_t root_span_id = 0;  // parent of every shard span
  char kind_name[16] = {};
  uint32_t k = 0;
  bool traced = false;  // sampled: per-shard spans and level counts valid
  // Root spans. `queue_ns` is the slowest shard's queue wait — the
  // scatter's queueing component; the router itself never queues.
  uint64_t queue_ns = 0;
  uint64_t scatter_ns = 0;  // fan-out → last shard answer gathered
  uint64_t merge_ns = 0;    // gather → merged answer ready
  uint64_t total_ns = 0;    // Execute entry → merged answer
  uint32_t num_shards = 0;  // shards scattered to (may exceed the array)
  uint32_t straggler = 0;   // shard index with the largest rpc_ns
  QueryStats merged_stats;
  ShardSpan shards[kMaxTraceShards];

  void SetKindName(const char* name) {
    std::strncpy(kind_name, name, sizeof(kind_name) - 1);
    kind_name[sizeof(kind_name) - 1] = '\0';
  }

  uint32_t captured_shards() const {
    return num_shards < kMaxTraceShards ? num_shards : kMaxTraceShards;
  }
};

// The router-level slow-query log: structurally the service's SlowQueryLog
// (newest-wins slow ring + algorithm-R reservoir, preallocated storage,
// mutexed Record that runs at most once per request and never allocates),
// but holding assembled cross-shard traces instead of single-service
// records. DumpJson() backs the kDumpSlowLog admin frame.
class DistTraceLog {
 public:
  struct Options {
    size_t slow_capacity = 64;
    size_t sampled_capacity = 64;
    uint64_t slow_threshold_ns = 10'000'000;  // 10 ms
  };

  explicit DistTraceLog(const Options& options);
  DistTraceLog(const DistTraceLog&) = delete;
  DistTraceLog& operator=(const DistTraceLog&) = delete;

  // Routes by total_ns: >= threshold goes to the slow ring, else to the
  // sampled reservoir. Never allocates.
  void Record(const RouterTraceRecord& record);

  uint64_t slow_threshold_ns() const { return options_.slow_threshold_ns; }
  uint64_t total_recorded() const;
  size_t slow_captured() const;
  size_t sampled_captured() const;

  std::vector<RouterTraceRecord> SlowEntries() const;
  std::vector<RouterTraceRecord> SampledEntries() const;

  // {"slow_threshold_ns":..., "slow":[...], "sampled":[...]}; see
  // docs/OBSERVABILITY.md "Distributed traces" for the record schema.
  std::string DumpJson() const;

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::vector<RouterTraceRecord> slow_;  // ring, capacity slow_capacity
  size_t slow_next_ = 0;
  std::vector<RouterTraceRecord> sampled_;  // reservoir
  uint64_t sampled_seen_ = 0;
  uint64_t seq_ = 0;
  uint64_t rng_ = 0xA0761D6478BD642FULL;
};

// One trace rendered as a JSON object (the DumpJson element form) — used
// directly by tests and tools that hold a record.
void AppendRouterTraceJson(std::string* out, const RouterTraceRecord& r);

}  // namespace obs
}  // namespace spatial

#endif  // SPATIAL_OBS_DIST_TRACE_H_
