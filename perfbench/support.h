#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

// Measurement helpers for the request-anatomy benchmark (anatomy.cc):
// sample statistics, the answer comparator the correctness gate uses, the
// client-side latency histogram, histogram deltas read back from the
// library's instruments and its Prometheus scrape, resident-memory
// sampling, and the one-line JSON result writer.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/neighbor_buffer.h"
#include "geom/metrics.h"
#include "geom/point.h"
#include "obs/histogram.h"
#include "rtree/entry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Linearly interpolated percentile (p in [0, 1]) of a sample, 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

// Answers are equal only when byte-identical: same length, and every
// (id, dist_sq) pair memcmp-equal in the same order.
inline bool SameAnswer(const spatial::Neighbor* a, size_t na,
                       const spatial::Neighbor* b, size_t nb) {
  return na == nb &&
         (na == 0 || std::memcmp(a, b, na * sizeof(spatial::Neighbor)) == 0);
}

inline bool SameAnswer(const std::vector<spatial::Neighbor>& a,
                       const std::vector<spatial::Neighbor>& b) {
  return SameAnswer(a.data(), a.size(), b.data(), b.size());
}

// Answers from different merge paths agree when, sorted by (dist_sq, id),
// they are byte-identical except for which members of an exact-distance
// tie at the k-th position they report. A single tree breaks such ties by
// discovery order and the shard router by object id, so both are correct
// (docs/SHARDING.md, "Distance ties"). Everything strictly closer than
// the k-th distance must match exactly, and the tie group must have the
// same size and distance. Each member of either group must be a real tie
// member: an object of `data` (where id == index) that appears once and
// lies at exactly the reported distance from `query`. `*tie` is set when
// the answers needed that allowance.
template <int D>
bool SameUpToKthTie(const spatial::Neighbor* a, size_t na,
                    const spatial::Neighbor* b, size_t nb,
                    const spatial::Point<D>& query,
                    const std::vector<spatial::Entry<D>>& data, bool* tie) {
  *tie = false;
  if (SameAnswer(a, na, b, nb)) return true;
  if (na != nb || na == 0) return false;
  auto less = [](const spatial::Neighbor& x, const spatial::Neighbor& y) {
    return x.dist_sq != y.dist_sq ? x.dist_sq < y.dist_sq : x.id < y.id;
  };
  std::vector<spatial::Neighbor> sa(a, a + na), sb(b, b + nb);
  std::sort(sa.begin(), sa.end(), less);
  std::sort(sb.begin(), sb.end(), less);
  const double kth = sa.back().dist_sq;
  for (size_t i = 0; i < na; ++i) {
    if (sa[i].dist_sq != sb[i].dist_sq) return false;
    if (sa[i].dist_sq < kth && sa[i].id != sb[i].id) return false;
  }
  for (const std::vector<spatial::Neighbor>* s : {&sa, &sb}) {
    for (size_t i = 0; i < na; ++i) {
      const spatial::Neighbor& x = (*s)[i];
      if (x.dist_sq < kth) continue;
      // Sorted by (dist_sq, id), so a repeated id sits next to itself.
      if (i > 0 && (*s)[i - 1].id == x.id) return false;
      if (x.id >= data.size() ||
          spatial::MinDistSq(query, data[x.id].mbr) != x.dist_sq) {
        return false;
      }
    }
  }
  *tie = true;
  return true;
}

// Client-side latency histogram: 64 linear sub-buckets per power of two of
// nanoseconds (under 1.6% wide), exact below 128 ns, values clamped below
// 2^40 ns. Its memory is fixed however many requests complete, so a
// faster program does not grow the benchmark's own footprint.
class LatencyHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr size_t kBins = size_t{35} << kSubBits;

  LatencyHist() : counts_(kBins, 0) {}

  void Add(uint64_t ns) {
    ++counts_[Bin(ns)];
    ++count_;
  }
  void Merge(const LatencyHist& other) {
    for (size_t i = 0; i < kBins; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }

  // Percentile (p in [0, 1]) in microseconds, the sample at rank
  // p * (count - 1) placed linearly inside its bucket; 0 when empty.
  double PercentileUs(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p * static_cast<double>(count_ - 1);
    double seen = 0.0;
    for (size_t bin = 0; bin < kBins; ++bin) {
      const double c = static_cast<double>(counts_[bin]);
      if (c > 0.0 && seen + c > rank) {
        uint64_t lower = bin, width = 1;
        if (bin >= (size_t{2} << kSubBits)) {
          const int e = static_cast<int>(bin >> kSubBits) - 1;
          lower = (bin - (static_cast<uint64_t>(e) << kSubBits)) << e;
          width = uint64_t{1} << e;
        }
        const double frac = std::clamp((rank - seen + 0.5) / c, 0.0, 1.0);
        return (static_cast<double>(lower) +
                frac * static_cast<double>(width)) * 1e-3;
      }
      seen += c;
    }
    return 0.0;
  }

 private:
  static size_t Bin(uint64_t ns) {
    ns = std::min<uint64_t>(ns, (uint64_t{1} << 40) - 1);
    if (ns < (uint64_t{2} << kSubBits)) return static_cast<size_t>(ns);
    const int e = std::bit_width(ns) - 1 - kSubBits;
    return (static_cast<size_t>(e) << kSubBits) + static_cast<size_t>(ns >> e);
  }

  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

using Hist = spatial::obs::HistogramSnapshot;

// after - before, bucket by bucket (both from one monotonic instrument).
inline Hist HistDelta(const Hist& after, const Hist& before) {
  Hist d;
  for (int b = 0; b < spatial::obs::kHistogramBuckets; ++b) {
    d.counts[b] = after.counts[b] - before.counts[b];
  }
  d.total_count = after.total_count - before.total_count;
  d.total = after.total - before.total;
  d.max = after.max;
  return d;
}

// Median of a power-of-two histogram, interpolated linearly inside the
// bucket holding it (bucket b covers [2^(b-1), 2^b)). The library's own
// Percentile() reports the bucket's upper bound, which would read the same
// on every run; the interpolation keeps the estimate continuous. 0 when
// the histogram is empty.
inline double HistMedian(const Hist& h) {
  if (h.total_count == 0) return 0.0;
  const double rank = 0.5 * static_cast<double>(h.total_count);
  double seen = 0.0;
  for (int b = 0; b < spatial::obs::kHistogramBuckets; ++b) {
    const double c = static_cast<double>(h.counts[b]);
    if (c > 0.0 && seen + c >= rank) {
      // The bucket's samples sit at mid-rank positions spread evenly over
      // it, so a median that is the bucket's last sample does not report
      // the bucket's edge.
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
      const double hi = std::ldexp(1.0, b);
      const double frac = std::clamp((rank - seen - 0.5) / c, 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    seen += c;
  }
  return static_cast<double>(h.max);
}

// Sums every sample line of `name` (any label set) in a Prometheus text
// scrape. Histogram families are read through ScrapeHistogram instead.
inline double ScrapeValue(const std::string& text, const std::string& name) {
  double sum = 0.0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text.compare(pos, name.size(), name) == 0 &&
        pos + name.size() < end &&
        (text[pos + name.size()] == ' ' || text[pos + name.size()] == '{')) {
      const size_t space = text.rfind(' ', end);
      if (space != std::string::npos && space > pos) {
        sum += std::strtod(text.c_str() + space + 1, nullptr);
      }
    }
    pos = end + 1;
  }
  return sum;
}

// Rebuilds a histogram from its cumulative `_bucket{le="2^b-1"}` lines
// (summed over label sets) plus `_sum`.
inline Hist ScrapeHistogram(const std::string& text, const std::string& name) {
  Hist h;
  const std::string bucket = name + "_bucket{";
  uint64_t cumulative[spatial::obs::kHistogramBuckets] = {};
  size_t pos = 0;
  while ((pos = text.find(bucket, pos)) != std::string::npos) {
    const size_t le = text.find("le=\"", pos);
    const size_t end = text.find('\n', pos);
    if (le == std::string::npos || end == std::string::npos || le > end) break;
    const size_t space = text.rfind(' ', end);
    const uint64_t count = std::strtoull(text.c_str() + space + 1, nullptr, 10);
    if (text.compare(le + 4, 4, "+Inf") == 0) {
      h.total_count += count;
    } else {
      const uint64_t upper = std::strtoull(text.c_str() + le + 4, nullptr, 10);
      int b = 0;
      while (b < spatial::obs::kHistogramBuckets - 1 &&
             spatial::obs::HistogramSnapshot::BucketUpperBound(b) < upper) {
        ++b;
      }
      cumulative[b] += count;
    }
    pos = end;
  }
  // Cumulative -> per bucket. Buckets after the last emitted one repeat
  // the running total, so carry it forward.
  uint64_t prev = 0;
  uint64_t running = 0;
  for (int b = 0; b < spatial::obs::kHistogramBuckets; ++b) {
    if (cumulative[b] != 0) running = cumulative[b];
    h.counts[b] = running - prev;
    prev = running;
  }
  h.total = static_cast<uint64_t>(ScrapeValue(text, name + "_sum"));
  return h;
}

// Host CPU time from the first line of /proc/stat, in ticks: the total
// and the part stolen by the hypervisor. Zeros where it is unreadable.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};

inline HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return cpu;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) cpu.total += x;
    cpu.steal = v[7];
  }
  std::fclose(f);
  return cpu;
}

// CPU time used so far by the calling thread, in seconds.
inline double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Resident set size of this process now, in MiB (0 where unreadable).
inline double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// The largest RssMb() seen by a thread that samples it every 10 ms between
// construction and Stop().
class RssPeak {
 public:
  RssPeak() : peak_(RssMb()) {
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(10),
                           [this] { return stop_; })) {
        peak_ = std::max(peak_, RssMb());
      }
    });
  }
  RssPeak(const RssPeak&) = delete;
  RssPeak& operator=(const RssPeak&) = delete;
  ~RssPeak() { Stop(); }

  double Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return std::max(peak_, RssMb());
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double peak_;
  std::thread thread_;
};

// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The result line: the last line of standard output, exactly the keys
// correct / attempted / failed / metrics.
inline void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
