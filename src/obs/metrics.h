#ifndef OPERB_OBS_METRICS_H_
#define OPERB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stopwatch.h"

/// Lock-free process-wide metrics (DESIGN.md §10).
///
/// Instruments are named, append-only and immortal: a `MetricsRegistry`
/// hands out stable pointers that hot paths cache once at construction
/// and then update with relaxed atomics — no locks, no allocation, no
/// stores shared between writer threads (counters and gauges stripe
/// across cache-line-padded slots). Reads aggregate the slots; a
/// snapshot is therefore per-instrument atomic but not mutually
/// consistent across instruments (see the DESIGN.md caveat).

namespace operb::obs {

/// Slots per striped instrument. Threads are assigned round-robin, so
/// up to 16 writers never share a cache line; more wrap around.
inline constexpr std::size_t kInstrumentSlots = 16;

/// This thread's stripe index (round-robin at first use, then fixed).
inline std::size_t ThreadSlot() {
  thread_local const std::size_t slot = [] {
    static std::atomic<std::size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
  }();
  return slot & (kInstrumentSlots - 1);
}

/// Monotone event counter. `Add` is a single relaxed fetch_add on this
/// thread's private cache line; `Value` sums the stripes. Relaxed
/// ordering is sound because the counter is monotone and carries no
/// inter-thread control dependency — see DESIGN.md §10.
class Counter {
 public:
  void Add(std::uint64_t n) {
    slots_[ThreadSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kInstrumentSlots> slots_{};
};

/// Signed additive gauge (current level, e.g. live objects): same
/// striping as Counter, with Sub allowed. The aggregate is exact once
/// the writers quiesce; mid-flight reads can transiently undershoot.
class Gauge {
 public:
  void Add(std::int64_t n) {
    slots_[ThreadSlot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Sub(std::int64_t n) { Add(-n); }

  std::int64_t Value() const {
    std::int64_t sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Slot, kInstrumentSlots> slots_{};
};

/// High-water mark: CAS-max on one atomic. Contention is bounded by the
/// observation rate (per batch, not per point, on the hot paths).
class MaxGauge {
 public:
  void Observe(std::int64_t v) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::int64_t Value() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> max_{0};
};

/// A point-in-time copy of one histogram, safe to merge and query.
struct HistogramSnapshot {
  /// Bucket b holds values whose bit_width is b: bucket 0 is the value
  /// 0, bucket b>0 covers [2^(b-1), 2^b).
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// The bucket a value lands in (== std::bit_width).
  static std::size_t BucketIndex(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Smallest value bucket `b` can hold.
  static std::uint64_t BucketLowerBound(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// Upper-bound estimate of the p-quantile (p in [0,1]): the upper
  /// edge of the first bucket whose cumulative count reaches p*count.
  /// Exact to within one power of two — enough for latency triage.
  double ApproxPercentile(double p) const;

  void MergeFrom(const HistogramSnapshot& other);
};

/// Fixed-bucket log2 latency histogram. Record is three relaxed
/// fetch_adds and never allocates; buckets cover the full uint64 range
/// so no value is ever dropped or clamped.
class LatencyHistogram {
 public:
  void Record(std::uint64_t value) {
    buckets_[HistogramSnapshot::BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    s.count = Count();
    s.sum = Sum();
    return s;
  }

  void MergeFrom(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      buckets_[b].fetch_add(
          other.buckets_[b].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    count_.fetch_add(other.Count(), std::memory_order_relaxed);
    sum_.fetch_add(other.Sum(), std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Records `NowNanos()`-deltas into a histogram on scope exit. A null
/// histogram makes the timer a no-op, so call sites can pass the
/// pointer they may or may not have acquired.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* hist)
      : hist_(hist), start_ns_(hist != nullptr ? NowNanos() : 0) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Record(static_cast<std::uint64_t>(NowNanos() - start_ns_));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  std::int64_t start_ns_;
};

/// Name -> instrument directory. Get* creates on first use and returns
/// a pointer that stays valid for the registry's lifetime (deque
/// storage, instruments are never removed); callers cache it once and
/// hit the lock-free instrument directly afterwards. Distinct
/// instrument kinds live in distinct namespaces: a counter and a
/// histogram may share a name (they don't, by convention).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every production call site uses.
  /// Immortal (never destroyed), so worker threads may touch
  /// instruments during static destruction without UB.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  MaxGauge* GetMaxGauge(std::string_view name);
  LatencyHistogram* GetHistogram(std::string_view name);

  /// Sorted-by-name value dumps for the snapshot exporter. Each value
  /// is individually atomic; the set is not mutually consistent.
  std::vector<std::pair<std::string, std::uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, std::int64_t>> GaugeValues() const;
  std::vector<std::pair<std::string, std::int64_t>> MaxGaugeValues() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> HistogramValues()
      const;

 private:
  template <typename T>
  struct Directory {
    std::map<std::string, T*, std::less<>> by_name;
    std::deque<T> storage;
  };

  template <typename T>
  T* GetOrCreate(Directory<T>* dir, std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = dir->by_name.find(name); it != dir->by_name.end()) {
      return it->second;
    }
    dir->storage.emplace_back();
    T* created = &dir->storage.back();
    dir->by_name.emplace(std::string(name), created);
    return created;
  }

  mutable std::mutex mu_;
  Directory<Counter> counters_;
  Directory<Gauge> gauges_;
  Directory<MaxGauge> max_gauges_;
  Directory<LatencyHistogram> histograms_;
};

}  // namespace operb::obs

#endif  // OPERB_OBS_METRICS_H_
