#ifndef ECOCHARGE_OBS_METRICS_H_
#define ECOCHARGE_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ecocharge {
namespace obs {

/// \brief Stable per-thread slot used to spread hot-path metric updates
/// over per-worker shards (the same idea as the EIS cache sharding: two
/// threads contend only when their slots collapse onto the same shard).
/// Slots are assigned on a thread's first metric touch and never change.
inline size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Shard count of metrics built without an explicit one: the hardware
/// concurrency rounded up to a power of two, capped at 16.
size_t DefaultShards();

/// \brief Monotonically increasing event count, sharded per worker.
///
/// Add() is lock-free and allocation-free: one relaxed fetch_add on a
/// cache-line-padded cell chosen by the calling thread's slot, so
/// concurrent workers never ping-pong the same line. Value() sums the
/// shards (exact — increments are never lost, the triple-read is only
/// approximately simultaneous under traffic, like AtomicCacheStats).
class Counter {
 public:
  explicit Counter(size_t shards);

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[ThreadSlot() & mask_].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (size_t i = 0; i <= mask_; ++i) {
      total += cells_[i].v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  size_t mask_;
  std::unique_ptr<Cell[]> cells_;
};

/// \brief An instantaneous signed level (queue depth, active clients).
///
/// Unlike counters, gauges go up and down; a single relaxed atomic cell
/// suffices because each reported level is written by few producers and
/// the value is advisory accounting, not synchronization.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Point-in-time view of one histogram (plain values; safe to keep
/// after the source registry is gone).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< 0 when count == 0
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  ///< one count per fixed bucket

  double Mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
  }

  /// Lower bound of the bucket holding the rank-ceil(q*count) sample
  /// (q in [0, 1]); 0 for an empty histogram. Matches a sorted-vector
  /// oracle up to the bucket's relative width (< 1/16 above 16).
  uint64_t ValueAtQuantile(double q) const;

  /// Accumulates `other` bucket-wise; addition, so merging any number of
  /// per-worker snapshots in any order yields the same result as
  /// recording every sample into a single shard.
  void Merge(const HistogramSnapshot& other);
};

/// \brief Fixed-bucket log-scale histogram for latency-style values.
///
/// Buckets are log-linear (HDR-style): values 0..15 get exact unit
/// buckets, then every power-of-two octave is split into 16 linear
/// sub-buckets, covering the full uint64 range in 976 buckets with a
/// worst-case relative bucket width of 1/16 (6.25%). Record() is
/// lock-free and allocation-free: a bucket fetch_add on the calling
/// thread's shard plus sum/min/max upkeep, all relaxed atomics.
class Histogram {
 public:
  static constexpr size_t kSubBucketBits = 4;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 16
  static constexpr size_t kNumBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 976

  explicit Histogram(size_t shards);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    Shard& shard = shards_[ThreadSlot() & mask_];
    shard.buckets[BucketIndex(value)].fetch_add(1,
                                                std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = shard.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !shard.max.compare_exchange_weak(seen, value,
                                            std::memory_order_relaxed)) {
    }
    seen = shard.min.load(std::memory_order_relaxed);
    while (value < seen &&
           !shard.min.compare_exchange_weak(seen, value,
                                            std::memory_order_relaxed)) {
    }
  }

  /// Sums the per-worker shards into one value snapshot.
  HistogramSnapshot Snapshot() const;

  /// Bucket of `value`: identity below 16, then
  /// 16 + (octave - 4) * 16 + sub with sub the top-4-bits-after-leading.
  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<size_t>(value);
    int octave = std::bit_width(value) - 1;  // >= kSubBucketBits
    size_t sub = static_cast<size_t>(
        (value >> (octave - static_cast<int>(kSubBucketBits))) - kSubBuckets);
    return kSubBuckets +
           (static_cast<size_t>(octave) - kSubBucketBits) * kSubBuckets + sub;
  }

  /// Smallest value mapping to `index` (the inverse of BucketIndex).
  static uint64_t BucketLowerBound(size_t index) {
    if (index < kSubBuckets) return index;
    size_t octave = kSubBucketBits + (index - kSubBuckets) / kSubBuckets;
    size_t sub = (index - kSubBuckets) % kSubBuckets;
    return static_cast<uint64_t>(kSubBuckets + sub)
           << (octave - kSubBucketBits);
  }

 private:
  struct Shard {
    Shard() {
      for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
    }
    std::atomic<uint64_t> buckets[kNumBuckets];
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{std::numeric_limits<uint64_t>::max()};
    std::atomic<uint64_t> max{0};
  };
  size_t mask_;
  std::unique_ptr<Shard[]> shards_;
};

/// \brief Named metric store: counters, gauges, and latency histograms.
///
/// Registration (Get*) takes a mutex and may allocate — it is the cold
/// path, done once at wiring time; components keep the returned handle
/// and the hot path touches only the handle's relaxed atomics, with zero
/// heap allocations. Handles stay valid for the registry's lifetime
/// (metrics are never removed). Get* with an already-registered name
/// returns the same handle, so independent components naturally share a
/// metric by naming it identically.
class MetricsRegistry {
 public:
  /// \param shards per-metric worker shards (rounded up to a power of
  ///        two); 0 picks a default from the hardware concurrency.
  explicit MetricsRegistry(size_t shards = 0);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `unit` is a free-form tag exported with the metric (e.g. "ns",
  /// "requests"); the first registration of a name wins the unit.
  Counter* GetCounter(const std::string& name, const std::string& unit = "");
  Gauge* GetGauge(const std::string& name, const std::string& unit = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& unit = "");

  /// Lookup without registration; null when the name is unknown. The
  /// const forms let exporters and benches read a registry they do not
  /// own.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Value snapshots in registration order (the statsz export surface).
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const;
  struct NamedHistogram {
    std::string name;
    std::string unit;
    HistogramSnapshot snapshot;
  };
  std::vector<NamedHistogram> HistogramValues() const;

  size_t shards() const { return shards_; }

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::string unit;
    std::unique_ptr<T> metric;
  };

  size_t shards_;
  mutable std::mutex mu_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
  std::unordered_map<std::string, size_t> counter_index_;
  std::unordered_map<std::string, size_t> gauge_index_;
  std::unordered_map<std::string, size_t> histogram_index_;
};

/// \brief Records the wall-clock nanoseconds of a scope into a histogram.
///
/// A null histogram makes the timer a complete no-op (no clock reads), so
/// un-instrumented components pay one branch. Allocation-free.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_) start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (!histogram_) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    histogram_->Record(ns > 0 ? static_cast<uint64_t>(ns) : 0);
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace ecocharge

#endif  // ECOCHARGE_OBS_METRICS_H_
