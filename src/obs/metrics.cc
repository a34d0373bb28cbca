#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace ecocharge {
namespace obs {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return std::max<size_t>(1, p);
}

}  // namespace

size_t DefaultShards() {
  unsigned hw = std::thread::hardware_concurrency();
  return RoundUpPow2(std::min<size_t>(16, std::max<size_t>(1, hw)));
}

Counter::Counter(size_t shards)
    : mask_(RoundUpPow2(shards) - 1),
      cells_(std::make_unique<Cell[]>(mask_ + 1)) {}

Histogram::Histogram(size_t shards)
    : mask_(RoundUpPow2(shards) - 1),
      shards_(std::make_unique<Shard[]>(mask_ + 1)) {}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kNumBuckets, 0);
  uint64_t min = std::numeric_limits<uint64_t>::max();
  for (size_t s = 0; s <= mask_; ++s) {
    const Shard& shard = shards_[s];
    for (size_t b = 0; b < kNumBuckets; ++b) {
      uint64_t n = shard.buckets[b].load(std::memory_order_relaxed);
      snap.buckets[b] += n;
      snap.count += n;
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    snap.max = std::max(snap.max, shard.max.load(std::memory_order_relaxed));
  }
  snap.min = snap.count ? min : 0;
  return snap;
}

uint64_t HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  // Rank of the q-th sample, 1-based: the same convention as a sorted
  // vector's sorted[ceil(q*n) - 1] (clamped), so the bucket found here is
  // exactly the bucket that sample falls in.
  double scaled = q * static_cast<double>(count);
  uint64_t rank = static_cast<uint64_t>(std::ceil(scaled));
  rank = std::max<uint64_t>(1, std::min<uint64_t>(rank, count));
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) return Histogram::BucketLowerBound(b);
  }
  return Histogram::BucketLowerBound(buckets.size() - 1);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (buckets.empty()) buckets.assign(Histogram::kNumBuckets, 0);
  for (size_t b = 0; b < buckets.size() && b < other.buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  min = count ? std::min(min, other.min) : other.min;
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

MetricsRegistry::MetricsRegistry(size_t shards)
    : shards_(shards ? RoundUpPow2(shards) : DefaultShards()) {}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return counters_[it->second].metric.get();
  counter_index_[name] = counters_.size();
  counters_.push_back({name, unit, std::make_unique<Counter>(shards_)});
  return counters_.back().metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return gauges_[it->second].metric.get();
  gauge_index_[name] = gauges_.size();
  gauges_.push_back({name, unit, std::make_unique<Gauge>()});
  return gauges_.back().metric.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) {
    return histograms_[it->second].metric.get();
  }
  histogram_index_[name] = histograms_.size();
  histograms_.push_back({name, unit, std::make_unique<Histogram>(shards_)});
  return histograms_.back().metric.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_index_.find(name);
  return it == counter_index_.end() ? nullptr
                                    : counters_[it->second].metric.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_index_.find(name);
  return it == gauge_index_.end() ? nullptr
                                  : gauges_[it->second].metric.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? nullptr
                                      : histograms_[it->second].metric.get();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& named : counters_) {
    out.emplace_back(named.name, named.metric->Value());
  }
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& named : gauges_) {
    out.emplace_back(named.name, named.metric->Value());
  }
  return out;
}

std::vector<MetricsRegistry::NamedHistogram>
MetricsRegistry::HistogramValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NamedHistogram> out;
  out.reserve(histograms_.size());
  for (const auto& named : histograms_) {
    out.push_back({named.name, named.unit, named.metric->Snapshot()});
  }
  return out;
}

}  // namespace obs
}  // namespace ecocharge
