#ifndef ECOCHARGE_EIS_TTL_CACHE_H_
#define ECOCHARGE_EIS_TTL_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/simtime.h"
#include "obs/metrics.h"

namespace ecocharge {

/// \brief Hit/miss counters for one cache instance (a plain value; see
/// AtomicCacheStats for the concurrent accumulator behind it).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expirations = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

/// \brief Lock-free hit/miss/expiration accumulator of one cache.
///
/// Every lookup of every serving worker bumps one of these, so each count
/// is an obs::Counter, sharded per thread: a worker bumps its own 64-byte
/// cell, and counting a lookup never writes a cache line another worker
/// writes. Snapshot() sums the cells — individual counters are exact; the
/// triple is only approximately simultaneous under concurrency, which is
/// all hit-rate reporting needs.
class AtomicCacheStats {
 public:
  AtomicCacheStats()
      : hits_(obs::DefaultShards()),
        misses_(obs::DefaultShards()),
        expirations_(obs::DefaultShards()) {}

  void AddHit() { hits_.Add(); }
  void AddMiss() { misses_.Add(); }
  void AddExpiration() { expirations_.Add(); }

  CacheStats Snapshot() const {
    CacheStats s;
    s.hits = hits_.Value();
    s.misses = misses_.Value();
    s.expirations = expirations_.Value();
    return s;
  }

 private:
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter expirations_;
};

/// \brief TTL cache over simulation time — the building block of the
/// EcoCharge Information Server's "Dynamic Caching" of API responses.
///
/// Entries expire `ttl_seconds` after insertion (the paper's caching
/// hypothesis: L, A, D responses naturally invalidate after a time point t).
///
/// Expiry boundary (pinned, uniform across every path): an entry inserted
/// at time t is fresh for any lookup with `now <= t + ttl` — the exact
/// deadline instant is a HIT — and expired strictly after. Get's freshness
/// check, Put's capacity sweep, and SweepExpired all use the same strict
/// `age > ttl` comparison, so which shard a key hashes to can never change
/// whether a boundary lookup hits (ttl_cache_test locks this in).
///
/// A simple size cap evicts by sweeping expired entries first, then
/// clearing; the workloads here are small enough that LRU bookkeeping would
/// be overhead without benefit.
///
/// Thread safety: the key space is split across `num_shards` shards (by
/// key hash), each guarded by its own mutex, so concurrent Get/Put traffic
/// from the serving workers only contends when two requests land on the
/// same shard. Freshness is checked under the shard lock — a Get can never
/// return an entry that was stale-beyond-TTL at its `now`, no matter how
/// Put/SweepExpired calls interleave. Counters are per-thread cells
/// (AtomicCacheStats), and each shard owns its cache line, so neighbouring
/// shard mutexes never share one. The
/// single-shard default keeps the single-threaded figure pipeline exactly
/// as before (sharding changes lock granularity, never answers).
template <typename Key, typename Value>
class TtlCache {
 public:
  explicit TtlCache(double ttl_seconds, size_t max_entries = 1 << 16,
                    size_t num_shards = 1)
      : ttl_seconds_(ttl_seconds),
        shards_(RoundUpPow2(num_shards)),
        shard_mask_(shards_.size() - 1),
        max_entries_per_shard_(
            std::max<size_t>(1, max_entries / shards_.size())) {}

  /// Returns the cached value if present and fresh at `now` (fresh means
  /// `now - inserted_at <= ttl`; the exact deadline is a hit).
  std::optional<Value> Get(const Key& key, SimTime now) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      stats_.AddMiss();
      if (misses_mirror_) misses_mirror_->Add();
      return std::nullopt;
    }
    if (now - it->second.inserted_at > ttl_seconds_) {
      stats_.AddExpiration();
      stats_.AddMiss();
      if (expirations_mirror_) expirations_mirror_->Add();
      if (misses_mirror_) misses_mirror_->Add();
      shard.map.erase(it);
      return std::nullopt;
    }
    stats_.AddHit();
    if (hits_mirror_) hits_mirror_->Add();
    return it->second.value;
  }

  /// Stale-tolerant lookup for the resilience layer's stale-while-
  /// revalidate rung: returns the entry even past its TTL (never erasing
  /// it), with `*fresh` reporting whether it was within TTL at `now`.
  /// Counter accounting matches Get exactly — fresh → hit; stale →
  /// expiration + miss; absent → miss — so a fault-free decorated path
  /// (which only takes the fresh branch) leaves stats() bit-identical to
  /// the undecorated one.
  std::optional<Value> GetAllowStale(const Key& key, SimTime now,
                                     bool* fresh) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      *fresh = false;
      stats_.AddMiss();
      if (misses_mirror_) misses_mirror_->Add();
      return std::nullopt;
    }
    *fresh = now - it->second.inserted_at <= ttl_seconds_;
    if (*fresh) {
      stats_.AddHit();
      if (hits_mirror_) hits_mirror_->Add();
    } else {
      stats_.AddExpiration();
      stats_.AddMiss();
      if (expirations_mirror_) expirations_mirror_->Add();
      if (misses_mirror_) misses_mirror_->Add();
    }
    return it->second.value;
  }

  /// Inserts or refreshes an entry stamped at `now`.
  void Put(const Key& key, const Value& value, SimTime now) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.size() >= max_entries_per_shard_) {
      SweepShardLocked(shard, now);
      if (shard.map.size() >= max_entries_per_shard_) shard.map.clear();
    }
    shard.map[key] = Entry{value, now};
  }

  /// Drops entries older than the TTL relative to `now`.
  void SweepExpired(SimTime now) {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      SweepShardLocked(shard, now);
    }
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  double ttl_seconds() const { return ttl_seconds_; }
  size_t num_shards() const { return shards_.size(); }

  /// Counter snapshot (by value; safe to call concurrently with traffic).
  CacheStats stats() const { return stats_.Snapshot(); }

  /// Mirrors every hit/miss/expiry onto registry-owned counters (in
  /// addition to the internal stats() accounting) so a statsz exporter
  /// sees live cache rates. Null pointers detach. Wire before serving
  /// traffic starts; the counters are not owned and must outlive the
  /// cache's use of them.
  void AttachCounters(obs::Counter* hits, obs::Counter* misses,
                      obs::Counter* expirations) {
    hits_mirror_ = hits;
    misses_mirror_ = misses;
    expirations_mirror_ = expirations;
  }

 private:
  struct Entry {
    Value value;
    SimTime inserted_at;
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry> map;
  };

  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return std::max<size_t>(1, p);
  }

  Shard& ShardFor(const Key& key) {
    // Re-mix std::hash (identity for integers) so sequential keys spread.
    uint64_t h = static_cast<uint64_t>(std::hash<Key>{}(key));
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return shards_[h & shard_mask_];
  }

  void SweepShardLocked(Shard& shard, SimTime now) {
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (now - it->second.inserted_at > ttl_seconds_) {
        it = shard.map.erase(it);
      } else {
        ++it;
      }
    }
  }

  double ttl_seconds_;
  std::vector<Shard> shards_;
  size_t shard_mask_;
  size_t max_entries_per_shard_;
  AtomicCacheStats stats_;
  obs::Counter* hits_mirror_ = nullptr;
  obs::Counter* misses_mirror_ = nullptr;
  obs::Counter* expirations_mirror_ = nullptr;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_EIS_TTL_CACHE_H_
