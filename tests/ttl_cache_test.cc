#include "eis/ttl_cache.h"

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ecocharge {
namespace {

TEST(TtlCacheTest, MissThenHit) {
  TtlCache<int, std::string> cache(60.0);
  EXPECT_FALSE(cache.Get(1, 0.0).has_value());
  cache.Put(1, "a", 0.0);
  auto hit = cache.Get(1, 30.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "a");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TtlCacheTest, ExpiresAfterTtl) {
  TtlCache<int, int> cache(60.0);
  cache.Put(1, 42, 0.0);
  EXPECT_TRUE(cache.Get(1, 60.0).has_value());   // exactly at TTL: fresh
  EXPECT_FALSE(cache.Get(1, 60.1).has_value());  // past TTL: gone
  EXPECT_EQ(cache.stats().expirations, 1u);
  // The expired entry was erased.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TtlCacheTest, ExactDeadlineIsHitOnEveryShard) {
  // The pinned expiry boundary: `now == inserted_at + ttl` is a hit,
  // uniformly — which shard a key hashes to must never change whether a
  // boundary lookup hits. 64 keys over 8 shards cover every shard.
  constexpr double kTtl = 60.0;
  TtlCache<int, int> cache(kTtl, 1 << 10, /*num_shards=*/8);
  for (int key = 0; key < 64; ++key) cache.Put(key, key, 0.0);
  for (int key = 0; key < 64; ++key) {
    auto hit = cache.Get(key, kTtl);  // exactly at the deadline
    ASSERT_TRUE(hit.has_value()) << "key " << key << " expired at deadline";
    EXPECT_EQ(*hit, key);
  }
  EXPECT_EQ(cache.stats().hits, 64u);
  EXPECT_EQ(cache.stats().expirations, 0u);
  // One tick past the deadline, every key is gone.
  for (int key = 0; key < 64; ++key) {
    EXPECT_FALSE(cache.Get(key, std::nextafter(kTtl, 1e9)).has_value());
  }
  EXPECT_EQ(cache.stats().expirations, 64u);
}

TEST(TtlCacheTest, SweepAtExactDeadlineRemovesNothing) {
  // SweepExpired uses the same strict `age > ttl` comparison as Get: a
  // sweep at the deadline instant must leave the still-fresh entries.
  constexpr double kTtl = 60.0;
  TtlCache<int, int> cache(kTtl, 1 << 10, /*num_shards=*/4);
  for (int key = 0; key < 32; ++key) cache.Put(key, key, 0.0);
  cache.SweepExpired(kTtl);
  EXPECT_EQ(cache.size(), 32u);
  cache.SweepExpired(std::nextafter(kTtl, 1e9));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TtlCacheTest, CapacitySweepAtExactDeadlineKeepsFreshEntries) {
  // Put's over-capacity sweep is the third path with an age comparison:
  // at the deadline instant it must not treat resident entries as
  // expired — the insert falls back to clearing the full shard instead.
  constexpr double kTtl = 60.0;
  TtlCache<int, int> cache(kTtl, /*max_entries=*/4, /*num_shards=*/1);
  for (int key = 0; key < 4; ++key) cache.Put(key, key, 0.0);
  // At exactly the deadline nothing is sweepable, so inserting clears.
  cache.Put(100, 100, kTtl);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Get(100, kTtl).has_value());
}

TEST(TtlCacheTest, AttachedCountersMirrorStats) {
  obs::MetricsRegistry registry(1);
  obs::Counter* hits = registry.GetCounter("hits");
  obs::Counter* misses = registry.GetCounter("misses");
  obs::Counter* expirations = registry.GetCounter("expirations");
  TtlCache<int, int> cache(60.0);
  cache.AttachCounters(hits, misses, expirations);
  cache.Get(1, 0.0);        // miss
  cache.Put(1, 7, 0.0);
  cache.Get(1, 30.0);       // hit
  cache.Get(1, 100.0);      // expiration (+ miss)
  CacheStats stats = cache.stats();
  EXPECT_EQ(hits->Value(), stats.hits);
  EXPECT_EQ(misses->Value(), stats.misses);
  EXPECT_EQ(expirations->Value(), stats.expirations);
  EXPECT_EQ(hits->Value(), 1u);
  EXPECT_EQ(misses->Value(), 2u);
  EXPECT_EQ(expirations->Value(), 1u);
  // Detach: internal stats keep counting, mirrors freeze.
  cache.AttachCounters(nullptr, nullptr, nullptr);
  cache.Get(2, 0.0);
  EXPECT_EQ(misses->Value(), 2u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(TtlCacheTest, PutRefreshesTimestamp) {
  TtlCache<int, int> cache(60.0);
  cache.Put(1, 42, 0.0);
  cache.Put(1, 43, 50.0);
  auto hit = cache.Get(1, 100.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 43);
}

TEST(TtlCacheTest, NegativeAgeIsFresh) {
  // Simulation time can restart (new repetition); entries from the
  // "future" stay valid since values are pure functions of the key.
  TtlCache<int, int> cache(10.0);
  cache.Put(1, 7, 1000.0);
  EXPECT_TRUE(cache.Get(1, 0.0).has_value());
}

TEST(TtlCacheTest, SweepRemovesOnlyExpired) {
  TtlCache<int, int> cache(60.0);
  cache.Put(1, 1, 0.0);
  cache.Put(2, 2, 100.0);
  cache.SweepExpired(100.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Get(2, 100.0).has_value());
}

TEST(TtlCacheTest, SizeCapTriggersEviction) {
  TtlCache<int, int> cache(60.0, /*max_entries=*/4);
  for (int i = 0; i < 10; ++i) cache.Put(i, i, 0.0);
  EXPECT_LE(cache.size(), 4u);
}

TEST(TtlCacheTest, ClearEmptiesCache) {
  TtlCache<int, int> cache(60.0);
  cache.Put(1, 1, 0.0);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(1, 0.0).has_value());
}

TEST(TtlCacheTest, HitRateComputation) {
  CacheStats stats;
  EXPECT_EQ(stats.HitRate(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.75);
}

TEST(TtlCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  TtlCache<int, int> cache(60.0, 1 << 10, /*num_shards=*/5);
  EXPECT_EQ(cache.num_shards(), 8u);
  TtlCache<int, int> one(60.0, 1 << 10, 0);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(TtlCacheTest, ShardedCacheBehavesLikeUnsharded) {
  TtlCache<int, int> cache(60.0, 1 << 10, /*num_shards=*/8);
  for (int i = 0; i < 100; ++i) cache.Put(i, i * 2, 0.0);
  EXPECT_EQ(cache.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto hit = cache.Get(i, 30.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, i * 2);
  }
  cache.SweepExpired(100.0);
  EXPECT_EQ(cache.size(), 0u);
}

// The fleet runtime sizes shard counts to contention (EIS caches, the
// corridor cache, the client store all take one), so the invariance must
// hold for *any* interleaving of operations, not just bulk put-then-get:
// a long deterministic op sequence — puts, gets, stale gets, sweeps, and
// time running near expiry boundaries — must produce identical answers
// and identical hit/miss/expiration accounting at every shard count.
TEST(TtlCacheTest, RandomizedOpSequenceInvariantAcrossShardCounts) {
  constexpr int kOps = 5000;
  auto run = [&](size_t num_shards) {
    // Capacity high enough that the per-shard split never evicts: the
    // invariance claim is about sharding, not about the capacity sweep.
    TtlCache<int, int> cache(10.0, 1 << 16, num_shards);
    uint64_t trace = 0;  // order-sensitive digest of every observation
    uint64_t rng = 0x9E3779B97F4A7C15ULL;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    double now = 0.0;
    for (int i = 0; i < kOps; ++i) {
      uint64_t r = next();
      int key = static_cast<int>(r % 64);
      // Drift time in sub-TTL steps, frequently landing exactly on an
      // entry's expiry deadline (the pinned-boundary case).
      now += static_cast<double>((r >> 8) % 21) * 0.5;
      switch ((r >> 16) % 5) {
        case 0:
          cache.Put(key, key * 1000 + i, now);
          break;
        case 1:
        case 2: {
          auto hit = cache.Get(key, now);
          trace = trace * 1099511628211ULL +
                  (hit ? static_cast<uint64_t>(*hit) + 1 : 0);
          break;
        }
        case 3: {
          bool fresh = false;
          auto hit = cache.GetAllowStale(key, now, &fresh);
          trace = trace * 1099511628211ULL +
                  (hit ? static_cast<uint64_t>(*hit) + 1 : 0) * 2 +
                  (fresh ? 1 : 0);
          break;
        }
        default:
          cache.SweepExpired(now);
          break;
      }
    }
    CacheStats stats = cache.stats();
    trace = trace * 31 + stats.hits;
    trace = trace * 31 + stats.misses;
    trace = trace * 31 + stats.expirations;
    trace = trace * 31 + cache.size();
    return trace;
  };

  uint64_t reference = run(1);
  for (size_t shards : {2u, 4u, 16u, 64u}) {
    EXPECT_EQ(run(shards), reference) << "num_shards=" << shards;
  }
}

TEST(AtomicCacheStatsTest, SnapshotReflectsCounts) {
  AtomicCacheStats stats;
  stats.AddHit();
  stats.AddHit();
  stats.AddMiss();
  stats.AddExpiration();
  CacheStats snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.hits, 2u);
  EXPECT_EQ(snapshot.misses, 1u);
  EXPECT_EQ(snapshot.expirations, 1u);
  EXPECT_DOUBLE_EQ(snapshot.HitRate(), 2.0 / 3.0);
}

// --- Concurrency: the sharded cache under racing Get/Put/expiry. -------
//
// Time is a shared atomic tick counter injected into every call — fully
// deterministic ordering constraints, no sleeps: a reader that sampled
// `now` can never observe a value older than now - ttl, no matter how
// Put/Get/SweepExpired interleave.

TEST(TtlCacheConcurrencyTest, NeverReturnsValueStaleBeyondTtl) {
  constexpr double kTtl = 64.0;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeys = 16;
  TtlCache<int, double> cache(kTtl, 1 << 10, /*num_shards=*/4);
  std::atomic<long> tick{0};
  std::atomic<int> stale{0};

  auto worker = [&](int tid) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      double now = static_cast<double>(tick.fetch_add(1));
      int key = (i * 7 + tid * 3) % kKeys;
      if ((i + tid) % 3 == 0) {
        // Value records its own insertion time, making staleness
        // self-evident to any later reader.
        cache.Put(key, now, now);
      } else {
        std::optional<double> hit = cache.Get(key, now);
        // `now - *hit` can be negative (a racing Put with a later
        // timestamp; fresh by definition) but never beyond the TTL.
        if (hit.has_value() && now - *hit > kTtl) stale.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(stale.load(), 0);
  // Relaxed atomic counters still sum exactly: every Get was either a hit
  // or a miss.
  CacheStats stats = cache.stats();
  uint64_t gets = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      if ((i + t) % 3 != 0) ++gets;
    }
  }
  EXPECT_EQ(stats.hits + stats.misses, gets);
}

TEST(TtlCacheConcurrencyTest, ConcurrentSweepNeverUnexpiresEntries) {
  constexpr double kTtl = 32.0;
  TtlCache<int, double> cache(kTtl, 1 << 10, /*num_shards=*/2);
  std::atomic<long> tick{0};
  std::atomic<int> stale{0};
  std::atomic<bool> done{false};

  std::thread sweeper([&] {
    while (!done.load(std::memory_order_acquire)) {
      cache.SweepExpired(static_cast<double>(tick.load()));
    }
  });
  std::thread mutator([&] {
    for (int i = 0; i < 20000; ++i) {
      double now = static_cast<double>(tick.fetch_add(1));
      int key = i % 8;
      if (i % 2 == 0) {
        cache.Put(key, now, now);
      } else {
        std::optional<double> hit = cache.Get(key, now);
        if (hit.has_value() && now - *hit > kTtl) stale.fetch_add(1);
      }
    }
    done.store(true, std::memory_order_release);
  });
  mutator.join();
  sweeper.join();
  EXPECT_EQ(stale.load(), 0);

  // Quiescent check: advance time past the TTL; everything must expire.
  double late = static_cast<double>(tick.load()) + kTtl + 1.0;
  cache.SweepExpired(late);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TtlCacheTest, GetAllowStaleServesExpiredEntriesWithoutErasing) {
  TtlCache<int, int> cache(10.0);
  cache.Put(1, 41, 0.0);

  bool fresh = false;
  // Within TTL: fresh, counted as a hit.
  EXPECT_EQ(cache.GetAllowStale(1, 10.0, &fresh), 41);
  EXPECT_TRUE(fresh);
  // Past TTL: still served, flagged stale, counted expiration + miss —
  // and NOT erased (unlike Get), so a later stale read still works.
  EXPECT_EQ(cache.GetAllowStale(1, 11.0, &fresh), 41);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.GetAllowStale(1, 1000.0, &fresh), 41);
  EXPECT_FALSE(fresh);
  // Absent key: miss, fresh=false.
  fresh = true;
  EXPECT_FALSE(cache.GetAllowStale(2, 0.0, &fresh).has_value());
  EXPECT_FALSE(fresh);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.expirations, 2u);
}

TEST(TtlCacheTest, GetAllowStaleCountersMatchGetOnFreshAndAbsent) {
  // On the paths the fault-free resilient server takes (fresh hit, absent
  // miss), GetAllowStale must account exactly like Get — that is what
  // keeps the decorated server's cache stats bit-identical at fault
  // probability zero.
  TtlCache<int, int> get_cache(10.0);
  TtlCache<int, int> stale_cache(10.0);
  get_cache.Put(1, 7, 0.0);
  stale_cache.Put(1, 7, 0.0);

  bool fresh = false;
  (void)get_cache.Get(1, 5.0);
  (void)stale_cache.GetAllowStale(1, 5.0, &fresh);
  (void)get_cache.Get(2, 5.0);
  (void)stale_cache.GetAllowStale(2, 5.0, &fresh);

  CacheStats a = get_cache.stats();
  CacheStats b = stale_cache.stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.expirations, b.expirations);
}

TEST(TtlCacheConcurrencyTest, StaleReadersSeeOnlyStaleOrRefreshedValue) {
  // The resilience fault-window scenario: one writer refreshes a key while
  // readers use GetAllowStale at a `now` past the original TTL. Every
  // reader must observe either the old value (stale serve) or the new one
  // (refreshed) — never a torn/default value, and never a miss. Driven by
  // an atomic tick clock; no sleeps; TSan-clean.
  constexpr double kTtl = 16.0;
  constexpr int kOldValue = 1111;
  constexpr int kNewValue = 2222;
  constexpr int kReaders = 4;
  TtlCache<int, int> cache(kTtl, 1 << 10, /*num_shards=*/4);
  cache.Put(0, kOldValue, 0.0);

  std::atomic<long> tick{static_cast<long>(kTtl) + 1};  // already stale
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<int> misses{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        double now = static_cast<double>(tick.load(std::memory_order_relaxed));
        bool fresh = false;
        std::optional<int> got = cache.GetAllowStale(0, now, &fresh);
        if (!got.has_value()) {
          misses.fetch_add(1);
        } else if (*got != kOldValue && *got != kNewValue) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 5000; ++i) {
      double now = static_cast<double>(
          tick.fetch_add(1, std::memory_order_relaxed));
      if (i % 50 == 25) cache.Put(0, kNewValue, now);  // sporadic refresh
    }
    done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(misses.load(), 0);  // GetAllowStale never erases the entry
}

TEST(TtlCacheConcurrencyTest, ConcurrentReadersAtExactDeadlineAllHit) {
  // The boundary under contention: every reader looks up at exactly the
  // deadline instant while others do the same; the strict comparison
  // means all of them hit and nothing is erased.
  constexpr double kTtl = 60.0;
  constexpr int kThreads = 4;
  constexpr int kKeys = 32;
  TtlCache<int, int> cache(kTtl, 1 << 10, /*num_shards=*/8);
  for (int key = 0; key < kKeys; ++key) cache.Put(key, key, 0.0);
  std::atomic<int> missed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 200; ++rep) {
        for (int key = 0; key < kKeys; ++key) {
          if (!cache.Get(key, kTtl).has_value()) missed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(missed.load(), 0);
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
}

TEST(TtlCacheConcurrencyTest, CountersStayExactUnderConcurrency) {
  // Per-thread counter cells must lose nothing: with more threads than
  // cells some threads share a cell, and every lookup still counts once.
  // Mixed traffic: Puts, fresh Gets, Gets far past the TTL (expirations),
  // and stale-tolerant lookups, all on a shared key range.
  constexpr double kTtl = 50.0;
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 3000;
  constexpr int kKeys = 24;
  TtlCache<int, int> cache(kTtl, 1 << 10, /*num_shards=*/4);
  obs::MetricsRegistry registry;
  obs::Counter* hits = registry.GetCounter("hits");
  obs::Counter* misses = registry.GetCounter("misses");
  obs::Counter* expirations = registry.GetCounter("expirations");
  cache.AttachCounters(hits, misses, expirations);
  std::atomic<long> tick{0};
  std::atomic<uint64_t> lookups{0};

  // Rounds of four ops on one key: a Put, a fresh Get, a stale-tolerant
  // lookup, and a Get far past the TTL that expires what it finds. The
  // threads' rounds race on a shared key range; a thread that happens to
  // run alone still produces hits and expirations.
  auto worker = [&](int tid) {
    uint64_t issued = 0;
    for (int i = 0; i < kOpsPerThread; ++i) {
      const double now = static_cast<double>(tick.fetch_add(1));
      const int key = (i / 4 * 5 + tid * 7) % kKeys;
      switch (i % 4) {
        case 0:
          cache.Put(key, i, now);
          break;
        case 1:
          cache.Get(key, now);
          ++issued;
          break;
        case 2: {
          bool fresh = false;
          cache.GetAllowStale(key, now, &fresh);
          ++issued;
          break;
        }
        default:
          cache.Get(key, now + 4.0 * kTtl);
          ++issued;
          break;
      }
    }
    lookups.fetch_add(issued);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.expirations, 0u);
  EXPECT_LE(stats.expirations, stats.misses);
  EXPECT_EQ(hits->Value(), stats.hits);
  EXPECT_EQ(misses->Value(), stats.misses);
  EXPECT_EQ(expirations->Value(), stats.expirations);
}

}  // namespace
}  // namespace ecocharge
