// The shared serving state the OfferingServer borrows through its
// `epochs` and `corridor` hooks: the RCU world-version ring and the
// cross-user corridor cache.

#include "server/corridor_cache.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/offering_service.h"
#include "obs/metrics.h"
#include "server/world_epochs.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using testing_util::TablesBitIdentical;
using testing_util::TinyEnvironment;
using testing_util::TinyWorkload;

// ---------------------------------------------------------------------------
// WorldEpochs

TEST(WorldEpochsTest, PublishAdvancesRevisionsWithoutTouchingReaders) {
  WorldEpochs epochs(2);
  EXPECT_EQ(epochs.current_epoch(), 1u);
  {
    WorldEpochs::ReaderPin pin = epochs.Pin(0);
    uint64_t pinned = pin.snapshot().epoch;
    // Publishes land in other ring slots; the pinned snapshot's contents
    // must not move under the reader.
    epochs.Publish(10.0, [](WorldSnapshot* s) { ++s->revisions.weather; });
    epochs.Publish(20.0, [](WorldSnapshot* s) { ++s->revisions.traffic; });
    EXPECT_EQ(pin.snapshot().epoch, pinned);
    EXPECT_EQ(pin.snapshot().revisions.weather, 0u);
    EXPECT_EQ(epochs.current_epoch(), pinned + 2);
  }
  // Fresh pin sees the accumulated revisions (each publish copies the
  // previous snapshot forward).
  WorldEpochs::ReaderPin pin = epochs.Pin(1);
  EXPECT_EQ(pin.snapshot().revisions.weather, 1u);
  EXPECT_EQ(pin.snapshot().revisions.traffic, 1u);
  EXPECT_EQ(pin.snapshot().revisions.availability, 0u);
}

// Hammer the Dekker pin/publish protocol: each publish bumps exactly one
// revision, so every snapshot a reader ever pins must satisfy
// weather + availability + traffic == epoch - 1. A torn read (reader
// observing a slot mid-overwrite) would break the invariant.
TEST(WorldEpochsTest, ConcurrentPinsNeverObserveTornSnapshots) {
  constexpr size_t kReaders = 4;
  constexpr int kPublishes = 2000;
  WorldEpochs epochs(kReaders);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        WorldEpochs::ReaderPin pin = epochs.Pin(r);
        const WorldSnapshot& s = pin.snapshot();
        uint64_t sum = s.revisions.weather + s.revisions.availability +
                       s.revisions.traffic;
        if (sum != s.epoch - 1) violations.fetch_add(1);
        if (s.epoch > epochs.current_epoch()) violations.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < kPublishes; ++i) {
    epochs.Publish(static_cast<SimTime>(i), [i](WorldSnapshot* s) {
      switch (i % 3) {
        case 0: ++s->revisions.weather; break;
        case 1: ++s->revisions.availability; break;
        default: ++s->revisions.traffic; break;
      }
    });
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(epochs.current_epoch(), 1u + kPublishes);
}
// ---------------------------------------------------------------------------
// CorridorCache

class CorridorCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = TinyEnvironment();
    ASSERT_NE(env_, nullptr);
    states_ = TinyWorkload(*env_, 6);
    ASSERT_GE(states_.size(), 2u);
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
};

// Two vehicles on the same corridor in the same ETA bucket share a key;
// trip identity must not leak into it, while position, k, bucket, and
// world revisions all must.
TEST_F(CorridorCacheTest, KeyCanonicalization) {
  CorridorCacheOptions options;
  options.eta_bucket_s = 300.0;
  CorridorCache cache(env_->dataset.network.get(), options);
  WorldRevisions revs;

  VehicleState a = states_[0];
  VehicleState b = a;
  b.trip_id = a.trip_id + 17;            // different vehicle
  b.segment_index = a.segment_index + 3;
  b.time = a.time + 120.0;               // same 5-minute bucket offset
  a.time = std::floor(a.time / 300.0) * 300.0 + 10.0;
  b.time = std::floor(a.time / 300.0) * 300.0 + 250.0;
  EXPECT_EQ(cache.KeyFor(a, 3, revs), cache.KeyFor(b, 3, revs));

  VehicleState later = a;
  later.time = a.time + 600.0;  // two buckets on
  EXPECT_NE(cache.KeyFor(a, 3, revs), cache.KeyFor(later, 3, revs));
  EXPECT_NE(cache.KeyFor(a, 3, revs), cache.KeyFor(a, 5, revs));

  WorldRevisions bumped = revs;
  ++bumped.weather;  // refresh publish re-keys the corridor
  EXPECT_NE(cache.KeyFor(a, 3, revs), cache.KeyFor(a, 3, bumped));

  // The canonical anchor zeroes trip identity and floors the bucket, so
  // both vehicles regenerate identical bytes on a miss.
  VehicleState ca = cache.CanonicalState(a);
  VehicleState cb = cache.CanonicalState(b);
  EXPECT_EQ(ca.trip_id, 0u);
  EXPECT_EQ(ca.segment_index, 0u);
  EXPECT_EQ(ca.time, cb.time);
  EXPECT_EQ(ca.position.x, cb.position.x);
  EXPECT_EQ(ca.position.y, cb.position.y);
}

TEST_F(CorridorCacheTest, HitReturnsBitIdenticalTableAndTtlExpires) {
  CorridorCacheOptions options;
  options.ttl_s = 100.0;
  CorridorCache cache(env_->dataset.network.get(), options);
  WorldRevisions revs;

  OfferingService service(env_->estimator.get(), env_->charger_index.get(),
                          ScoreWeights::AWE(), EcoChargeOptions{});
  const VehicleState& state = states_[0];
  uint64_t key = cache.KeyFor(state, 3, revs);
  OfferingTable table;
  EXPECT_FALSE(cache.GetInto(key, state.time, &table));
  service.RankFresh(cache.CanonicalState(state), 3, &table);
  cache.Put(key, table, state.time);
  EXPECT_EQ(cache.inserts(), 1u);

  OfferingTable hit;
  ASSERT_TRUE(cache.GetInto(key, state.time + 1.0, &hit));
  EXPECT_TRUE(TablesBitIdentical(hit, table));

  // Pinned expiry boundary (matches TtlCache): age > ttl or time moving
  // backwards is a miss.
  EXPECT_FALSE(cache.GetInto(key, state.time + 200.0, &hit));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.expirations, 1u);
}

/// Serves `first`, then `second`, through a fresh corridor cache the way
/// the server's corridor path does — a miss ranks the canonical anchor
/// and inserts it, a hit copies the entry out — and returns the tables
/// the two vehicles received, in serving order.
std::pair<OfferingTable, OfferingTable> ServeInOrder(
    const Environment& env, OfferingService& service,
    const VehicleState& first, const VehicleState& second) {
  CorridorCache cache(env.dataset.network.get(), CorridorCacheOptions{});
  WorldRevisions revs;
  OfferingTable received[2];
  const VehicleState* order[2] = {&first, &second};
  for (int i = 0; i < 2; ++i) {
    const VehicleState& state = *order[i];
    const uint64_t key = cache.KeyFor(state, 3, revs);
    if (!cache.GetInto(key, state.time, &received[i])) {
      service.RankFresh(cache.CanonicalState(state), 3, &received[i]);
      cache.Put(key, received[i], state.time);
    }
  }
  EXPECT_EQ(cache.inserts(), 1u) << "key-mates must share one entry";
  return {received[0], received[1]};
}

// Regression: the key names a state's return places by node (or, without
// one, by 100 m grid cell), so the canonical anchor must not keep the
// exact return points — otherwise whichever key-mate missed first decided
// the table every bucket-mate received.
TEST_F(CorridorCacheTest, KeyMatesWithDifferentReturnPointsShareOneTable) {
  // Unrefined tables keep the estimated derouting interval, which prices
  // the Euclidean way back to the exact return points.
  EcoChargeOptions unrefined;
  unrefined.refine_exact_derouting = false;
  OfferingService service(env_->estimator.get(), env_->charger_index.get(),
                          ScoreWeights::AWE(), unrefined);
  CorridorCache keys(env_->dataset.network.get(), CorridorCacheOptions{});
  WorldRevisions revs;

  // Same return nodes, different exact return points.
  VehicleState a = states_[0];
  ASSERT_NE(a.return_node_a, kInvalidNode);
  ASSERT_NE(a.return_node_b, kInvalidNode);
  VehicleState b = a;
  b.return_point_a.x += 37.0;
  b.return_point_b.y -= 23.0;

  // No return nodes: the two states share each return point's grid cell.
  auto cell_point = [](const Point& p, double dx, double dy) {
    return Point{std::floor(p.x / 100.0) * 100.0 + dx,
                 std::floor(p.y / 100.0) * 100.0 + dy};
  };
  VehicleState c = a;
  c.return_node_a = kInvalidNode;
  c.return_node_b = kInvalidNode;
  c.return_point_a = cell_point(a.return_point_a, 10.0, 20.0);
  c.return_point_b = cell_point(a.return_point_b, 30.0, 5.0);
  VehicleState d = c;
  d.return_point_a = cell_point(a.return_point_a, 85.0, 60.0);
  d.return_point_b = cell_point(a.return_point_b, 70.0, 95.0);

  const std::pair<const VehicleState*, const VehicleState*> pairs[] = {
      {&a, &b}, {&c, &d}};
  for (const auto& [x, y] : pairs) {
    ASSERT_EQ(keys.KeyFor(*x, 3, revs), keys.KeyFor(*y, 3, revs));
    // The exact return points do reach the ranking, so only the anchor
    // can make the key-mates agree.
    OfferingTable raw_x, raw_y;
    service.RankFresh(*x, 3, &raw_x);
    service.RankFresh(*y, 3, &raw_y);
    EXPECT_FALSE(TablesBitIdentical(raw_x, raw_y));

    const auto [x_first, y_second] = ServeInOrder(*env_, service, *x, *y);
    const auto [y_first, x_second] = ServeInOrder(*env_, service, *y, *x);
    EXPECT_TRUE(TablesBitIdentical(x_first, y_second));
    EXPECT_TRUE(TablesBitIdentical(y_first, x_second));
    EXPECT_TRUE(TablesBitIdentical(x_first, y_first));
  }
}

// Per-thread stats cells lose no lookup: every GetInto counts exactly one
// hit or miss, and the registry mirrors agree with stats().
TEST_F(CorridorCacheTest, StatsStayExactUnderConcurrency) {
  CorridorCacheOptions options;
  options.ttl_s = 40.0;
  options.num_shards = 4;
  CorridorCache cache(env_->dataset.network.get(), options);
  obs::MetricsRegistry registry;
  cache.AttachMetrics(&registry);
  OfferingTable table;
  table.entries.resize(2);

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 2000;
  constexpr uint64_t kKeys = 20;
  std::atomic<long> tick{0};
  std::atomic<uint64_t> lookups{0};
  // Rounds of three ops on one key: a Put, a fresh lookup, and a lookup
  // far past the TTL that expires what it finds. Rounds race on a shared
  // key range; a thread that runs alone still hits and expires.
  auto worker = [&](int tid) {
    OfferingTable out;
    uint64_t issued = 0;
    for (int i = 0; i < kOpsPerThread; ++i) {
      const double now = static_cast<double>(tick.fetch_add(1));
      const uint64_t key = static_cast<uint64_t>(i / 3 * 7 + tid) % kKeys;
      if (i % 3 == 0) {
        cache.Put(key, table, now);
      } else {
        cache.GetInto(key, i % 3 == 1 ? now : now + 3.0 * options.ttl_s,
                      &out);
        ++issued;
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
  EXPECT_EQ(registry.FindCounter("fleet.corridor.hits")->Value(), stats.hits);
  EXPECT_EQ(registry.FindCounter("fleet.corridor.misses")->Value(),
            stats.misses);
}

}  // namespace
}  // namespace ecocharge
