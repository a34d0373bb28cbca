#include "fleet/fleet_server.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/offering_service.h"
#include "core/protocol.h"
#include "server/client_store.h"
#include "server/corridor_cache.h"
#include "server/world_epochs.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using fleet::FleetServer;
using fleet::FleetServerOptions;
using fleet::FleetStats;
using fleet::GeoPartition;
using fleet::PartitionSpec;
using fleet::PartitionStrategy;
using fleet::RefreshKind;
using testing_util::RandomCloud;
using testing_util::TablesBitIdentical;
using testing_util::TinyEnvironment;
using testing_util::TinyWorkload;

// ---------------------------------------------------------------------------
// GeoPartition

TEST(GeoPartitionTest, RejectsInvalidSpecs) {
  std::vector<EvCharger> none;
  PartitionSpec spec;
  spec.num_shards = 0;
  EXPECT_EQ(GeoPartition::Build(none, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.num_shards = 5000;
  EXPECT_EQ(GeoPartition::Build(none, spec).status().code(),
            StatusCode::kInvalidArgument);
}

// The partition is a pure function of (chargers, spec): two builds from
// the same inputs must route every point identically, and every point —
// including points far outside the charger bounding box — must map to
// exactly one valid shard (totality is what makes routing never fail).
TEST(GeoPartitionTest, DeterministicAndTotal) {
  auto env = TinyEnvironment();
  ASSERT_NE(env, nullptr);
  for (PartitionStrategy strategy :
       {PartitionStrategy::kGrid, PartitionStrategy::kBisection}) {
    for (size_t shards : {1u, 2u, 4u, 7u}) {
      PartitionSpec spec;
      spec.num_shards = shards;
      spec.strategy = strategy;
      auto a = GeoPartition::Build(env->chargers, spec);
      auto b = GeoPartition::Build(env->chargers, spec);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      for (const Point& p : RandomCloud(500, 30000.0, 30000.0, 11)) {
        uint32_t sa = a.value().ShardFor(p);
        EXPECT_EQ(sa, b.value().ShardFor(p));
        EXPECT_LT(sa, shards);
        // Way outside the region: still routed (clamped to a boundary
        // shard), never out of range.
        Point far{p.x * 100.0 - 500000.0, p.y * 100.0 - 500000.0};
        EXPECT_LT(a.value().ShardFor(far), shards);
      }
    }
  }
}

// Median bisection balances charger ownership: with shards <= chargers no
// shard may be starved beyond the rounding slack of the proportional
// split, and the ownership vector must agree with ShardFor.
TEST(GeoPartitionTest, BisectionBalancesChargerLoad) {
  auto env = TinyEnvironment();
  ASSERT_NE(env, nullptr);
  PartitionSpec spec;
  spec.num_shards = 4;
  spec.strategy = PartitionStrategy::kBisection;
  auto partition = GeoPartition::Build(env->chargers, spec);
  ASSERT_TRUE(partition.ok());
  const GeoPartition& p = partition.value();
  size_t total = 0;
  size_t expected = env->chargers.size() / spec.num_shards;
  for (uint32_t s = 0; s < spec.num_shards; ++s) {
    size_t count = p.chargers_in(s);
    total += count;
    EXPECT_GE(count, expected / 2);
    EXPECT_LE(count, expected * 2);
  }
  EXPECT_EQ(total, env->chargers.size());
  ASSERT_EQ(p.charger_shards().size(), env->chargers.size());
  for (size_t i = 0; i < env->chargers.size(); ++i) {
    EXPECT_EQ(p.charger_shards()[i], p.ShardFor(env->chargers[i].position));
  }
}

// More shards than chargers: some shards own zero sites but still own
// territory; routing stays total.
TEST(GeoPartitionTest, ZeroChargerShardStillRoutable) {
  auto env = TinyEnvironment(3);
  ASSERT_NE(env, nullptr);
  ASSERT_EQ(env->chargers.size(), 3u);
  PartitionSpec spec;
  spec.num_shards = 5;
  spec.strategy = PartitionStrategy::kBisection;
  auto partition = GeoPartition::Build(env->chargers, spec);
  ASSERT_TRUE(partition.ok());
  const GeoPartition& p = partition.value();
  size_t empty = 0;
  for (uint32_t s = 0; s < spec.num_shards; ++s) {
    if (p.chargers_in(s) == 0) ++empty;
  }
  EXPECT_GE(empty, 2u);
  for (const Point& point : RandomCloud(200, 25000.0, 25000.0, 3)) {
    EXPECT_LT(p.ShardFor(point), spec.num_shards);
  }
}

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
    EXPECT_EQ(epochs.MinPinnedEpoch(0, 2), pinned);
  }
  EXPECT_EQ(epochs.MinPinnedEpoch(0, 2), 0u);  // everyone unpinned
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
// ClientStore

TEST(ClientStoreTest, TicketsServeInFifoOrderAcrossThreads) {
  ClientStore store(4);
  bool handoff = false;
  uint64_t t0 = store.Enqueue(7, 0, 0.0, &handoff);
  EXPECT_FALSE(handoff);
  uint64_t t1 = store.Enqueue(7, 1, 1.0, &handoff);
  EXPECT_TRUE(handoff);  // shard 0 -> 1
  uint64_t t2 = store.Enqueue(7, 1, 2.0, &handoff);
  EXPECT_FALSE(handoff);
  ASSERT_EQ(t1, t0 + 1);
  ASSERT_EQ(t2, t1 + 1);

  // A later ticket blocks until every predecessor checked in or was
  // abandoned — even when the predecessors resolve out of band.
  std::atomic<int> order{0};
  std::thread late([&] {
    DynamicCacheState lease;
    store.CheckOut(7, t2, &lease);
    order.store(2);
    store.CheckIn(7, t2, &lease, 2.0);
  });
  DynamicCacheState lease;
  store.CheckOut(7, t0, &lease);
  lease.hits = 99;  // state mutated under lease travels to the successor
  EXPECT_EQ(order.load(), 0);
  store.CheckIn(7, t0, &lease, 0.0);
  store.Abandon(7, t1);  // shed mid-sequence: successors must not wait
  late.join();
  EXPECT_EQ(order.load(), 2);

  ClientStoreStats stats = store.Stats();
  EXPECT_EQ(stats.handoffs, 1u);
  EXPECT_EQ(stats.checkouts, 2u);
  EXPECT_EQ(stats.abandoned, 1u);

  // The mutated lease state round-tripped through the store.
  DynamicCacheState verify;
  bool unused = false;
  uint64_t t3 = store.Enqueue(7, 1, 3.0, &unused);
  store.CheckOut(7, t3, &verify);
  EXPECT_EQ(verify.hits, 99u);
  store.CheckIn(7, t3, &verify, 3.0);
}

TEST(ClientStoreTest, EvictIdleSkipsClientsWithOutstandingTickets) {
  ClientStore store(2);
  bool handoff = false;
  store.Enqueue(1, 0, 0.0, &handoff);          // never served: outstanding
  uint64_t t = store.Enqueue(2, 0, 0.0, &handoff);
  DynamicCacheState lease;
  store.CheckOut(2, t, &lease);
  store.CheckIn(2, t, &lease, 0.0);            // quiescent
  EXPECT_EQ(store.active_clients(), 2u);
  store.EvictIdle(10000.0, 1.0);
  EXPECT_EQ(store.active_clients(), 1u);       // client 1 survives
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

// ---------------------------------------------------------------------------
// FleetServer

class FleetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = TinyEnvironment();
    ASSERT_NE(env_, nullptr);
    states_ = TinyWorkload(*env_, 8);
    ASSERT_GE(states_.size(), 4u);
  }

  std::unique_ptr<FleetServer> MakeFleet(size_t shards, int threads,
                                         bool corridor,
                                         size_t queue_depth = 4096) {
    FleetServerOptions options;
    options.partition.num_shards = shards;
    options.threads_per_shard = threads;
    options.corridor_cache = corridor;
    options.server.queue_depth = queue_depth;
    auto result = FleetServer::Create(env_.get(), ScoreWeights::AWE(),
                                      EcoChargeOptions{}, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? std::move(result).MoveValueUnsafe() : nullptr;
  }

  // Runs the same multi-client workload and collects every table into a
  // fixed (client, sequence) slot — each written exactly once, so
  // threaded runs are comparable position by position.
  std::vector<OfferingTable> RunWorkload(FleetServer& fleet,
                                         uint64_t clients) {
    const size_t per_client = states_.size();
    std::vector<OfferingTable> tables(clients * per_client);
    for (size_t seq = 0; seq < per_client; ++seq) {
      for (uint64_t c = 0; c < clients; ++c) {
        OfferingTable* slot = &tables[c * per_client + seq];
        // Trips wander across the map, so consecutive requests of one
        // client land on different shards — constant handoff traffic.
        Status st = fleet.Submit(
            c, states_[(seq + c) % per_client], 3,
            [slot](const OfferingTable& t) { *slot = t; });
        EXPECT_TRUE(st.ok()) << st;
      }
    }
    fleet.Drain();
    return tables;
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
};

// The tentpole guarantee: sharded serving is bit-identical to
// single-shard serving — shard count and worker threads influence where a
// request runs, never what it computes. Handoffs (clients whose
// consecutive requests land on different shards) are exercised on every
// multi-shard run.
TEST_F(FleetServerTest, ShardingIsBitIdenticalToSingleShard) {
  constexpr uint64_t kClients = 6;
  auto reference_fleet = MakeFleet(1, 0, /*corridor=*/false);
  ASSERT_NE(reference_fleet, nullptr);
  std::vector<OfferingTable> reference =
      RunWorkload(*reference_fleet, kClients);

  for (size_t shards : {2u, 4u}) {
    for (int threads : {0, 2}) {
      auto fleet = MakeFleet(shards, threads, /*corridor=*/false);
      ASSERT_NE(fleet, nullptr);
      std::vector<OfferingTable> tables = RunWorkload(*fleet, kClients);
      ASSERT_EQ(tables.size(), reference.size());
      for (size_t i = 0; i < tables.size(); ++i) {
        EXPECT_TRUE(TablesBitIdentical(tables[i], reference[i]))
            << "shards=" << shards << " threads=" << threads << " slot=" << i;
      }
      FleetStats stats = fleet->Stats();
      EXPECT_EQ(stats.totals.served, reference.size());
      EXPECT_GT(stats.clients.handoffs, 0u)
          << "workload never crossed a shard boundary; weak test";
    }
  }
}

// Same discipline with the corridor cache on: the canonical corridor
// table is a pure function of (key, revisions), so shard count, thread
// count, and hit-vs-miss order cannot change a single bit.
TEST_F(FleetServerTest, CorridorModeBitIdenticalAcrossShardCounts) {
  constexpr uint64_t kClients = 6;
  auto reference_fleet = MakeFleet(1, 0, /*corridor=*/true);
  ASSERT_NE(reference_fleet, nullptr);
  std::vector<OfferingTable> reference =
      RunWorkload(*reference_fleet, kClients);
  {
    // kClients vehicles share corridors, so the single-shard run must
    // already serve most tables from the shared cache.
    FleetStats stats = reference_fleet->Stats();
    EXPECT_GT(stats.corridor.hits, 0u);
    EXPECT_GT(stats.corridor_inserts, 0u);
  }

  for (size_t shards : {2u, 4u}) {
    for (int threads : {0, 2}) {
      auto fleet = MakeFleet(shards, threads, /*corridor=*/true);
      ASSERT_NE(fleet, nullptr);
      std::vector<OfferingTable> tables = RunWorkload(*fleet, kClients);
      ASSERT_EQ(tables.size(), reference.size());
      for (size_t i = 0; i < tables.size(); ++i) {
        EXPECT_TRUE(TablesBitIdentical(tables[i], reference[i]))
            << "shards=" << shards << " threads=" << threads << " slot=" << i;
      }
    }
  }
}

// A trip oscillating across a partition boundary every request is the
// handoff worst case: every submission is a handoff, and the Dynamic
// Cache state must chase the vehicle back and forth without losing parity
// with the single-shard serve.
TEST_F(FleetServerTest, OscillatingBoundaryTripKeepsParity) {
  auto probe = MakeFleet(2, 0, /*corridor=*/false);
  ASSERT_NE(probe, nullptr);
  // Find two workload states on opposite shards.
  const VehicleState* left = nullptr;
  const VehicleState* right = nullptr;
  for (const VehicleState& s : states_) {
    uint32_t shard = probe->partition().ShardFor(s.position);
    if (shard == 0 && left == nullptr) left = &s;
    if (shard == 1 && right == nullptr) right = &s;
  }
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);

  constexpr int kRounds = 10;
  auto run = [&](size_t shards, int threads) {
    auto fleet = MakeFleet(shards, threads, /*corridor=*/false);
    std::vector<OfferingTable> tables(2 * kRounds);
    SimTime base = std::max(left->time, right->time);
    for (int i = 0; i < 2 * kRounds; ++i) {
      VehicleState state = (i % 2 == 0) ? *left : *right;
      state.time = base + 30.0 * i;  // monotone clock while oscillating
      OfferingTable* slot = &tables[i];
      EXPECT_TRUE(fleet
                      ->Submit(42, state, 3,
                               [slot](const OfferingTable& t) { *slot = t; })
                      .ok());
    }
    fleet->Drain();
    FleetStats stats = fleet->Stats();
    if (shards == 2) {
      // Every request after the first crosses the boundary.
      EXPECT_EQ(stats.clients.handoffs,
                static_cast<uint64_t>(2 * kRounds - 1));
    }
    return tables;
  };

  std::vector<OfferingTable> reference = run(1, 0);
  for (int threads : {0, 2}) {
    std::vector<OfferingTable> tables = run(2, threads);
    for (size_t i = 0; i < tables.size(); ++i) {
      EXPECT_TRUE(TablesBitIdentical(tables[i], reference[i]))
          << "threads=" << threads << " slot=" << i;
    }
  }
}

// Refresh publishes interleaved with handoff traffic: readers pin
// snapshots while the writer retires ring slots; everything submitted is
// served, the epoch advances, and (with threads) no reader ever blocks a
// publish into a deadlock. Run under TSan by scripts/check.sh fleet.
TEST_F(FleetServerTest, HandoffDuringSnapshotSwap) {
  auto fleet = MakeFleet(2, 2, /*corridor=*/false);
  ASSERT_NE(fleet, nullptr);
  constexpr int kRequests = 200;
  std::atomic<int> served{0};
  std::thread publisher([&] {
    for (int i = 0; i < 50; ++i) {
      fleet->PublishRefresh(static_cast<RefreshKind>(i % 3),
                            static_cast<SimTime>(i));
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < kRequests; ++i) {
    Status st = fleet->Submit(i % 4, states_[i % states_.size()], 3,
                              [&](const OfferingTable&) { ++served; });
    ASSERT_TRUE(st.ok()) << st;
  }
  publisher.join();
  fleet->Drain();
  EXPECT_EQ(served.load(), kRequests);
  FleetStats stats = fleet->Stats();
  EXPECT_EQ(stats.epoch, 51u);
  EXPECT_GT(stats.clients.handoffs, 0u);

  // Post-publish requests serve under the newest revisions and stay
  // consistent with a fresh fleet at the same epoch.
  EXPECT_EQ(fleet->epochs().current_epoch(), 51u);
}

// Shutdown with handoff tickets still in flight: accepted requests must
// drain (shutdown closes queues but serves what was admitted), waits on
// cross-shard predecessors must resolve, and post-shutdown submissions
// fail cleanly.
TEST_F(FleetServerTest, ShutdownDrainsInFlightHandoffs) {
  auto fleet = MakeFleet(2, 2, /*corridor=*/false);
  ASSERT_NE(fleet, nullptr);
  std::atomic<int> served{0};
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    Status st = fleet->Submit(i % 8, states_[i % states_.size()], 3,
                              [&](const OfferingTable&) { ++served; });
    if (st.ok()) ++accepted;
  }
  fleet->Shutdown();  // no Drain: shutdown itself must finish the backlog
  EXPECT_EQ(served.load(), accepted);
  Status st = fleet->Submit(0, states_[0], 3, [](const OfferingTable&) {});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// A shard that owns zero chargers still serves full-recall tables:
// shards split responsibility, never visibility.
TEST_F(FleetServerTest, ZeroChargerShardServesFullRecall) {
  auto small_env = TinyEnvironment(3);
  ASSERT_NE(small_env, nullptr);
  auto states = TinyWorkload(*small_env, 8);
  ASSERT_GE(states.size(), 2u);

  FleetServerOptions options;
  options.partition.num_shards = 5;
  auto result = FleetServer::Create(small_env.get(), ScoreWeights::AWE(),
                                    EcoChargeOptions{}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  auto fleet = std::move(result).MoveValueUnsafe();

  // Force the interesting case: relocate each probe into a shard that
  // owns zero chargers (routing is by position only, so moving the
  // position is all it takes to land there).
  uint32_t empty_shard = 0;
  bool found_empty = false;
  for (uint32_t s = 0; s < options.partition.num_shards; ++s) {
    if (fleet->partition().chargers_in(s) == 0) {
      empty_shard = s;
      found_empty = true;
      break;
    }
  }
  ASSERT_TRUE(found_empty);
  // Empty ranges bisect at the degenerate split 0.0, so starved shards
  // can own all-negative territory — sample a cloud centered on the
  // origin, not just the charger bounding box, and keep the empty-shard
  // point closest to the chargers so the probe stays inside the
  // derouting radius (an empty table would make the parity check
  // vacuous).
  Point centroid{0.0, 0.0};
  for (const EvCharger& c : small_env->chargers) {
    centroid.x += c.position.x / static_cast<double>(small_env->chargers.size());
    centroid.y += c.position.y / static_cast<double>(small_env->chargers.size());
  }
  Point inside{};
  bool found_point = false;
  double best = std::numeric_limits<double>::infinity();
  for (const Point& p : RandomCloud(20000, 120000.0, 120000.0, 9)) {
    Point candidate{p.x - 60000.0, p.y - 60000.0};
    if (fleet->partition().ShardFor(candidate) != empty_shard) continue;
    double dx = candidate.x - centroid.x;
    double dy = candidate.y - centroid.y;
    double d2 = dx * dx + dy * dy;
    if (d2 < best) {
      best = d2;
      inside = candidate;
      found_point = true;
    }
  }
  ASSERT_TRUE(found_point);

  OfferingService reference(small_env->estimator.get(),
                            small_env->charger_index.get(),
                            ScoreWeights::AWE(), EcoChargeOptions{});
  for (VehicleState state : states) {
    state.position = inside;
    ASSERT_EQ(fleet->partition().ShardFor(state.position), empty_shard);
    OfferingTable table;
    ASSERT_TRUE(fleet
                    ->Submit(1, state, 3,
                             [&](const OfferingTable& t) { table = t; })
                    .ok());
    OfferingTable expected;
    reference.RankInto(1, state, 3, &expected);
    EXPECT_TRUE(TablesBitIdentical(table, expected));
    EXPECT_EQ(table.entries.size(), 3u);  // all chargers visible
  }
}

// Wire-protocol routing: decode at the router, serve on the shard, reply
// with encoded bytes; malformed frames are counted and reported through
// the callback without crossing into a shard.
TEST_F(FleetServerTest, WireRoutingAndMalformedFrames) {
  auto fleet = MakeFleet(2, 0, /*corridor=*/false);
  ASSERT_NE(fleet, nullptr);

  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  OfferingTable direct;
  ASSERT_TRUE(fleet
                  ->Submit(9, states_[0], 3,
                           [&](const OfferingTable& t) { direct = t; })
                  .ok());

  auto wire_fleet = MakeFleet(2, 0, /*corridor=*/false);
  std::string reply;
  ASSERT_TRUE(wire_fleet
                  ->SubmitWire(9, EncodeOfferingRequest(request),
                               [&](const Result<std::string>& r) {
                                 ASSERT_TRUE(r.ok());
                                 reply = r.value();
                               })
                  .ok());
  wire_fleet->Drain();
  auto decoded = DecodeOfferingTable(reply);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(TablesBitIdentical(decoded.value(), direct));

  bool got_error = false;
  EXPECT_TRUE(wire_fleet
                  ->SubmitWire(9, "not a frame",
                               [&](const Result<std::string>& r) {
                                 got_error = !r.ok();
                               })
                  .ok());
  EXPECT_TRUE(got_error);
}

// The statsz surfaces: one fleet section plus one section per shard, in
// both text and JSON.
TEST_F(FleetServerTest, StatszReportsPerShardSections) {
  auto fleet = MakeFleet(3, 0, /*corridor=*/true);
  ASSERT_NE(fleet, nullptr);
  RunWorkload(*fleet, 4);
  std::string text = fleet->StatszAllText();
  EXPECT_NE(text.find("--- fleet ---"), std::string::npos);
  EXPECT_NE(text.find("--- shard 0 ---"), std::string::npos);
  EXPECT_NE(text.find("--- shard 2 ---"), std::string::npos);
  EXPECT_NE(text.find("fleet.corridor.hits"), std::string::npos);
  std::string json = fleet->StatszAllJson();
  EXPECT_EQ(json.find("{\"fleet\":"), 0u);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
}

}  // namespace
}  // namespace ecocharge
