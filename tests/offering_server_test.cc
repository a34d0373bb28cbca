#include "server/offering_server.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ch/ch_customize.h"
#include "core/offering_service.h"
#include "core/protocol.h"
#include "server/corridor_cache.h"
#include "server/world_epochs.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

using testing_util::TablesBitIdentical;
using testing_util::TinyEnvironment;
using testing_util::TinyWorkload;

class OfferingServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = TinyEnvironment();
    ASSERT_NE(env_, nullptr);
    states_ = TinyWorkload(*env_, 6);
    ASSERT_GE(states_.size(), 4u);
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
};

// The server's per-worker stacks (own estimator, shared sharded EIS) must
// be invisible in the output: inline mode reproduces a plain
// OfferingService bit for bit, including Dynamic Caching behavior across
// a client's request sequence.
TEST_F(OfferingServerTest, InlineModeMatchesOfferingService) {
  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions eco_options;
  OfferingServer server(env_.get(), weights, eco_options, {});
  OfferingService reference(env_->estimator.get(), env_->charger_index.get(),
                            weights, eco_options);

  for (uint64_t client = 0; client < 3; ++client) {
    for (const VehicleState& state : states_) {
      OfferingTable from_server;
      ASSERT_TRUE(server
                      .Submit(client, state, 3,
                              [&](const OfferingTable& t) { from_server = t; })
                      .ok());
      OfferingTable expected;
      reference.RankInto(client, state, 3, &expected);
      EXPECT_TRUE(TablesBitIdentical(from_server, expected));
    }
  }
  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, 3 * states_.size());
  EXPECT_EQ(stats.served, 3 * states_.size());
  EXPECT_EQ(stats.rejected, 0u);
}

// The concurrency determinism guarantee: N worker threads produce exactly
// the same table for every (client, request-sequence) position as the
// synchronous mode — hash routing pins a client to one worker (per-client
// FIFO), and everything shared between workers is pure.
TEST_F(OfferingServerTest, FourThreadsBitIdenticalToInline) {
  constexpr uint64_t kClients = 8;
  const size_t per_client = states_.size();
  ScoreWeights weights = ScoreWeights::AWE();
  EcoChargeOptions eco_options;

  auto run = [&](int threads) {
    OfferingServerOptions options;
    options.threads = threads;
    options.queue_depth = kClients * per_client;  // nothing shed
    OfferingServer server(env_.get(), weights, eco_options, options);
    // One slot per (client, sequence); each is written exactly once, by
    // the worker serving that client.
    std::vector<OfferingTable> tables(kClients * per_client);
    for (size_t seq = 0; seq < per_client; ++seq) {
      for (uint64_t client = 0; client < kClients; ++client) {
        OfferingTable* slot = &tables[client * per_client + seq];
        EXPECT_TRUE(server
                        .Submit(client, states_[seq], 3,
                                [slot](const OfferingTable& t) { *slot = t; })
                        .ok());
      }
    }
    server.Drain();
    return tables;
  };

  std::vector<OfferingTable> inline_tables = run(0);
  std::vector<OfferingTable> threaded_tables = run(4);
  ASSERT_EQ(inline_tables.size(), threaded_tables.size());
  for (size_t i = 0; i < inline_tables.size(); ++i) {
    EXPECT_TRUE(TablesBitIdentical(inline_tables[i], threaded_tables[i]))
        << "client " << i / per_client << " seq " << i % per_client;
  }
}

// A full queue must shed load with kUnavailable, never block or drop an
// accepted request: one slow worker (per-request stall), tiny queue,
// rapid-fire submissions.
TEST_F(OfferingServerTest, FullQueueShedsWithUnavailable) {
  OfferingServerOptions options;
  options.threads = 1;
  options.queue_depth = 2;
  options.simulated_io_ms = 25.0;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);

  constexpr uint64_t kRequests = 10;
  std::atomic<uint64_t> callbacks{0};
  uint64_t ok = 0, unavailable = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    Status st = server.Submit(/*client_id=*/7, states_[0], 3,
                              [&](const OfferingTable&) { ++callbacks; });
    if (st.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(st.code(), StatusCode::kUnavailable) << st;
      ++unavailable;
    }
  }
  server.Drain();
  EXPECT_GE(unavailable, 1u);  // depth 2 cannot absorb 10 instant submits
  EXPECT_EQ(ok + unavailable, kRequests);

  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, ok);
  EXPECT_EQ(stats.rejected, unavailable);
  EXPECT_EQ(stats.served, ok);  // every accepted request was served
  EXPECT_EQ(callbacks.load(), ok);
}

// The inline wire path: one request decodes, ranks, and encodes into a
// reply that decodes back into a k-row Offering Table.
TEST_F(OfferingServerTest, WireRoundTripServesTable) {
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        {});
  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  Result<std::string> reply = Status::Internal("no reply");
  ASSERT_TRUE(server
                  .SubmitWire(7, EncodeOfferingRequest(request),
                              [&](const Result<std::string>& r) { reply = r; })
                  .ok());
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto table = DecodeOfferingTable(reply.value());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().size(), 3u);
  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.malformed, 0u);
}

// A wire request answers what an in-process ranking of the same state
// answers, for a different client with its own ranker.
TEST_F(OfferingServerTest, WireMatchesInProcessRanking) {
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        {});
  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  Result<std::string> reply = Status::Internal("no reply");
  ASSERT_TRUE(server
                  .SubmitWire(1, EncodeOfferingRequest(request),
                              [&](const Result<std::string>& r) { reply = r; })
                  .ok());
  ASSERT_TRUE(reply.ok()) << reply.status();
  OfferingTable via_wire = DecodeOfferingTable(reply.value()).MoveValueUnsafe();
  OfferingTable direct;
  ASSERT_TRUE(server
                  .Submit(2, states_[0], 3,
                          [&](const OfferingTable& t) { direct = t; })
                  .ok());
  EXPECT_EQ(via_wire.ChargerIds(), direct.ChargerIds());
}

TEST_F(OfferingServerTest, WirePathServesAndCountsMalformed) {
  OfferingServerOptions options;
  options.threads = 2;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);

  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  std::atomic<int> good{0};
  std::atomic<int> bad{0};
  ASSERT_TRUE(server
                  .SubmitWire(1, EncodeOfferingRequest(request),
                              [&](const Result<std::string>& reply) {
                                if (reply.ok() &&
                                    DecodeOfferingTable(reply.value()).ok()) {
                                  ++good;
                                }
                              })
                  .ok());
  ASSERT_TRUE(server
                  .SubmitWire(2, "definitely not a request\n",
                              [&](const Result<std::string>& reply) {
                                if (!reply.ok()) ++bad;
                              })
                  .ok());
  server.Drain();
  EXPECT_EQ(good.load(), 1);
  EXPECT_EQ(bad.load(), 1);
  OfferingServerStats stats = server.Stats();
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.malformed, 1u);
}

TEST_F(OfferingServerTest, SubmitAfterShutdownIsRejected) {
  OfferingServerOptions options;
  options.threads = 2;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  server.Shutdown();
  Status st = server.Submit(1, states_[0], 3, [](const OfferingTable&) {});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// Shutdown with queued work: everything accepted before Shutdown is still
// served (Close drains, it does not drop).
TEST_F(OfferingServerTest, ShutdownServesAcceptedRequests) {
  OfferingServerOptions options;
  options.threads = 1;
  options.queue_depth = 64;
  options.simulated_io_ms = 2.0;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  std::atomic<uint64_t> callbacks{0};
  uint64_t ok = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    if (server
            .Submit(i, states_[i % states_.size()], 3,
                    [&](const OfferingTable&) { ++callbacks; })
            .ok()) {
      ++ok;
    }
  }
  server.Shutdown();
  EXPECT_EQ(callbacks.load(), ok);
  EXPECT_EQ(server.Stats().served, ok);
}

// All workers account against one shared Information Server: after
// traffic, its counters reflect calls from every worker.
TEST_F(OfferingServerTest, WorkersShareOneInformationServer) {
  OfferingServerOptions options;
  options.threads = 4;
  options.eis_cache_shards = 8;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  for (uint64_t client = 0; client < 8; ++client) {
    ASSERT_TRUE(
        server.Submit(client, states_[0], 3, [](const OfferingTable&) {})
            .ok());
  }
  server.Drain();
  EisCallStats eis = server.information_server().Snapshot();
  EXPECT_GT(eis.weather_api_calls + eis.availability_api_calls +
                eis.traffic_api_calls,
            0u);
}

// Regression: the CH plane cache lives in the environment and outlives
// every server. A destroyed server must unhook the cache from its
// registry — else the next customization writes into freed counters
// (caught under scripts/check.sh address) — but must leave a newer
// server's registry attached.
TEST_F(OfferingServerTest, DestroyedServerDetachesChPlaneCache) {
  auto env = TinyEnvironment(60, 42, DeroutingBackend::kCh);
  ASSERT_NE(env, nullptr);
  ASSERT_NE(env->ch_cache, nullptr);
  OfferingServerOptions options;
  options.threads = 1;
  auto older = std::make_unique<OfferingServer>(
      env.get(), ScoreWeights::AWE(), EcoChargeOptions{}, options);
  auto newer = std::make_unique<OfferingServer>(
      env.get(), ScoreWeights::AWE(), EcoChargeOptions{}, options);
  const obs::Counter* misses =
      newer->metrics().FindCounter("ch.cache.misses");
  ASSERT_NE(misses, nullptr);

  older.reset();  // the cache points at newer's registry: keep it
  const uint64_t before = misses->Value();
  ChClassWeights first;
  first.w[0] = 1.7;
  first.w[1] = 2.3;
  first.w[2] = 3.1;
  ASSERT_NE(env->ch_cache->Get(first), nullptr);
  EXPECT_EQ(misses->Value(), before + 1);

  newer.reset();  // now the cache must let go of the freed registry
  ChClassWeights second = first;
  second.w[2] = 4.2;
  EXPECT_NE(env->ch_cache->Get(second), nullptr);
  EXPECT_EQ(env->ch_cache->builds(), 2u);
}


// The wire trust boundary: k == 0 or a node id outside the network is
// rejected with kInvalidArgument and counted as malformed — on the wire
// path (reply callback) and the table path (Submit's status) alike, with
// and without the corridor cache — instead of being served as a silently
// unreachable table. kInvalidNode ("snap to the nearest node") and a k
// beyond the fleet size stay valid.
TEST_F(OfferingServerTest, RejectsOutOfRangeRequestsAtTheBoundary) {
  const NodeId past_end =
      static_cast<NodeId>(env_->dataset.network->NumNodes());
  OfferingRequest valid;
  valid.state = states_[0];
  valid.k = 3;
  std::vector<OfferingRequest> invalid(4, valid);
  invalid[0].k = 0;
  invalid[1].state.node = past_end;
  invalid[2].state.return_node_a = past_end;
  invalid[3].state.return_node_b = past_end + 1000;
  std::vector<OfferingRequest> accepted(3, valid);
  accepted[0].state.node = kInvalidNode;
  accepted[1].state.return_node_a = kInvalidNode;
  accepted[1].state.return_node_b = kInvalidNode;
  accepted[2].k = env_->chargers.size() + 50;

  for (bool corridor_on : {false, true}) {
    for (int threads : {0, 2}) {
      SCOPED_TRACE(::testing::Message() << "corridor=" << corridor_on
                                        << " threads=" << threads);
      CorridorCache corridor(env_->dataset.network.get(),
                             CorridorCacheOptions{});
      OfferingServerOptions options;
      options.threads = threads;
      if (corridor_on) options.corridor = &corridor;
      OfferingServer server(env_.get(), ScoreWeights::AWE(),
                            EcoChargeOptions{}, options);

      std::atomic<int> rejected{0};
      std::atomic<int> served{0};
      auto on_reply = [&](const Result<std::string>& reply) {
        if (reply.ok()) {
          if (DecodeOfferingTable(reply.value()).ok()) ++served;
        } else if (reply.status().code() == StatusCode::kInvalidArgument) {
          ++rejected;
        }
      };
      for (const OfferingRequest& request : invalid) {
        ASSERT_TRUE(
            server.SubmitWire(1, EncodeOfferingRequest(request), on_reply)
                .ok());
      }
      for (const OfferingRequest& request : accepted) {
        ASSERT_TRUE(
            server.SubmitWire(1, EncodeOfferingRequest(request), on_reply)
                .ok());
      }
      server.Drain();
      EXPECT_EQ(rejected.load(), static_cast<int>(invalid.size()));
      EXPECT_EQ(served.load(), static_cast<int>(accepted.size()));

      int table_callbacks = 0;
      for (const OfferingRequest& request : invalid) {
        Status st = server.Submit(2, request.state, request.k,
                                  [&](const OfferingTable&) {
                                    ++table_callbacks;
                                  });
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
      }
      server.Drain();
      EXPECT_EQ(table_callbacks, 0);

      OfferingServerStats stats = server.Stats();
      EXPECT_EQ(stats.malformed, 2 * invalid.size());
      EXPECT_EQ(stats.served, invalid.size() + accepted.size());
    }
  }
}

/// Serves `clients` vehicles over the fixture workload (client c's
/// request seq rides state (seq + c) mod |states|, so vehicles share
/// corridors at different points of the trace) and collects every table
/// into a fixed (client, sequence) slot — each written exactly once, so
/// threaded runs compare against inline position by position.
std::vector<OfferingTable> ServeCorridorWorkload(
    Environment* env, const std::vector<VehicleState>& states, int threads,
    uint64_t clients, CorridorCache* corridor) {
  OfferingServerOptions options;
  options.threads = threads;
  options.queue_depth = 4096;
  options.corridor = corridor;
  OfferingServer server(env, ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  const size_t per_client = states.size();
  std::vector<OfferingTable> tables(clients * per_client);
  for (size_t seq = 0; seq < per_client; ++seq) {
    for (uint64_t c = 0; c < clients; ++c) {
      OfferingTable* slot = &tables[c * per_client + seq];
      Status st = server.Submit(c, states[(seq + c) % per_client], 3,
                                [slot](const OfferingTable& t) { *slot = t; });
      EXPECT_TRUE(st.ok()) << st;
    }
  }
  server.Drain();
  return tables;
}

// The corridor table is a pure function of (key, world revisions), so
// thread count and hit-vs-miss order cannot change a single served bit.
TEST_F(OfferingServerTest, CorridorModeBitIdenticalAcrossThreadCounts) {
  constexpr uint64_t kClients = 6;
  CorridorCache reference_cache(env_->dataset.network.get(),
                                CorridorCacheOptions{});
  std::vector<OfferingTable> reference = ServeCorridorWorkload(
      env_.get(), states_, 0, kClients, &reference_cache);
  // kClients vehicles share corridors, so the inline run must already
  // serve most tables from the shared cache.
  EXPECT_GT(reference_cache.stats().hits, 0u);
  EXPECT_GT(reference_cache.inserts(), 0u);

  for (int threads : {0, 2, 4}) {
    CorridorCache cache(env_->dataset.network.get(), CorridorCacheOptions{});
    std::vector<OfferingTable> tables =
        ServeCorridorWorkload(env_.get(), states_, threads, kClients, &cache);
    ASSERT_EQ(tables.size(), reference.size());
    for (size_t i = 0; i < tables.size(); ++i) {
      EXPECT_TRUE(TablesBitIdentical(tables[i], reference[i]))
          << "threads=" << threads << " slot=" << i;
    }
  }
}

// Refresh publishes racing the serving workers: readers pin snapshots
// while the writer retires ring slots; everything submitted is served,
// the epoch advances by one per publish, and no pinned reader ever
// deadlocks a publish. Run under TSan by scripts/check.sh fleet.
TEST_F(OfferingServerTest, EpochPublishesDuringServing) {
  constexpr int kThreads = 2;
  constexpr int kPublishes = 50;
  constexpr int kRequests = 200;
  WorldEpochs epochs(kThreads);
  OfferingServerOptions options;
  options.threads = kThreads;
  options.queue_depth = kRequests;
  options.epochs = &epochs;
  OfferingServer server(env_.get(), ScoreWeights::AWE(), EcoChargeOptions{},
                        options);
  std::atomic<int> served{0};
  std::thread publisher([&] {
    for (int i = 0; i < kPublishes; ++i) {
      epochs.Publish(static_cast<SimTime>(i), [i](WorldSnapshot* s) {
        uint64_t* revisions[] = {&s->revisions.weather,
                                 &s->revisions.availability,
                                 &s->revisions.traffic};
        ++*revisions[i % 3];
      });
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < kRequests; ++i) {
    Status st = server.Submit(i % 4, states_[i % states_.size()], 3,
                              [&](const OfferingTable&) { ++served; });
    ASSERT_TRUE(st.ok()) << st;
  }
  publisher.join();
  server.Drain();
  EXPECT_EQ(served.load(), kRequests);
  EXPECT_EQ(server.Stats().served, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(epochs.current_epoch(), 1u + kPublishes);
}

// Corridor mode over the wire: the worker decodes, serves the corridor
// table, and replies with bytes that decode to exactly the table-path
// result; a malformed frame is answered with its error, counted, and
// never reaches the corridor cache.
TEST_F(OfferingServerTest, CorridorWirePathAndMalformedFrames) {
  CorridorCache table_cache(env_->dataset.network.get(),
                            CorridorCacheOptions{});
  OfferingServerOptions options;
  options.corridor = &table_cache;
  OfferingServer table_server(env_.get(), ScoreWeights::AWE(),
                              EcoChargeOptions{}, options);
  OfferingTable direct;
  ASSERT_TRUE(table_server
                  .Submit(9, states_[0], 3,
                          [&](const OfferingTable& t) { direct = t; })
                  .ok());

  CorridorCache wire_cache(env_->dataset.network.get(),
                           CorridorCacheOptions{});
  options.corridor = &wire_cache;
  OfferingServer wire_server(env_.get(), ScoreWeights::AWE(),
                             EcoChargeOptions{}, options);
  OfferingRequest request;
  request.state = states_[0];
  request.k = 3;
  std::string reply;
  ASSERT_TRUE(wire_server
                  .SubmitWire(9, EncodeOfferingRequest(request),
                              [&](const Result<std::string>& r) {
                                ASSERT_TRUE(r.ok());
                                reply = r.value();
                              })
                  .ok());
  auto decoded = DecodeOfferingTable(reply);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(TablesBitIdentical(decoded.value(), direct));

  bool got_error = false;
  EXPECT_TRUE(wire_server
                  .SubmitWire(9, "not a frame",
                              [&](const Result<std::string>& r) {
                                got_error = !r.ok();
                              })
                  .ok());
  EXPECT_TRUE(got_error);
  EXPECT_EQ(wire_server.Stats().malformed, 1u);
  EXPECT_EQ(wire_cache.stats().hits + wire_cache.stats().misses, 1u);
}

}  // namespace
}  // namespace ecocharge
