#include "server/offering_server.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ch/ch_customize.h"
#include "core/offering_service.h"
#include "core/protocol.h"
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

}  // namespace
}  // namespace ecocharge
