// Fleet-scale serving bench and gate for the shared serving state of the
// one OfferingServer: the cross-user corridor cache and RCU world-epoch
// refreshes, measured as QPS + latency percentiles against worker count.
//
// Two asserting gates (exit 1 on violation):
//   1. Bit-parity: worker threads must not change a single served bit —
//      every (client, sequence) slot's table digest must match the
//      synchronous (threads = 0) run, with and without the corridor cache.
//   2. Corridor sharing: on a fleet trace (many vehicles over the same
//      trips), the corridor hit rate must be substantial — the cache is
//      the mechanism that makes the 1M-request row feasible at all.
//
// The thread sweep runs with a per-request simulated upstream stall, so
// its QPS column shows how far extra workers overlap I/O; every row names
// its worker count, and comparisons between rows are at that count.
//
// Full mode routes ~1M requests through the server (feasible because the
// corridor cache turns the steady state into hits); --quick shrinks every
// phase for CI. Writes BENCH_fleet.json.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_writer.h"
#include "core/protocol.h"
#include "obs/metrics.h"
#include "server/corridor_cache.h"
#include "server/offering_server.h"
#include "server/world_epochs.h"

using namespace ecocharge;
using bench::BenchConfig;

namespace {

struct RunResult {
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  OfferingServerStats stats;
  double corridor_hit_rate = 0.0;
  uint64_t corridor_inserts = 0;
  uint64_t epoch = 0;
};

/// Runs `num_requests` over `num_clients` walking vehicles on one server
/// with `threads` workers, publishing a world refresh (weather,
/// availability, traffic in turn) every `refresh_every` requests. When
/// `digests` is non-null it receives one per-(client, sequence) table
/// digest — each slot written exactly once, by whichever worker serves
/// that request — so threaded runs compare against the synchronous
/// reference slot by slot.
RunResult RunPoint(bench::PreparedWorld& world, int threads, bool corridor,
                   size_t num_requests, size_t num_clients, double io_ms,
                   uint64_t refresh_every, std::vector<uint64_t>* digests) {
  // The server borrows both, so they are declared first and outlive it.
  std::unique_ptr<CorridorCache> cache;
  WorldEpochs epochs(static_cast<size_t>(std::max(1, threads)));
  OfferingServerOptions options;
  options.threads = threads;
  options.queue_depth = num_requests;
  options.simulated_io_ms = io_ms;
  options.epochs = &epochs;
  if (corridor) {
    cache = std::make_unique<CorridorCache>(world.env->dataset.network.get(),
                                            CorridorCacheOptions{});
    options.corridor = cache.get();
  }
  OfferingServer server(world.env.get(), ScoreWeights::AWE(),
                        EcoChargeOptions{}, options);
  if (cache) cache->AttachMetrics(&server.metrics());
  if (digests) digests->assign(num_requests, 0);

  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < num_requests; ++i) {
    size_t state_index =
        (i % num_clients + i / num_clients) % world.states.size();
    if (refresh_every > 0 && i > 0 && i % refresh_every == 0) {
      epochs.Publish(world.states[state_index].time,
                     [kind = (i / refresh_every) % 3](WorldSnapshot* s) {
                       uint64_t* revisions[] = {&s->revisions.weather,
                                                &s->revisions.availability,
                                                &s->revisions.traffic};
                       ++*revisions[kind];
                     });
    }
    std::function<void(const OfferingTable&)> on_table;
    if (digests) {
      uint64_t* slot = &(*digests)[i];
      on_table = [slot](const OfferingTable& table) {
        *slot = std::hash<std::string>{}(EncodeOfferingTable(table));
      };
    } else {
      on_table = [](const OfferingTable&) {};
    }
    Status st = server.Submit(i % num_clients, world.states[state_index], 3,
                              std::move(on_table));
    if (!st.ok()) {
      std::cerr << "submit: " << st << "\n";
      std::exit(1);
    }
  }
  server.Drain();
  RunResult result;
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.stats = server.Stats();
  result.qps = result.elapsed_s > 0.0
                   ? static_cast<double>(result.stats.served) /
                         result.elapsed_s
                   : 0.0;
  if (cache) {
    CacheStats cs = cache->stats();
    uint64_t lookups = cs.hits + cs.misses;
    result.corridor_hit_rate =
        lookups > 0 ? static_cast<double>(cs.hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    result.corridor_inserts = cache->inserts();
  }
  result.epoch = epochs.current_epoch();
  const obs::Histogram* latency =
      server.metrics().FindHistogram("server.request_latency_ns");
  ECOCHARGE_CHECK(latency != nullptr);
  obs::HistogramSnapshot snap = latency->Snapshot();
  result.p50_ms = static_cast<double>(snap.ValueAtQuantile(0.50)) / 1e6;
  result.p95_ms = static_cast<double>(snap.ValueAtQuantile(0.95)) / 1e6;
  result.p99_ms = static_cast<double>(snap.ValueAtQuantile(0.99)) / 1e6;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Logger::set_threshold(LogLevel::kWarning);
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  bool quick = false;
  double io_ms = 4.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--io-ms") == 0 && i + 1 < argc) {
      io_ms = std::atof(argv[i + 1]);
    }
  }
  size_t parity_requests = quick ? 600 : 4000;
  size_t sweep_requests = quick ? 160 : 480;
  size_t bulk_requests = quick ? 20000 : 1000000;
  size_t num_clients = 48;
  constexpr int kGateThreads = 8;  // the worker count gate 2 is read at

  bench::PreparedWorld world = bench::Prepare(DatasetKind::kOldenburg, cfg);
  bench::BenchJsonWriter json;

  // --- Gate 1: bit-parity across thread counts. ---------------------------
  std::cout << "=== Gate 1: threaded serving is bit-identical ===\n";
  bool parity_ok = true;
  for (bool corridor : {false, true}) {
    std::vector<uint64_t> reference;
    RunPoint(world, 0, corridor, parity_requests, num_clients, 0.0,
             /*refresh_every=*/0, &reference);
    for (int threads : {2, 4}) {
      std::vector<uint64_t> digests;
      RunPoint(world, threads, corridor, parity_requests, num_clients, 0.0,
               /*refresh_every=*/0, &digests);
      bool same = digests == reference;
      parity_ok = parity_ok && same;
      std::cout << "  " << (corridor ? "corridor" : "dynamic ")
                << " threads=" << threads << ": "
                << (same ? "bit-identical" : "MISMATCH") << "\n";
    }
  }
  ECOCHARGE_CHECK(parity_ok);

  // --- Gate 2: corridor sharing; QPS/latency vs worker count. -------------
  std::cout << "\n=== Thread sweep (" << sweep_requests << " requests, "
            << io_ms << " ms simulated upstream stall) ===\n";
  TableWriter table({"Workers", "Corridor", "QPS", "p50 [ms]", "p95 [ms]",
                     "p99 [ms]", "Hit rate", "Epoch"});
  double corridor_hit_rate = 0.0;
  for (int threads : {2, 4, kGateThreads}) {
    for (bool corridor : {false, true}) {
      RunResult r = RunPoint(world, threads, corridor, sweep_requests,
                             num_clients, io_ms, /*refresh_every=*/64,
                             nullptr);
      if (corridor && threads == kGateThreads) {
        corridor_hit_rate = r.corridor_hit_rate;
      }
      ECOCHARGE_CHECK(
          table
              .AddRow({std::to_string(threads), corridor ? "yes" : "no",
                       TableWriter::Fmt(r.qps, 1),
                       TableWriter::Fmt(r.p50_ms, 2),
                       TableWriter::Fmt(r.p95_ms, 2),
                       TableWriter::Fmt(r.p99_ms, 2),
                       TableWriter::Fmt(r.corridor_hit_rate, 2),
                       std::to_string(r.epoch)})
              .ok());
      json.BeginRecord();
      json.Str("bench", "fleet");
      json.Str("phase", "thread_sweep");
      json.Str("dataset", "Oldenburg");
      json.Num("threads", threads);
      json.Num("corridor", corridor ? 1 : 0);
      json.Num("requests", static_cast<double>(sweep_requests));
      json.Num("clients", static_cast<double>(num_clients));
      json.Num("simulated_io_ms", io_ms);
      json.Num("elapsed_s", r.elapsed_s);
      json.Num("qps", r.qps);
      json.Num("p50_ms", r.p50_ms);
      json.Num("p95_ms", r.p95_ms);
      json.Num("p99_ms", r.p99_ms);
      json.Num("served", static_cast<double>(r.stats.served));
      json.Num("corridor_hit_rate", r.corridor_hit_rate);
      json.Num("corridor_inserts", static_cast<double>(r.corridor_inserts));
      json.Num("epoch", static_cast<double>(r.epoch));
    }
  }
  table.RenderText(std::cout);

  std::cout << "\ncorridor hit rate at " << kGateThreads << " workers: "
            << TableWriter::Fmt(corridor_hit_rate, 2) << " (floor 0.20)\n";
  ECOCHARGE_CHECK(corridor_hit_rate > 0.20);

  // --- Bulk row: the fleet-trace headline (~1M requests in full mode). ----
  std::cout << "\n=== Bulk corridor trace (" << bulk_requests
            << " requests, no stall) ===\n";
  RunResult bulk = RunPoint(world, kGateThreads, /*corridor=*/true,
                            bulk_requests, num_clients, 0.0,
                            /*refresh_every=*/8192, nullptr);
  std::cout << "  " << bulk.stats.served << " served in "
            << TableWriter::Fmt(bulk.elapsed_s, 2) << " s ("
            << TableWriter::Fmt(bulk.qps, 0) << " QPS), corridor hit rate "
            << TableWriter::Fmt(bulk.corridor_hit_rate, 3) << ", p99 "
            << TableWriter::Fmt(bulk.p99_ms, 3) << " ms, epoch "
            << bulk.epoch << "\n";
  ECOCHARGE_CHECK(bulk.stats.served == bulk_requests);
  ECOCHARGE_CHECK(bulk.corridor_hit_rate > 0.5);
  json.BeginRecord();
  json.Str("bench", "fleet");
  json.Str("phase", "bulk_corridor");
  json.Str("dataset", "Oldenburg");
  json.Num("threads", kGateThreads);
  json.Num("requests", static_cast<double>(bulk_requests));
  json.Num("elapsed_s", bulk.elapsed_s);
  json.Num("qps", bulk.qps);
  json.Num("p50_ms", bulk.p50_ms);
  json.Num("p99_ms", bulk.p99_ms);
  json.Num("corridor_hit_rate", bulk.corridor_hit_rate);
  json.Num("epoch", static_cast<double>(bulk.epoch));

  if (!json.WriteFile("BENCH_fleet.json")) {
    std::cerr << "failed to write BENCH_fleet.json\n";
    return 1;
  }
  std::cout << "\nall gates passed; wrote BENCH_fleet.json ("
            << json.num_records() << " records)\n";
  return 0;
}
