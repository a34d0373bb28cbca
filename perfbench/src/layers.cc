// The traced run: one open-loop phase with tracing off, then a single-thread
// replay of the identical trace through each layer's public calls. Spans
// are taken here, around those calls; the program itself is unchanged.

#include <algorithm>
#include <chrono>
#include <optional>

#include "ch/ch_index.h"
#include "core/cknn_ec.h"
#include "core/protocol.h"
#include "eis/information_server.h"
#include "eis/world_revisions.h"
#include "graph/io.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One worker's serving stack, built the way OfferingServer builds it.
struct Stack {
  std::unique_ptr<InformationServer> eis;
  std::unique_ptr<EcEstimator> estimator;
  std::unique_ptr<OfferingService> service;

  Stack(World& world, obs::MetricsRegistry* metrics) {
    Environment& env = *world.env;
    EisOptions eis_options;
    eis_options.cache_shards = OfferingServerOptions{}.eis_cache_shards;
    eis = std::make_unique<InformationServer>(
        env.energy.get(), env.availability.get(), env.congestion.get(),
        eis_options);
    estimator = std::make_unique<EcEstimator>(
        env.dataset.network, &env.chargers, env.energy.get(),
        env.availability.get(), env.congestion.get(),
        env.estimator->options(), eis.get());
    service = std::make_unique<OfferingService>(
        estimator.get(), env.charger_index.get(), ScoreWeights::AWE(),
        world.eco);
    service->ReserveBatchScratch(world.eco.refine_limit);
    service->ReserveScoreLanes(env.chargers.size());
    if (metrics) service->AttachMetrics(metrics);
  }
};

/// The CkNN-EC processor options EcoChargeRanker derives from `eco`.
CknnEcOptions ProcessorOptions(const EcoChargeOptions& eco) {
  CknnEcOptions c;
  c.radius_m = eco.radius_m;
  c.refine_limit = eco.refine_limit;
  c.refine_exact_derouting = eco.refine_exact_derouting;
  c.use_intersection = eco.use_intersection;
  c.batch_derouting = eco.batch_derouting;
  c.landmarks = eco.landmarks;
  c.landmark_refine_order = eco.landmark_refine_order;
  c.ch = eco.ch;
  c.use_simd = eco.use_simd;
  c.derouting_norm_m = 2.0 * eco.radius_m;
  return c;
}

/// A request the service replay ranked from scratch, in the exact state
/// and world version it was ranked under.
struct FreshRank {
  size_t request = 0;  ///< trace index; the oracle's reply holds its table
  VehicleState state;
  WorldRevisions revisions;
};

/// The encoded bytes of `entries` alone, so a ranking can be compared bit
/// for bit with the entries of a served table.
std::string EntryBytes(const std::vector<OfferingEntry>& entries) {
  OfferingTable table;
  table.entries = entries;
  return EncodeOfferingTable(table);
}

uint64_t Counter(const PhaseResult& phase, const std::string& name) {
  auto it = phase.counters.find(name);
  return it == phase.counters.end() ? 0 : it->second;
}

}  // namespace

std::vector<Metric> TracedRun(const WorkloadSpec& spec,
                              const std::string& data_dir, uint64_t seed,
                              double seconds, bool* correct,
                              size_t* attempted, size_t* failed) {
  std::vector<Metric> out;
  auto emit = [&out](const std::string& name, double value,
                     const std::string& unit) {
    out.push_back({name, value, unit});
  };

  // Offline preparation and set-up, each timed on its own.
  double contract_s = 0.0;
  double snapshot_load_ms = 0.0;
  if (spec.kind == WorkloadKind::kFresh) {
    contract_s = PrepareSnapshot(data_dir);
    Clock::time_point t0 = Clock::now();
    Result<LoadedSnapshot> snap = LoadSnapshotWithAux(SnapshotPath(data_dir));
    snapshot_load_ms = Us(t0, Clock::now()) / 1e3;
    if (!snap.ok()) *correct = false;
  }
  World world = MakeWorld(spec, data_dir);

  // Open loop with tracing off on one long-running server: a warm-up, a
  // lo-rate phase (the one the replay below explains), and a hi-rate phase
  // for its tail latency.
  const size_t n_warm = static_cast<size_t>(spec.lo_qps * 0.1 * seconds);
  const size_t n = static_cast<size_t>(spec.lo_qps * 0.4 * seconds);
  const size_t n_hi = static_cast<size_t>(spec.hi_qps * 0.2 * seconds);
  const size_t lo_begin = n_warm;
  const size_t lo_end = n_warm + n;
  Trace trace = MakeTrace(spec, world, seed, lo_end + n_hi);
  PhaseResult warm, phase, hi;
  {
    ServerBundle server = MakeServer(spec, world, ServerThreads());
    warm = RunPhase(server, trace, 0, lo_begin, spec.lo_qps, seed, 1);
    phase = RunPhase(server, trace, lo_begin, lo_end, spec.lo_qps, seed, 2);
    hi = RunPhase(server, trace, lo_end, lo_end + n_hi, spec.hi_qps, seed, 3);
  }
  World oracle_world = MakeWorld(spec, data_dir);
  InlineOracle oracle(spec, oracle_world, trace);
  oracle.ServeUntil(lo_end + n_hi);
  size_t mismatched = 0;
  for (const PhaseResult* p : {&warm, &phase, &hi}) {
    mismatched +=
        CountMismatches(spec, oracle_world, trace, *p, oracle.replies());
  }

  // Service replay: the identical trace through the layers' public calls,
  // one request at a time. The warm-up is replayed too, unmeasured, so the
  // lo phase meets the caches it met on the server. Replays run on worlds
  // of their own, so no cache the server warmed (the CH plane cache lives
  // in the environment) serves them.
  World replay_world = MakeWorld(spec, data_dir);
  obs::MetricsRegistry warm_metrics;
  obs::MetricsRegistry replay_metrics;
  Stack stack(replay_world, &warm_metrics);
  CorridorCache corridor(replay_world.env->dataset.network.get(),
                         CorridorCacheOptions{});
  const bool use_corridor = spec.kind == WorkloadKind::kCorridor;
  std::vector<double> service_us(n), decode_us, encode_us, adapt_us,
      fresh_us, get_us, miss_rank_us;
  double put_us = 0.0;
  double request_bytes = 0.0;
  double reply_bytes = 0.0;
  size_t replay_mismatched = 0;
  size_t next_refresh = 0;
  size_t window_left = 0;  // requests left in the current post-publish window
  size_t window_requests = 0;
  size_t window_misses = 0;
  constexpr size_t kPublishWindow = 64;
  std::vector<FreshRank> warm_ranks, fresh_ranks;
  OfferingTable table;
  for (size_t i = 0; i < lo_end; ++i) {
    const TraceRequest& request = trace.requests[i];
    const bool measured = i >= lo_begin;
    if (i == lo_begin) stack.service->AttachMetrics(&replay_metrics);
    while (next_refresh < trace.refreshes.size() &&
           trace.refreshes[next_refresh].before <= i) {
      ++next_refresh;
      window_left = kPublishWindow;
    }
    const WorldRevisions revisions = RevisionsAfter(trace, next_refresh);
    Clock::time_point t0 = Clock::now();
    std::optional<ScopedWorldRevisions> scope;
    if (use_corridor) scope.emplace(revisions);
    Result<OfferingRequest> decoded = DecodeOfferingRequest(request.wire);
    Clock::time_point t1 = Clock::now();
    if (!decoded.ok()) {
      ++replay_mismatched;
      continue;
    }
    const VehicleState& state = decoded->state;
    const size_t k = decoded->k;
    bool hit = false;           // corridor hit, or Dynamic-Cache adaptation
    double get = 0.0;           // corridor lookup
    double rank = 0.0;          // from-scratch rank (or adaptation)
    double put = 0.0;           // corridor insert
    std::optional<FreshRank> ranked;
    if (use_corridor) {
      uint64_t key = corridor.KeyFor(state, k, revisions);
      hit = corridor.GetInto(key, state.time, &table);
      Clock::time_point g = Clock::now();
      get = Us(t1, g);
      if (!hit) {
        VehicleState anchor = corridor.CanonicalState(state);
        stack.service->RankFresh(anchor, k, &table);
        Clock::time_point m = Clock::now();
        rank = Us(g, m);
        corridor.Put(key, table, state.time);
        put = Us(m, Clock::now());
        ranked = FreshRank{i, anchor, revisions};
      }
    } else {
      stack.service->RankInto(request.client_id, state, k, &table);
      rank = Us(t1, Clock::now());
      hit = table.adapted_from_cache;
      if (!hit) ranked = FreshRank{i, state, revisions};
    }
    Clock::time_point t2 = Clock::now();
    std::string reply = EncodeOfferingTable(table);
    Clock::time_point t3 = Clock::now();
    scope.reset();
    if (reply != oracle.replies()[i]) ++replay_mismatched;
    if (!measured) {
      if (ranked) warm_ranks.push_back(*ranked);
      continue;
    }
    if (ranked) fresh_ranks.push_back(*ranked);
    service_us[i - lo_begin] = Us(t0, t3);
    decode_us.push_back(Us(t0, t1));
    encode_us.push_back(Us(t2, t3));
    request_bytes += static_cast<double>(request.wire.size());
    reply_bytes += static_cast<double>(reply.size());
    if (use_corridor) {
      get_us.push_back(get);
      put_us += put;
      if (!hit) miss_rank_us.push_back(rank);
      if (window_left > 0) {
        --window_left;
        ++window_requests;
        if (!hit) ++window_misses;
      }
    } else {
      (hit ? adapt_us : fresh_us).push_back(rank);
    }
  }

  // Layer replay: every from-scratch rank again, through the CkNN-EC
  // phases, the spatial index and each derouting engine, on a cold stack
  // of its own; the warm-up's ranks run first, unmeasured. Each ranking
  // must reproduce the entries of the oracle's table for its request, so
  // the processor here cannot drift from the one the server runs.
  World layer_world = MakeWorld(spec, data_dir);
  Stack layer_stack(layer_world, nullptr);
  CknnEcProcessor processor(layer_stack.estimator.get(),
                            layer_world.env->charger_index.get(),
                            ProcessorOptions(layer_world.eco));
  // Each derouting engine gets a stack of its own that sees only the batch
  // calls, so a batch pays what it pays inside a request (the CH plane for
  // a new time is customized here, not reused from the rank above).
  World dijkstra_world =
      MakeWorld(spec, data_dir, spec.kind == WorkloadKind::kFresh);
  Stack dijkstra_stack(dijkstra_world, nullptr);
  EcEstimator& dijkstra = *dijkstra_stack.estimator;
  std::optional<World> ch_world;
  std::unique_ptr<Stack> ch_stack;
  if (spec.kind == WorkloadKind::kFresh) {
    ch_world.emplace(MakeWorld(spec, data_dir));
    ch_stack = std::make_unique<Stack>(*ch_world, nullptr);
  }
  EcEstimator* ch_engine = ch_stack ? ch_stack->estimator.get() : nullptr;
  const std::vector<EvCharger>& chargers = layer_world.env->chargers;
  QueryContext ctx;
  QueryContext range_ctx;
  DeroutingBatchScratch batch;
  std::vector<OfferingEntry> entries;
  std::vector<ChargerRef> refine_set;
  std::vector<double> range_us, filter_us, score_us, refine_us,
      dijkstra_us, ch_us;
  double scored_total = 0.0;
  double kept_total = 0.0;
  const size_t num_warm = warm_ranks.size();
  warm_ranks.insert(warm_ranks.end(), fresh_ranks.begin(), fresh_ranks.end());
  for (size_t r = 0; r < warm_ranks.size(); ++r) {
    const bool measured = r >= num_warm;
    ScopedWorldRevisions scope(warm_ranks[r].revisions);
    const VehicleState& s = warm_ranks[r].state;
    Clock::time_point a = Clock::now();
    layer_world.env->charger_index->RangeSearchInto(
        s.position, layer_world.eco.radius_m, &range_ctx.spatial,
        &range_ctx.neighbors);
    Clock::time_point b = Clock::now();
    const std::vector<ChargerId>& candidates =
        processor.FilterCandidates(s.position, &ctx);
    Clock::time_point c = Clock::now();
    const std::vector<ScoredCandidate>& scored = processor.ScoreCandidates(
        s, candidates, ScoreWeights::AWE(), &ctx);
    Clock::time_point d = Clock::now();
    processor.RefineAndRank(s, &scored, layer_world.k, ScoreWeights::AWE(),
                            layer_world.eco.refine_exact_derouting, &ctx,
                            &entries);
    Clock::time_point e = Clock::now();
    Result<OfferingTable> served =
        DecodeOfferingTable(oracle.replies()[warm_ranks[r].request]);
    if (!served.ok() || EntryBytes(entries) != EntryBytes(served->entries)) {
      ++replay_mismatched;
    }
    if (measured) {
      range_us.push_back(Us(a, b));
      filter_us.push_back(Us(b, c));
      score_us.push_back(Us(c, d));
      refine_us.push_back(Us(d, e));
      scored_total += static_cast<double>(scored.size());
      kept_total += static_cast<double>(entries.size());
    }

    refine_set.clear();
    for (size_t j = 0;
         j < ctx.selected.size() && j < layer_world.eco.refine_limit; ++j) {
      refine_set.push_back(&chargers[ctx.selected[j].charger_id]);
    }
    if (refine_set.empty()) continue;
    Clock::time_point f = Clock::now();
    dijkstra.ExactDeroutingBatch(s, refine_set, &batch);
    Clock::time_point g = Clock::now();
    if (measured) dijkstra_us.push_back(Us(f, g));
    if (ch_engine) {
      ch_engine->ExactDeroutingBatch(s, refine_set, &batch);
      if (measured) ch_us.push_back(Us(g, Clock::now()));
    }
  }

  // Accounting: layer self time inside the service replay. The ranking's
  // inner phases come from the pipeline's existing histograms.
  auto hist_sum_us = [&replay_metrics](const char* name) {
    const obs::Histogram* h = replay_metrics.FindHistogram(name);
    return h ? static_cast<double>(h->Snapshot().sum) / 1e3 : 0.0;
  };
  double total_service_us = 0.0;
  for (double v : service_us) total_service_us += v;
  double accounted_us = hist_sum_us("pipeline.filter_ns") +
                        hist_sum_us("pipeline.score_ns") +
                        hist_sum_us("pipeline.refine_ns") + put_us;
  for (double v : decode_us) accounted_us += v;
  for (double v : encode_us) accounted_us += v;
  for (double v : get_us) accounted_us += v;

  // Per-request queueing: end-to-end latency minus the same request's
  // replayed service time.
  std::vector<double> wait_ms;
  for (size_t i = n / 10; i < n; ++i) {
    if (phase.latency_ms[i] >= 0.0) {
      wait_ms.push_back(phase.latency_ms[i] - service_us[i] / 1e3);
    }
  }
  std::vector<double> depth(phase.queue_depth.begin(),
                            phase.queue_depth.end());

  *attempted = lo_end + n_hi;
  *failed = warm.shed + warm.malformed + phase.shed + phase.malformed +
            hi.shed + hi.malformed + mismatched + replay_mismatched;
  *correct = *correct && warm.malformed == 0 && phase.malformed == 0 &&
             hi.malformed == 0 && mismatched == 0 && replay_mismatched == 0;
  const double nd = static_cast<double>(n);
  std::vector<double> lo_latency, hi_latency;
  for (size_t i = n / 10; i < n; ++i) {
    if (phase.latency_ms[i] >= 0.0) lo_latency.push_back(phase.latency_ms[i]);
  }
  for (size_t i = n_hi / 10; i < n_hi; ++i) {
    if (hi.latency_ms[i] >= 0.0) hi_latency.push_back(hi.latency_ms[i]);
  }

  emit("p50_ms.hi", Quantile(hi_latency, 0.5), "ms");
  emit("p99_ms.lo", Quantile(lo_latency, 0.99), "ms");
  emit("p99_ms.hi", Quantile(hi_latency, 0.99), "ms");
  emit("server.wait_ms.p50", Quantile(wait_ms, 0.5), "ms");
  emit("server.wait_ms.p99", Quantile(wait_ms, 0.99), "ms");
  emit("server.queue_depth.p99", Quantile(depth, 0.99), "count");
  emit("server.utilization",
       Ratio(total_service_us / 1e6, ServerThreads() * phase.wall_s), "frac");
  emit("server.shed_frac", Ratio(static_cast<double>(phase.shed), nd), "frac");
  emit("loadgen.lag_ms.p99", Quantile(phase.lag_ms, 0.99), "ms");
  emit("error_frac",
       Ratio(static_cast<double>(*failed), static_cast<double>(*attempted)),
       "frac");
  emit("protocol.decode_us", Mean(decode_us), "us");
  emit("protocol.encode_us", Mean(encode_us), "us");
  emit("protocol.request_bytes", request_bytes / nd, "bytes");
  emit("protocol.reply_bytes", reply_bytes / nd, "bytes");
  emit("dyncache.adapt_frac", Ratio(static_cast<double>(adapt_us.size()), nd),
       "frac");
  emit("rank.adapt_us", Mean(adapt_us), "us");
  emit("rank.fresh_us", Mean(fresh_us), "us");
  emit("spatial.range_us", Mean(range_us), "us");
  emit("cknn.filter_us", Mean(filter_us), "us");
  emit("cknn.score_us", Mean(score_us), "us");
  emit("cknn.refine_us", Mean(refine_us), "us");
  emit("cknn.candidates",
       Ratio(scored_total, static_cast<double>(fresh_ranks.size())), "count");
  emit("cknn.useful_frac", Ratio(kept_total, scored_total), "frac");
  for (const char* kind : {"weather", "availability", "traffic"}) {
    const std::string base = std::string("eis.") + kind;
    double hits = static_cast<double>(Counter(phase, base + ".cache.hits"));
    double misses =
        static_cast<double>(Counter(phase, base + ".cache.misses"));
    emit(base + ".hit_rate", Ratio(hits, hits + misses), "frac");
  }
  emit("eis.upstream_calls_per_req",
       static_cast<double>(Counter(phase, "eis.weather.calls") +
                           Counter(phase, "eis.availability.calls") +
                           Counter(phase, "eis.traffic.calls")) /
           nd,
       "calls");
  emit("derouting.dijkstra_batch_us", Mean(dijkstra_us), "us");
  emit("derouting.ch_batch_us", Mean(ch_us), "us");
  {
    double hits = static_cast<double>(Counter(phase, "ch.cache.hits"));
    double misses = static_cast<double>(Counter(phase, "ch.cache.misses"));
    emit("ch.customizations_per_req",
         static_cast<double>(Counter(phase, "ch.customizations")) / nd,
         "count");
    emit("ch.cache.hit_rate", Ratio(hits, hits + misses), "frac");
    auto sum = phase.hist_sum_ns.find("ch.customize_ns");
    double count =
        static_cast<double>(Counter(phase, "ch.customize_ns.count"));
    emit("ch.customize_ms",
         sum == phase.hist_sum_ns.end() ? 0.0 : Ratio(sum->second, count) / 1e6,
         "ms");
  }
  // Only the corridor workload serves through the corridor cache and world
  // epochs; it is not in BENCHMARK.json (see perfbench/README.md), so the
  // other workloads leave these metrics out rather than report zeros.
  if (use_corridor) {
    double hits = static_cast<double>(Counter(phase, "fleet.corridor.hits"));
    double misses =
        static_cast<double>(Counter(phase, "fleet.corridor.misses"));
    emit("corridor.hit_rate", Ratio(hits, hits + misses), "frac");
    emit("corridor.get_us", Mean(get_us), "us");
    emit("corridor.miss_rank_us", Mean(miss_rank_us), "us");
    emit("epochs.publish_us", Mean(phase.publish_us), "us");
    emit("corridor.post_publish_miss_frac",
         Ratio(static_cast<double>(window_misses),
               static_cast<double>(window_requests)),
         "frac");
  }
  emit("graph.snapshot_load_ms", snapshot_load_ms, "ms");
  emit("setup.env_s", world.setup_env_s, "s");
  emit("ch.contract_s", contract_s, "s");
  emit("trace.unaccounted_frac",
       1.0 - Ratio(accounted_us, total_service_us), "frac");
  return out;
}

}  // namespace perfbench
