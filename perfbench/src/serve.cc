// Open-loop phases, the inline oracle replay, reply checking and SC%.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "core/baselines.h"
#include "core/protocol.h"
#include "eis/world_revisions.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kScSamples = 32;  // Brute-Force sample size for sc_pct

/// CPU time the calling thread has used, in ms.
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Sleeps most of the way to `due`, then spins the rest: the generator owns
/// the one core the workers leave free.
void WaitUntil(Clock::time_point due) {
  for (;;) {
    Clock::time_point now = Clock::now();
    if (now >= due) return;
    auto left = due - now;
    if (left > std::chrono::microseconds(300)) {
      std::this_thread::sleep_for(left - std::chrono::microseconds(200));
    }
  }
}

OfferingRequest DecodeOrDie(const std::string& wire) {
  Result<OfferingRequest> decoded = DecodeOfferingRequest(wire);
  if (!decoded.ok()) {
    std::cerr << "perfbench: trace request does not decode: "
              << decoded.status() << "\n";
    std::exit(2);
  }
  return decoded.value();
}

/// Refreshes published before request `i` is sent.
size_t PublishesBefore(const Trace& trace, size_t i) {
  size_t p = 0;
  while (p < trace.refreshes.size() && trace.refreshes[p].before <= i) ++p;
  return p;
}

/// The canonical table the corridor path serves for `request` under
/// `revisions`, encoded (the definition the corridor cache stores).
std::string CorridorTable(OfferingService& service,
                          const CorridorCache& corridor,
                          const TraceRequest& request,
                          const WorldRevisions& revisions) {
  ScopedWorldRevisions scope(revisions);
  OfferingRequest decoded = DecodeOrDie(request.wire);
  OfferingTable table;
  service.RankFresh(corridor.CanonicalState(decoded.state), decoded.k,
                    &table);
  return EncodeOfferingTable(table);
}

}  // namespace

uint64_t ReplyDigest(const std::string& reply) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : reply) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

InlineOracle::InlineOracle(const WorkloadSpec& spec, World& world,
                           const Trace& trace)
    : trace_(trace),
      bundle_(MakeServer(spec, world, /*threads=*/0)),
      replies_(trace.requests.size()) {}

double InlineOracle::ServeUntil(size_t end) {
  end = std::min(end, trace_.requests.size());
  const size_t begin = served_;
  const double cpu0 = ThreadCpuMs();
  for (; served_ < end; ++served_) {
    const TraceRequest& request = trace_.requests[served_];
    while (next_refresh_ < trace_.refreshes.size() &&
           trace_.refreshes[next_refresh_].before <= served_) {
      Publish(*bundle_.epochs, trace_.refreshes[next_refresh_++],
              request.state.time);
    }
    std::string* slot = &replies_[served_];
    Status st = bundle_.server->SubmitWire(
        request.client_id, request.wire,
        [slot](const Result<std::string>& reply) {
          if (reply.ok()) *slot = reply.value();
        });
    if (!st.ok()) {
      std::cerr << "perfbench: inline submit failed: " << st << "\n";
      std::exit(2);
    }
  }
  if (end <= begin) return 0.0;
  return (ThreadCpuMs() - cpu0) / static_cast<double>(end - begin);
}

PhaseResult RunPhase(ServerBundle& bundle, const Trace& trace, size_t begin,
                     size_t end, double qps, uint64_t seed,
                     uint64_t phase_id) {
  OfferingServer& server = *bundle.server;
  WorldEpochs* epochs = bundle.epochs.get();
  const obs::Gauge* depth = server.metrics().FindGauge("server.queue.depth");
  const size_t n = end - begin;

  PhaseResult r;
  r.begin = begin;
  r.n = n;
  r.digests.assign(n, 0);
  r.lag_ms.resize(n);
  r.queue_depth.resize(n);
  r.epoch_sent.assign(n, 0);
  r.epoch_done.assign(n, 0);
  r.bad.assign(n, 0);
  std::vector<int64_t> done_ns(n, -1);
  const std::vector<double> offsets = PoissonSchedule(seed, phase_id, qps, n);
  std::map<std::string, uint64_t> counters_before;
  std::map<std::string, double> sums_before;
  for (const auto& [name, value] : server.metrics().CounterValues()) {
    counters_before[name] = value;
  }
  for (const auto& h : server.metrics().HistogramValues()) {
    counters_before[h.name + ".count"] = h.snapshot.count;
    sums_before[h.name] = static_cast<double>(h.snapshot.sum);
  }

  size_t next_refresh = 0;
  while (next_refresh < trace.refreshes.size() &&
         trace.refreshes[next_refresh].before < begin) {
    ++next_refresh;
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t j = 0; j < n; ++j) {
    const TraceRequest& request = trace.requests[begin + j];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[j]));
    WaitUntil(due);
    r.lag_ms[j] =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    while (next_refresh < trace.refreshes.size() &&
           trace.refreshes[next_refresh].before <= begin + j) {
      Clock::time_point p0 = Clock::now();
      Publish(*epochs, trace.refreshes[next_refresh++], request.state.time);
      r.publish_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - p0)
              .count());
    }
    if (epochs) r.epoch_sent[j] = epochs->current_epoch();
    Status st = server.SubmitWire(
        request.client_id, request.wire,
        [&r, &done_ns, epochs, start, j](const Result<std::string>& reply) {
          if (reply.ok()) {
            r.digests[j] = ReplyDigest(reply.value());
          } else {
            r.bad[j] = 1;
          }
          if (epochs) r.epoch_done[j] = epochs->current_epoch();
          done_ns[j] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - start)
                           .count();
        });
    if (!st.ok()) ++r.shed;
    r.queue_depth[j] = depth ? depth->Value() : 0;
  }
  server.Drain();

  r.latency_ms.resize(n);
  int64_t last_ns = 0;
  for (size_t j = 0; j < n; ++j) {
    if (r.bad[j]) ++r.malformed;
    if (done_ns[j] < 0) {
      r.latency_ms[j] = -1.0;
      continue;
    }
    last_ns = std::max(last_ns, done_ns[j]);
    r.latency_ms[j] = static_cast<double>(done_ns[j]) / 1e6 - offsets[j] * 1e3;
  }
  r.wall_s = static_cast<double>(last_ns) / 1e9;
  for (const auto& [name, value] : server.metrics().CounterValues()) {
    r.counters[name] = value - counters_before[name];
  }
  for (const auto& h : server.metrics().HistogramValues()) {
    r.counters[h.name + ".count"] =
        h.snapshot.count - counters_before[h.name + ".count"];
    r.hist_sum_ns[h.name] =
        static_cast<double>(h.snapshot.sum) - sums_before[h.name];
  }
  return r;
}

size_t CountMismatches(const WorkloadSpec& spec, World& world,
                       const Trace& trace, const PhaseResult& phase,
                       const std::vector<std::string>& oracle) {
  // Lazily built single-thread stack for the corridor's alternative
  // epochs: a request in flight across a publish may be served under any
  // epoch current between its submission and its reply.
  std::unique_ptr<EcEstimator> estimator;
  std::unique_ptr<OfferingService> service;
  std::unique_ptr<CorridorCache> corridor;
  size_t mismatches = 0;
  for (size_t j = 0; j < phase.n; ++j) {
    // Shed requests and error replies are counted separately.
    if (phase.latency_ms[j] < 0.0 || phase.bad[j]) continue;
    const size_t i = phase.begin + j;
    const uint64_t reply = phase.digests[j];
    if (reply == ReplyDigest(oracle[i])) continue;
    bool matched = false;
    if (spec.kind == WorkloadKind::kCorridor &&
        phase.epoch_done[j] > phase.epoch_sent[j]) {
      if (!service) {
        Environment& env = *world.env;
        estimator = std::make_unique<EcEstimator>(
            env.dataset.network, &env.chargers, env.energy.get(),
            env.availability.get(), env.congestion.get(),
            env.estimator->options());
        service = std::make_unique<OfferingService>(
            estimator.get(), env.charger_index.get(), ScoreWeights::AWE(),
            world.eco);
        corridor = std::make_unique<CorridorCache>(env.dataset.network.get(),
                                                   CorridorCacheOptions{});
      }
      for (uint64_t e = phase.epoch_sent[j] + 1;
           e <= phase.epoch_done[j] && !matched; ++e) {
        WorldRevisions revisions = RevisionsAfter(trace, e - 1);
        matched = ReplyDigest(CorridorTable(*service, *corridor,
                                            trace.requests[i], revisions)) ==
                  reply;
      }
    }
    if (!matched) ++mismatches;
  }
  return mismatches;
}

ScResult SamplePercentSc(World& world, const Trace& trace,
                         const std::vector<std::string>& replies, size_t n) {
  ScResult result;
  const size_t m = std::min(kScSamples, n);
  if (m == 0) return result;
  const size_t stride = n / m;
  EcEstimator& estimator = *world.env->estimator;
  const std::vector<EvCharger>& chargers = world.env->chargers;
  const ScoreWeights weights = ScoreWeights::AWE();
  BruteForceRanker brute_force(&estimator, weights);
  QueryContext ctx;
  OfferingTable best;
  double served = 0.0;
  double optimum = 0.0;
  for (size_t j = 0; j < m; ++j) {
    const size_t i = j * stride + stride / 2;
    OfferingRequest request = DecodeOrDie(trace.requests[i].wire);
    Result<OfferingTable> table = DecodeOfferingTable(replies[i]);
    if (!table.ok()) {
      std::cerr << "perfbench: reply " << i << " does not decode\n";
      std::exit(2);
    }
    ScopedWorldRevisions scope(
        RevisionsAfter(trace, PublishesBefore(trace, i)));
    for (const OfferingEntry& e : table->entries) {
      if (e.charger_id >= chargers.size()) {
        std::cerr << "perfbench: reply " << i << " names no charger\n";
        std::exit(2);
      }
      served += estimator.ReferenceScore(request.state,
                                         chargers[e.charger_id], weights);
    }
    brute_force.RankInto(request.state, request.k, ctx, &best);
    for (const OfferingEntry& e : best.entries) {
      optimum += estimator.ReferenceScore(request.state,
                                          chargers[e.charger_id], weights);
    }
  }
  result.samples = m;
  result.sc_pct = optimum > 0.0 ? 100.0 * served / optimum : 0.0;
  return result;
}

}  // namespace perfbench
