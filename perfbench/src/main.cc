// perfbench: open-loop serving benchmark driver.
//
//   perfbench --workload trips|fresh|corridor --seed N --seconds S
//             --trace 0|1 --data-dir DIR
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is the JSON result; the line before it is a report
// with the run's provenance, phase details and sample sizes.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/logging.h"
#include "perfbench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string data_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

/// Host speed probe. The host slows down for minutes at a time when its
/// other tenants are busy, and the program then runs up to 1.6x slower on
/// one thread and up to 2x on several. Each of `threads` threads sorts
/// its own copy of 100,000 fixed pseudo-random keys, best of three; the
/// result is the mean of the threads' times in ms. The probe runs only
/// benchmark code, so a change to the program does not move it.
double HostProbeMs(int threads) {
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> v(100000);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint64_t& k : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    return v;
  }();
  std::vector<double> ms(threads, 0.0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&ms, t] {
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<uint64_t> work = keys;
        Clock::time_point t0 = Clock::now();
        std::sort(work.begin(), work.end());
        best = std::min(best, std::chrono::duration<double, std::milli>(
                                  Clock::now() - t0)
                                  .count());
      }
      ms[t] = best;
    });
  }
  for (std::thread& thread : pool) thread.join();
  double sum = 0.0;
  for (double v : ms) sum += v;
  return sum / threads;
}

/// Probe time of the reference host: time metrics are reported as they
/// would read on a host whose probe takes this long.
constexpr double kProbeRefMs = 10.0;

/// Host speed relative to the reference: > 1 on a slow spell.
double Slowdown(double probe_ms) { return probe_ms / kProbeRefMs; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Latencies of served requests after the first tenth of the phase (the
/// rate changes at its start).
std::vector<double> SteadyLatencies(const PhaseResult& phase) {
  std::vector<double> out;
  for (size_t i = phase.n / 10; i < phase.n; ++i) {
    if (phase.latency_ms[i] >= 0.0) out.push_back(phase.latency_ms[i]);
  }
  return out;
}

/// Sustained throughput of a burst phase: requests completed by the time
/// 80% were done, per second. The last fifth is left out because the
/// workers drain their unequal remainders one by one.
double BurstThroughput(const PhaseResult& phase) {
  std::vector<double> done = phase.latency_ms;  // due time = burst start
  const double t80_ms = Quantile(done, 0.8);
  return t80_ms > 0.0 ? 0.8 * static_cast<double>(phase.n) / t80_ms * 1e3
                      : 0.0;
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  if (spec.kind == WorkloadKind::kFresh) PrepareSnapshot(args.data_dir);

  // setup_s: world + server construction, median of nine. Only one world
  // is alive at a time, so set-up does not raise peak_rss_mb. Every time
  // metric is also corrected for the host's slowdown, probed just before
  // it is measured on as many threads as it runs: times are divided by
  // it, max_qps is multiplied (raw values go to the report line).
  std::vector<double> setups, setups_raw;
  World world;
  for (int rep = 0; rep < 9; ++rep) {
    world = World{};
    const double slowdown = Slowdown(HostProbeMs(1));
    Clock::time_point t0 = Clock::now();
    world = MakeWorld(spec, args.data_dir);
    ServerBundle bundle = MakeServer(spec, world, ServerThreads());
    setups_raw.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    setups.push_back(setups_raw.back() / slowdown);
  }
  const double setup_rss_mb = PeakRssMb();

  // One long-running server takes the trace in order, phase after phase:
  // a warm-up at the lo rate, then rounds of a lo-rate phase and one
  // burst, each drained before the next. (The hi rate's latency, which
  // queueing makes too unsteady between runs to gate, is measured by the
  // traced run.) Every time metric is the interquartile mean over rounds,
  // so a spell shorter than the run moves a few rounds, not the result.
  // Phase sizes are request counts fixed by --seconds alone, so every run
  // of a seed puts each phase on the same stretch of the trace.
  constexpr int kRounds = 16;
  const double s = args.seconds;
  const size_t n_warm = static_cast<size_t>(spec.lo_qps * 0.1 * s);
  const size_t n_lo = static_cast<size_t>(spec.lo_qps * 0.5 * s / kRounds);
  const size_t n_burst =
      static_cast<size_t>(spec.burst_qps * 0.35 * s / kRounds);
  Trace trace = MakeTrace(spec, world, args.seed,
                          n_warm + kRounds * (n_lo + n_burst));

  std::vector<PhaseResult> phases;
  phases.reserve(1 + 2 * kRounds);  // run() hands out pointers into it
  std::vector<size_t> round_end;    // trace position after each round
  std::vector<double> p50_lo, burst_qps, lag_lo, p50_lo_raw, burst_qps_raw;
  double peak_rss_mb = 0.0;
  size_t next = 0;
  {
    ServerBundle server = MakeServer(spec, world, ServerThreads());
    auto run = [&](size_t n, double qps, uint64_t phase_id) {
      phases.push_back(
          RunPhase(server, trace, next, next + n, qps, args.seed, phase_id));
      next += n;
      return &phases.back();
    };
    run(n_warm, spec.lo_qps, /*phase_id=*/1);
    for (int round = 0; round < kRounds; ++round) {
      const double slowdown = Slowdown(HostProbeMs(ServerThreads()));
      const PhaseResult* lo = run(n_lo, spec.lo_qps, 100 + round);
      p50_lo_raw.push_back(Quantile(SteadyLatencies(*lo), 0.5));
      p50_lo.push_back(p50_lo_raw.back() / slowdown);
      lag_lo.push_back(Quantile(lo->lag_ms, 0.99));
      // max_qps: the whole burst is due at once, so the server runs flat
      // out until its backlog is gone.
      burst_qps_raw.push_back(
          BurstThroughput(*run(n_burst, 0.0, 300 + round)));
      burst_qps.push_back(burst_qps_raw.back() * slowdown);
      round_end.push_back(next);
    }
    // Taken before the oracle worlds below exist: the serving world and
    // the server with every client's state. The trace is the benchmark's
    // input and is left out.
    peak_rss_mb = PeakRssMb() -
                  static_cast<double>(TraceBytes(trace)) / (1024.0 * 1024.0);
  }
  world = World{};

  // The oracle, a second world served inline in trace order, replays the
  // same requests; its CPU time per table, round by round, is the paper's
  // F_t.
  World oracle_world = MakeWorld(spec, args.data_dir);
  InlineOracle oracle(spec, oracle_world, trace);
  oracle.ServeUntil(n_warm);
  std::vector<double> slice_ms, slice_ms_raw;
  for (size_t end : round_end) {
    const double slowdown = Slowdown(HostProbeMs(1));
    slice_ms_raw.push_back(oracle.ServeUntil(end));
    slice_ms.push_back(slice_ms_raw.back() / slowdown);
  }
  const size_t n_used = next;

  size_t attempted = 0;
  size_t shed = 0;
  size_t malformed = 0;
  size_t mismatched = 0;
  for (const PhaseResult& p : phases) {
    attempted += p.n;
    shed += p.shed;
    malformed += p.malformed;
    mismatched +=
        CountMismatches(spec, oracle_world, trace, p, oracle.replies());
  }
  // The fresh workload's CH tables must equal the Dijkstra backend's.
  // Every fresh request is a distinct vehicle with no per-client state,
  // so every fourth request is replayed.
  size_t backend_mismatched = 0;
  size_t backend_checked = 0;
  if (spec.kind == WorkloadKind::kFresh) {
    World exact = MakeWorld(spec, args.data_dir, /*exact_oracle=*/true);
    ServerBundle dijkstra = MakeServer(spec, exact, /*threads=*/0);
    for (size_t i = 0; i < n_used; i += 4, ++backend_checked) {
      const TraceRequest& request = trace.requests[i];
      std::string reply;
      Status st = dijkstra.server->SubmitWire(
          request.client_id, request.wire,
          [&reply](const Result<std::string>& r) {
            if (r.ok()) reply = r.value();
          });
      if (!st.ok() || reply != oracle.replies()[i]) ++backend_mismatched;
    }
  }
  ScResult sc =
      SamplePercentSc(oracle_world, trace, oracle.replies(), n_used);

  const size_t failed = shed + malformed + mismatched + backend_mismatched;
  const bool correct = malformed == 0 && mismatched == 0 &&
                       backend_mismatched == 0 && sc.samples > 0;

  std::cout << "report: workload=" << spec.name << " seed=" << args.seed
            << " nproc=" << std::thread::hardware_concurrency()
            << " workers=" << ServerThreads() << " compiler=\""
            << PERFBENCH_COMPILER << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " rounds=" << kRounds << " n_warm=" << n_warm
            << " n_lo=" << n_lo << " n_burst=" << n_burst
            << " requests=" << n_used << " shed=" << shed
            << " malformed=" << malformed
            << " mismatched=" << mismatched
            << " backend_checked=" << backend_checked
            << " backend_mismatched=" << backend_mismatched
            << " sc_samples=" << sc.samples
            << " setup_rss_mb=" << Num(setup_rss_mb)
            << " lag_p99_ms.lo=" << Num(Median(lag_lo))
            << " raw: setup_s=" << Num(Median(setups_raw))
            << " p50_ms.lo=" << Num(TrimmedMean(p50_lo_raw))
            << " max_qps=" << Num(TrimmedMean(burst_qps_raw))
            << " ft_ms=" << Num(TrimmedMean(slice_ms_raw)) << "\n";

  PrintResult(correct, attempted, failed,
              {{"setup_s", Median(setups), "s"},
               {"p50_ms.lo", TrimmedMean(p50_lo), "ms"},
               {"max_qps", TrimmedMean(burst_qps), "1/s"},
               {"ok_frac",
                1.0 - static_cast<double>(failed) /
                          static_cast<double>(attempted),
                "frac"},
               {"ft_ms", TrimmedMean(slice_ms), "ms"},
               {"sc_pct", sc.sc_pct, "%"},
               {"peak_rss_mb", peak_rss_mb, "MB"}});
  return 0;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics = TracedRun(spec, args.data_dir, args.seed,
                                          args.seconds, &correct, &attempted,
                                          &failed);
  std::cout << "report: workload=" << spec.name << " seed=" << args.seed
            << " nproc=" << std::thread::hardware_concurrency()
            << " workers=" << ServerThreads() << " compiler=\""
            << PERFBENCH_COMPILER << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " traced=1\n";
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Logger::set_threshold(LogLevel::kWarning);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload trips|fresh|corridor --seed N "
                 "--seconds S --trace 0|1 [--data-dir DIR]\n";
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  return args.trace ? RunTraced(*spec, args) : RunEndToEnd(*spec, args);
}
