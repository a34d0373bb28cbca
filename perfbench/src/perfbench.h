// Open-loop serving benchmark for the EcoCharge OfferingServer.
//
// One process: a generator thread sends pre-encoded wire requests on a
// Poisson schedule through OfferingServer::SubmitWire to nproc-1 workers;
// every reply's bytes are compared (by 64-bit digest) with an inline
// (threads = 0) replay of the same trace. See perfbench/README.md for the
// workloads, the metric catalog and the layer -> end-to-end map.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/offering_service.h"
#include "server/corridor_cache.h"
#include "server/offering_server.h"
#include "server/world_epochs.h"

namespace perfbench {

using namespace ecocharge;

enum class WorkloadKind { kTrips, kFresh, kCorridor };

/// Fixed per-workload settings. Rates are absolute so that a faster
/// program shows as lower latency at the same offered load.
struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  double lo_qps;        ///< about a third of capacity at HEAD
  double hi_qps;        ///< about 60% of capacity at HEAD; traced run only
  double burst_qps;     ///< sizes the max_qps burst: about HEAD's capacity
};

/// Looks up a workload by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One wire request of the trace. `state` is kept for the benchmark's own
/// oracle and replay; the server only ever sees `wire`.
struct TraceRequest {
  uint64_t client_id = 0;
  VehicleState state;
  std::string wire;
};

/// A world refresh published by the generator just before request
/// `before` is sent (corridor workload only).
struct Refresh {
  size_t before = 0;
  int kind = 0;  ///< 0 weather, 1 availability, 2 traffic
};

struct Trace {
  std::vector<TraceRequest> requests;
  std::vector<Refresh> refreshes;  ///< ascending `before`
};

/// Everything the workload needs to serve: the world plus the options the
/// server and the oracle replays are built from.
struct World {
  std::unique_ptr<Environment> env;
  EcoChargeOptions eco;
  /// Dijkstra oracle of the fresh workload: the snapshot's CH, used only
  /// to order refinement candidates exactly as the CH backend does.
  std::shared_ptr<const ChIndex> order_ch;
  size_t k = 3;
  double setup_env_s = 0.0;  ///< MakeEnvironment time of this world
};

/// Builds the world for `spec`. `data_dir` holds the CH snapshot of the
/// fresh workload; `exact_oracle` builds the Dijkstra-backend twin of it.
World MakeWorld(const WorkloadSpec& spec, const std::string& data_dir,
                bool exact_oracle = false);

/// Writes the fresh workload's California snapshot with a CH section;
/// returns the contraction time in seconds.
double PrepareSnapshot(const std::string& data_dir);
std::string SnapshotPath(const std::string& data_dir);

/// The deterministic trace of `spec` for `seed`, at least `min_requests`
/// long (the generator stops once it has that many).
Trace MakeTrace(const WorkloadSpec& spec, const World& world, uint64_t seed,
                size_t min_requests);

/// Heap bytes `trace` holds: the benchmark's input, not the program's
/// memory, so peak_rss_mb leaves it out.
size_t TraceBytes(const Trace& trace);

/// Poisson send offsets (seconds from phase start) for `n` requests; all
/// zero (one burst) when `qps` is 0.
std::vector<double> PoissonSchedule(uint64_t seed, uint64_t phase,
                                    double qps, size_t n);

/// Deletes a server, then detaches the environment's shared CH plane cache
/// from it: OfferingServer attaches that cache to its own metrics registry
/// and leaves the pointers dangling when it is destroyed, so the next user
/// of the cache would write into freed counters.
struct ServerDeleter {
  ChCustomizationCache* ch_cache = nullptr;
  void operator()(OfferingServer* server) const;
};

/// A server plus the corridor cache and world epochs wired into it.
struct ServerBundle {
  std::unique_ptr<CorridorCache> corridor;
  std::unique_ptr<WorldEpochs> epochs;
  std::unique_ptr<OfferingServer, ServerDeleter> server;
};

ServerBundle MakeServer(const WorkloadSpec& spec, World& world, int threads);

/// World revisions after the first `publishes` refreshes of `trace`.
WorldRevisions RevisionsAfter(const Trace& trace, size_t publishes);

/// Applies one refresh to `epochs`.
void Publish(WorldEpochs& epochs, const Refresh& refresh, SimTime now);

/// The oracle: the trace served inline (threads = 0), in trace order, on
/// one server. It can be served in slices, between other phases.
class InlineOracle {
 public:
  InlineOracle(const WorkloadSpec& spec, World& world, const Trace& trace);

  /// Serves the requests before `end` not served yet; returns this
  /// slice's mean CPU time per table in ms (inline serving runs on the
  /// calling thread).
  double ServeUntil(size_t end);

  /// Replies by request index (empty where not served yet).
  const std::vector<std::string>& replies() const { return replies_; }

 private:
  const Trace& trace_;
  ServerBundle bundle_;
  std::vector<std::string> replies_;
  size_t served_ = 0;
  size_t next_refresh_ = 0;
};

/// One open-loop phase: requests [begin, end) of the trace sent to a
/// running server at a fixed offered rate, then drained. Per-request
/// vectors are indexed from `begin`.
struct PhaseResult {
  size_t begin = 0;
  size_t n = 0;
  double wall_s = 0.0;               ///< first due time to last reply
  std::vector<double> latency_ms;    ///< due time -> reply; < 0 if shed
  std::vector<double> lag_ms;        ///< actual send - due time
  std::vector<int64_t> queue_depth;  ///< gauge sampled at each send
  std::vector<double> publish_us;    ///< time of each WorldEpochs::Publish
  std::vector<uint64_t> digests;     ///< ReplyDigest of each reply
  std::vector<uint8_t> bad;          ///< 1 where the reply was an error
  std::vector<uint64_t> epoch_sent;  ///< corridor: epoch at submission
  std::vector<uint64_t> epoch_done;  ///< corridor: epoch at reply
  size_t shed = 0;
  size_t malformed = 0;
  /// Server registry counters (and histogram `.count`s) over the phase.
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> hist_sum_ns;  ///< histogram sums, ditto
};
PhaseResult RunPhase(ServerBundle& bundle, const Trace& trace, size_t begin,
                     size_t end, double qps, uint64_t seed,
                     uint64_t phase_id);

/// A 64-bit digest of a reply's bytes (FNV-1a, then a splitmix64 finish).
/// Phases keep digests, not replies, so the benchmark's own memory does
/// not swamp the program's in peak_rss_mb.
uint64_t ReplyDigest(const std::string& reply);

/// Reply checking against the oracle. Returns the number of mismatches.
/// A corridor reply may carry any epoch current between its submission
/// and its reply; those epochs' tables are recomputed when needed.
size_t CountMismatches(const WorkloadSpec& spec, World& world,
                       const Trace& trace, const PhaseResult& phase,
                       const std::vector<std::string>& oracle);

/// SC%: summed reference score of the served tables over the Brute-Force
/// top-k, on 32 requests evenly spaced over the first `n` (all of them
/// when `n` is smaller).
struct ScResult {
  double sc_pct = 0.0;
  size_t samples = 0;
};
ScResult SamplePercentSc(World& world, const Trace& trace,
                         const std::vector<std::string>& replies, size_t n);

/// Number of workers the benchmark runs: nproc - 1, at least 1.
int ServerThreads();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of the traced run. `correct`, `attempted` and
/// `failed` receive the run's reply checks.
std::vector<Metric> TracedRun(const WorkloadSpec& spec,
                              const std::string& data_dir, uint64_t seed,
                              double seconds, bool* correct,
                              size_t* attempted, size_t* failed);

// Small statistics helpers.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Mean of the middle half of `values` (the interquartile mean).
double TrimmedMean(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
