// Workload definitions, world set-up and the deterministic trace generator.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "ch/ch_customize.h"
#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "common/rng.h"
#include "core/protocol.h"
#include "core/workload.h"
#include "graph/io.h"
#include "perfbench.h"

namespace perfbench {

namespace {

// Rates and limits were set on a 4-core x86 machine with 3 workers; they
// are absolute, so they stay fixed when the program gets faster.
const WorkloadSpec kWorkloads[] = {
    // name, kind, lo, hi, burst
    {"trips", WorkloadKind::kTrips, 550.0, 950.0, 1600.0},
    {"fresh", WorkloadKind::kFresh, 90.0, 150.0, 330.0},
    {"corridor", WorkloadKind::kCorridor, 4000.0, 9000.0, 15000.0},
};

constexpr double kSegmentM = 4000.0;  // TripStates segment length
constexpr uint64_t kWorldSeed = 42;   // the world is fixed; traces vary
constexpr double kRefreshEvery = 2500.0;  // corridor: mean requests between
                                          // publishes

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::cerr << "perfbench: " << what << ": " << status << "\n";
  std::exit(2);
}

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Trip states of one trajectory re-timed to start at `start`.
std::vector<VehicleState> RetimedTrip(const World& world,
                                      const Trajectory& trajectory,
                                      SimTime start) {
  std::vector<VehicleState> states =
      TripStates(*world.env->dataset.network, trajectory, kSegmentM,
                 kSecondsPerHour);
  for (VehicleState& s : states) {
    s.time = start + (s.time - trajectory.StartTime());
  }
  return states;
}

void SortByTime(std::vector<TraceRequest>* requests) {
  std::stable_sort(requests->begin(), requests->end(),
                   [](const TraceRequest& a, const TraceRequest& b) {
                     return a.state.time < b.state.time;
                   });
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

int ServerThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) - 1 : 1;
}

std::string SnapshotPath(const std::string& data_dir) {
  return data_dir + "/california_ch.ecgs";
}

double PrepareSnapshot(const std::string& data_dir) {
  DatasetOptions options;
  options.scale = 0.1;
  options.seed = kWorldSeed;
  Result<Dataset> dataset = MakeDataset(DatasetKind::kCalifornia, options);
  if (!dataset.ok()) Die("california dataset", dataset.status());
  auto t0 = std::chrono::steady_clock::now();
  Result<std::shared_ptr<ChIndex>> ch = BuildChIndex(*dataset->network);
  double contract_s = Since(t0);
  if (!ch.ok()) Die("contraction", ch.status());
  ChSnapshotViews views =
      ToSnapshotViews(std::shared_ptr<const ChIndex>(ch.value()));
  Status st = SaveSnapshot(*dataset->network, SnapshotPath(data_dir),
                           nullptr, &views);
  if (!st.ok()) Die("save snapshot", st);
  return contract_s;
}

World MakeWorld(const WorkloadSpec& spec, const std::string& data_dir,
                bool exact_oracle) {
  EnvironmentOptions options;
  options.num_chargers = 1000;
  options.seed = kWorldSeed;
  // One sweep thread: the serving workers plus the generator already use
  // every core.
  options.ch_threads = 1;
  switch (spec.kind) {
    case WorkloadKind::kTrips:
      // Full-scale Oldenburg: the paper's 4,000 moving objects.
      options.kind = DatasetKind::kOldenburg;
      options.dataset_scale = 1.0;
      break;
    case WorkloadKind::kFresh:
      options.kind = DatasetKind::kCalifornia;
      options.dataset_scale = 0.1;
      options.graph_snapshot = SnapshotPath(data_dir);
      options.derouting_backend =
          exact_oracle ? DeroutingBackend::kExact : DeroutingBackend::kCh;
      break;
    case WorkloadKind::kCorridor:
      options.kind = DatasetKind::kCalifornia;
      options.dataset_scale = 0.1;
      break;
  }
  World world;
  auto t0 = std::chrono::steady_clock::now();
  Result<std::unique_ptr<Environment>> env = MakeEnvironment(options);
  world.setup_env_s = Since(t0);
  if (!env.ok()) Die("environment", env.status());
  world.env = std::move(env).MoveValueUnsafe();
  // The CLI's `--derouting ch` also orders refinement candidates by CH
  // free-flow distance; the Dijkstra oracle keeps that ordering so the two
  // backends must agree bit for bit.
  world.eco.ch = world.env->ch.get();
  if (exact_oracle) {
    Result<LoadedSnapshot> snap = LoadSnapshotWithAux(SnapshotPath(data_dir));
    if (!snap.ok() || !snap->ch.has_value()) {
      Die("snapshot CH section", snap.status());
    }
    Result<std::shared_ptr<ChIndex>> ch = ChIndexFromSnapshot(
        *snap->ch, world.env->dataset.network->NumEdges());
    if (!ch.ok()) Die("snapshot CH", ch.status());
    world.order_ch = ch.value();
    world.eco.ch = world.order_ch.get();
  }
  return world;
}

Trace MakeTrace(const WorkloadSpec& spec, const World& world, uint64_t seed,
                size_t min_requests) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x51ED);
  const std::vector<Trajectory>& trips = world.env->dataset.trajectories;
  Trace trace;
  std::vector<TraceRequest>& out = trace.requests;
  auto add = [&](uint64_t client, const VehicleState& state) {
    TraceRequest request;
    request.client_id = client;
    request.state = state;
    out.push_back(std::move(request));
  };
  // Client ids are drawn from the seed so the worker a vehicle lands on
  // varies between seeds too.
  auto client_id = [&rng](size_t i) {
    return (rng.NextUint64() << 20) ^ static_cast<uint64_t>(i);
  };

  switch (spec.kind) {
    case WorkloadKind::kTrips: {
      // Every vehicle drives two trips: the first starts at a staggered
      // time inside a four-hour window that opens in the morning, the
      // second (another trajectory) after a 15-60 minute stop.
      const SimTime open = rng.NextDouble(7.0, 9.0) * kSecondsPerHour;
      for (size_t v = 0; v < trips.size(); ++v) {
        uint64_t client = client_id(v);
        SimTime start = open + rng.NextDouble(0.0, 4.0 * kSecondsPerHour);
        size_t second = (v + 1 + static_cast<size_t>(rng.NextBounded(
                                     trips.size() - 1))) %
                        trips.size();
        SimTime pause = rng.NextDouble(15.0, 60.0) * kSecondsPerMinute;
        for (size_t t : {v, second}) {
          for (const VehicleState& s : RetimedTrip(world, trips[t], start)) {
            add(client, s);
          }
          start += trips[t].DurationSeconds() + pause;
        }
      }
      SortByTime(&out);
      break;
    }
    case WorkloadKind::kFresh: {
      // A distinct vehicle per request, somewhere on a random trip at a
      // random time of day: cold per-client state, cold EIS keys, and a
      // congestion bucket the CH planes rarely share.
      std::vector<std::vector<VehicleState>> per_trip(trips.size());
      while (out.size() < min_requests) {
        size_t t = static_cast<size_t>(rng.NextBounded(trips.size()));
        if (per_trip[t].empty()) {
          per_trip[t] = RetimedTrip(world, trips[t], 0.0);
          if (per_trip[t].empty()) continue;
        }
        VehicleState s = per_trip[t][static_cast<size_t>(
            rng.NextBounded(per_trip[t].size()))];
        s.time = rng.NextDouble(0.0, 24.0 * kSecondsPerHour);
        add(client_id(out.size()), s);
      }
      break;
    }
    case WorkloadKind::kCorridor: {
      // Cohorts: many vehicles drive one route, staggered inside a single
      // corridor ETA bucket, so bucket-mates share corridor entries. A
      // route is a stretch of kRouteSegments segments of a trip, so a trace
      // holds a few hundred routes and no single route's cost dominates it.
      const double bucket = CorridorCacheOptions{}.eta_bucket_s;
      const SimTime open = rng.NextDouble(7.0, 9.0) * kSecondsPerHour;
      constexpr size_t kVehiclesPerRoute = 48;
      constexpr size_t kRouteSegments = 6;
      size_t vehicle = 0;
      while (out.size() < min_requests) {
        size_t t = static_cast<size_t>(rng.NextBounded(trips.size()));
        SimTime route_start = open + rng.NextDouble(0.0, kSecondsPerHour);
        std::vector<VehicleState> trip = RetimedTrip(world, trips[t], 0.0);
        if (trip.size() < kRouteSegments) continue;
        const size_t first = static_cast<size_t>(
            rng.NextBounded(trip.size() - kRouteSegments + 1));
        const SimTime shift = route_start - trip[first].time;
        for (size_t v = 0; v < kVehiclesPerRoute; ++v, ++vehicle) {
          uint64_t client = client_id(vehicle);
          double offset = rng.NextDouble(0.0, bucket);
          for (size_t i = first; i < first + kRouteSegments; ++i) {
            VehicleState s = trip[i];
            s.time += shift + offset;
            add(client, s);
          }
        }
      }
      SortByTime(&out);
      // Refreshes land every kRefreshEvery requests on average, with the
      // upstream kind rotating from a seeded start.
      int kind = static_cast<int>(rng.NextBounded(3));
      for (double at = rng.NextDouble(0.5, 1.5) * kRefreshEvery;
           at < static_cast<double>(out.size());
           at += rng.NextDouble(0.5, 1.5) * kRefreshEvery) {
        trace.refreshes.push_back({static_cast<size_t>(at), kind});
        kind = (kind + 1) % 3;
      }
      break;
    }
  }
  if (out.size() < min_requests) {
    std::cerr << "perfbench: trace has " << out.size() << " requests, "
              << min_requests << " needed\n";
    std::exit(2);
  }
  out.resize(min_requests);
  while (!trace.refreshes.empty() &&
         trace.refreshes.back().before >= min_requests) {
    trace.refreshes.pop_back();
  }
  for (TraceRequest& request : out) {
    OfferingRequest wire;
    wire.state = request.state;
    wire.k = world.k;
    request.wire = EncodeOfferingRequest(wire);
  }
  return trace;
}

size_t TraceBytes(const Trace& trace) {
  size_t bytes = trace.requests.capacity() * sizeof(TraceRequest) +
                 trace.refreshes.capacity() * sizeof(Refresh);
  for (const TraceRequest& request : trace.requests) {
    // Strings past the small-string buffer own a heap block of
    // capacity + 1 bytes.
    if (request.wire.capacity() > std::string().capacity()) {
      bytes += request.wire.capacity() + 1;
    }
  }
  return bytes;
}

std::vector<double> PoissonSchedule(uint64_t seed, uint64_t phase,
                                    double qps, size_t n) {
  Rng rng((seed + 1) * 0xD1B54A32D192ED03ULL ^ (phase + 1) * 0x2545F491ULL);
  std::vector<double> offsets(n, 0.0);
  if (qps <= 0.0) return offsets;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += rng.NextExponential(qps);
    offsets[i] = t;
  }
  return offsets;
}

ServerBundle MakeServer(const WorkloadSpec& spec, World& world, int threads) {
  ServerBundle bundle;
  OfferingServerOptions options;
  options.threads = threads;
  // Deep queues: a max_qps burst queues all of its requests at once, and
  // overload must show as queueing delay, not as shed requests.
  options.queue_depth = size_t{1} << 16;
  if (spec.kind == WorkloadKind::kCorridor) {
    bundle.corridor = std::make_unique<CorridorCache>(
        world.env->dataset.network.get(), CorridorCacheOptions{});
    bundle.epochs = std::make_unique<WorldEpochs>(
        static_cast<size_t>(std::max(1, threads)));
    options.corridor = bundle.corridor.get();
    options.epochs = bundle.epochs.get();
  }
  bundle.server = std::unique_ptr<OfferingServer, ServerDeleter>(
      new OfferingServer(world.env.get(), ScoreWeights::AWE(), world.eco,
                         options),
      ServerDeleter{world.env->ch_cache.get()});
  if (bundle.corridor) bundle.corridor->AttachMetrics(&bundle.server->metrics());
  return bundle;
}

void ServerDeleter::operator()(OfferingServer* server) const {
  delete server;
  if (ch_cache != nullptr) ch_cache->AttachMetrics(nullptr);
}

WorldRevisions RevisionsAfter(const Trace& trace, size_t publishes) {
  WorldRevisions revisions;
  for (size_t i = 0; i < publishes && i < trace.refreshes.size(); ++i) {
    switch (trace.refreshes[i].kind) {
      case 0:
        ++revisions.weather;
        break;
      case 1:
        ++revisions.availability;
        break;
      default:
        ++revisions.traffic;
        break;
    }
  }
  return revisions;
}

void Publish(WorldEpochs& epochs, const Refresh& refresh, SimTime now) {
  epochs.Publish(now, [&refresh, now](WorldSnapshot* snapshot) {
    switch (refresh.kind) {
      case 0:
        ++snapshot->revisions.weather;
        break;
      case 1:
        ++snapshot->revisions.availability;
        break;
      default:
        ++snapshot->revisions.traffic;
        break;
    }
    snapshot->published_at = now;
  });
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0.0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

}  // namespace perfbench
