#include "core/ec_estimator.h"

#include <algorithm>
#include <cmath>

namespace ecocharge {

EcEstimator::EcEstimator(std::shared_ptr<const RoadNetwork> network,
                         const std::vector<EvCharger>* fleet,
                         SolarEnergyService* energy,
                         const AvailabilityService* availability,
                         const CongestionModel* congestion,
                         const EcEstimatorOptions& options)
    : network_(std::move(network)),
      fleet_(fleet),
      energy_(energy),
      availability_(availability),
      options_(options),
      derouting_(network_, congestion, /*detour_factor=*/1.3,
                 options.exact_derouting_bucket_s),
      owned_eis_(std::make_unique<InformationServer>(energy, availability,
                                                     congestion)),
      eis_(owned_eis_.get()) {
  derouting_.set_ch(options.ch_cache);
  PickBestSite();
}

EcEstimator::EcEstimator(std::shared_ptr<const RoadNetwork> network,
                         const std::vector<EvCharger>* fleet,
                         SolarEnergyService* energy,
                         const AvailabilityService* availability,
                         const CongestionModel* congestion,
                         const EcEstimatorOptions& options,
                         InformationServer* shared_eis)
    : network_(std::move(network)),
      fleet_(fleet),
      energy_(energy),
      availability_(availability),
      options_(options),
      derouting_(network_, congestion, /*detour_factor=*/1.3,
                 options.exact_derouting_bucket_s),
      eis_(shared_eis) {
  derouting_.set_ch(options.ch_cache);
  PickBestSite();
}

void EcEstimator::PickBestSite() {
  double best = -1.0;
  for (size_t i = 0; i < fleet_->size(); ++i) {
    const EvCharger& c = (*fleet_)[i];
    double deliverable = std::min(c.RateKw(), c.pv_capacity_kw);
    if (deliverable > best) {
      best = deliverable;
      best_site_index_ = i;
    }
  }
}

double EcEstimator::MaxFleetEnergyKwh(SimTime t, double window_s) {
  // Quantize to the EIS forecast bucket so the value is pure in its key.
  const double bucket_s = 15.0 * kSecondsPerMinute;
  uint64_t bucket = static_cast<uint64_t>(std::max(0.0, t) / bucket_s);
  uint64_t key = bucket * 1000003ULL +
                 static_cast<uint64_t>(window_s / kSecondsPerMinute);
  auto it = max_energy_cache_.find(key);
  if (it != max_energy_cache_.end()) return it->second;
  if (fleet_->empty()) return 0.0;
  double value = energy_->ActualEnergyKwh(
      (*fleet_)[best_site_index_], static_cast<double>(bucket) * bucket_s,
      window_s);
  max_energy_cache_[key] = value;
  return value;
}

double EcEstimator::NormalizeEnergy(double kwh, double window_s, SimTime t) {
  // Eq. 1: the environment's maximum charging level at this time window.
  double denom = MaxFleetEnergyKwh(t, window_s);
  if (denom <= 1e-9) return 0.0;  // night: nothing produces
  return std::clamp(kwh / denom, 0.0, 1.0);
}

double EcEstimator::NormalizeDerouting(double extra_m, double norm_m) const {
  if (!std::isfinite(extra_m)) return 1.0;
  double denom = norm_m > 0.0 ? norm_m : options_.max_derouting_m;
  return std::clamp(extra_m / denom, 0.0, 1.0);
}

DeroutingQuery EcEstimator::MakeQuery(const VehicleState& state) const {
  DeroutingQuery q;
  q.vehicle_position = state.position;
  q.vehicle_node = state.node;
  q.return_point_a = state.return_point_a;
  q.return_point_b = state.return_point_b;
  q.return_node_a = state.return_node_a;
  q.return_node_b = state.return_node_b;
  q.now = state.time;
  return q;
}

TrafficFetch EcEstimator::FetchTraffic(SimTime now) {
  EisFetch fetch = EisFetch::kFresh;
  TrafficFetch traffic;
  traffic.band = eis_->GetTraffic(RoadClass::kArterial, now, now, &fetch);
  traffic.degraded = fetch != EisFetch::kFresh;
  return traffic;
}

EcIntervals EcEstimator::EstimateIntervals(const VehicleState& state,
                                           const EvCharger& charger,
                                           const TrafficFetch& traffic,
                                           double derouting_norm_m) {
  DeroutingEstimate der =
      derouting_.Estimate(MakeQuery(state), charger, traffic.band);
  SimTime eta_time = state.time + der.eta_s;

  EisFetch energy_fetch = EisFetch::kFresh;
  EnergyForecast energy =
      eis_->GetEnergyForecast(charger, state.time, eta_time,
                              state.charge_window_s, &energy_fetch);
  EisFetch avail_fetch = EisFetch::kFresh;
  AvailabilityForecast avail =
      eis_->GetAvailability(charger, state.time, eta_time, &avail_fetch);

  if (level_estimates_) level_estimates_->Add();
  if (availability_estimates_) availability_estimates_->Add();
  if (derouting_estimates_) derouting_estimates_->Add();

  EcIntervals ecs;
  ecs.level = Interval::FromUnordered(
      NormalizeEnergy(energy.min_kwh, state.charge_window_s, eta_time),
      NormalizeEnergy(energy.max_kwh, state.charge_window_s, eta_time));
  ecs.availability = Interval::FromUnordered(avail.min, avail.max);
  ecs.derouting = Interval::FromUnordered(
      NormalizeDerouting(der.extra_distance_min_m, derouting_norm_m),
      NormalizeDerouting(der.extra_distance_max_m, derouting_norm_m));
  ecs.eta_s = der.eta_s;
  ecs.degraded = traffic.degraded || energy_fetch != EisFetch::kFresh ||
                 avail_fetch != EisFetch::kFresh;
  return ecs;
}

void EcEstimator::ReviseDerouting(const VehicleState& state,
                                  const EvCharger& charger,
                                  const TrafficFetch& traffic,
                                  EcIntervals* ecs, double derouting_norm_m) {
  DeroutingEstimate der =
      derouting_.Estimate(MakeQuery(state), charger, traffic.band);
  if (derouting_estimates_) derouting_estimates_->Add();
  ecs->derouting = Interval::FromUnordered(
      NormalizeDerouting(der.extra_distance_min_m, derouting_norm_m),
      NormalizeDerouting(der.extra_distance_max_m, derouting_norm_m));
  ecs->eta_s = der.eta_s;
  // Adaptation keeps the cached L/A estimates: a degraded flag can only be
  // added to, never cleared by, the refreshed derouting component.
  ecs->degraded = ecs->degraded || traffic.degraded;
}

EcIntervals EcEstimator::EstimateWithExactDerouting(
    const VehicleState& state, const EvCharger& charger,
    const TrafficFetch& traffic, double derouting_norm_m) {
  EcIntervals ecs =
      EstimateIntervals(state, charger, traffic, derouting_norm_m);
  DeroutingEstimate exact = derouting_.Exact(MakeQuery(state), charger);
  if (exact_derouting_estimates_) exact_derouting_estimates_->Add();
  ApplyExactDerouting(exact, derouting_norm_m, &ecs);
  return ecs;
}

BatchSweepStats EcEstimator::ExactDeroutingBatch(
    const VehicleState& state, std::span<const ChargerRef> chargers,
    DeroutingBatchScratch* scratch) {
  BatchSweepStats stats = derouting_.ExactBatch(
      MakeQuery(state), chargers, scratch, &scratch->estimates);
  if (exact_derouting_estimates_) {
    exact_derouting_estimates_->Add(chargers.size());
  }
  return stats;
}

void EcEstimator::ApplyExactDerouting(const DeroutingEstimate& exact,
                                      double derouting_norm_m,
                                      EcIntervals* ecs) const {
  double d = NormalizeDerouting(exact.extra_distance_min_m, derouting_norm_m);
  ecs->derouting = Interval::Exact(d);
  ecs->eta_s = exact.eta_s;
}

EcTruth EcEstimator::Truth(const VehicleState& state,
                           const EvCharger& charger) {
  DeroutingEstimate der = derouting_.Exact(MakeQuery(state), charger);
  EcTruth truth;
  truth.derouting = NormalizeDerouting(der.extra_distance_min_m);
  truth.eta_s = der.eta_s;
  SimTime arrival = state.time + (std::isfinite(der.eta_s) ? der.eta_s : 0.0);
  double kwh =
      energy_->ActualEnergyKwh(charger, arrival, state.charge_window_s);
  truth.level = NormalizeEnergy(kwh, state.charge_window_s, arrival);
  truth.availability = availability_->ActualAvailability(charger, arrival);
  return truth;
}

EcTruth EcEstimator::ReferenceComponents(const VehicleState& state,
                                         const EvCharger& charger) {
  DeroutingEstimate der = derouting_.Exact(MakeQuery(state), charger);
  EcTruth ref;
  ref.derouting = NormalizeDerouting(der.extra_distance_min_m);
  ref.eta_s = der.eta_s;
  SimTime arrival = state.time + (std::isfinite(der.eta_s) ? der.eta_s : 0.0);
  EisFetch energy_fetch = EisFetch::kFresh;
  EnergyForecast energy =
      eis_->GetEnergyForecast(charger, state.time, arrival,
                              state.charge_window_s, &energy_fetch);
  ref.level =
      (NormalizeEnergy(energy.min_kwh, state.charge_window_s, arrival) +
       NormalizeEnergy(energy.max_kwh, state.charge_window_s, arrival)) /
      2.0;
  EisFetch avail_fetch = EisFetch::kFresh;
  AvailabilityForecast avail =
      eis_->GetAvailability(charger, state.time, arrival, &avail_fetch);
  ref.availability = (avail.min + avail.max) / 2.0;
  ref.degraded =
      energy_fetch != EisFetch::kFresh || avail_fetch != EisFetch::kFresh;
  return ref;
}

void EcEstimator::AttachMetrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    level_estimates_ = nullptr;
    availability_estimates_ = nullptr;
    derouting_estimates_ = nullptr;
    exact_derouting_estimates_ = nullptr;
    derouting_.AttachChMetrics(nullptr);
    if (owned_eis_) owned_eis_->AttachMetrics(nullptr);
    return;
  }
  level_estimates_ =
      registry->GetCounter("estimator.estimates.level", "estimates");
  availability_estimates_ =
      registry->GetCounter("estimator.estimates.availability", "estimates");
  derouting_estimates_ =
      registry->GetCounter("estimator.estimates.derouting", "estimates");
  exact_derouting_estimates_ = registry->GetCounter(
      "estimator.estimates.exact_derouting", "estimates");
  derouting_.AttachChMetrics(registry);
  if (owned_eis_) owned_eis_->AttachMetrics(registry);
}

double EcEstimator::ReferenceScore(const VehicleState& state,
                                   const EvCharger& charger,
                                   const ScoreWeights& weights) {
  EcTruth r = ReferenceComponents(state, charger);
  return ComputeExactScore(r.level, r.availability, r.derouting, weights);
}

double EcEstimator::TrueScore(const VehicleState& state,
                              const EvCharger& charger,
                              const ScoreWeights& weights) {
  EcTruth t = Truth(state, charger);
  return ComputeExactScore(t.level, t.availability, t.derouting, weights);
}

}  // namespace ecocharge
