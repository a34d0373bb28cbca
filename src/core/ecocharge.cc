#include "core/ecocharge.h"

namespace ecocharge {

namespace {

CknnEcOptions ProcessorOptions(const EcoChargeOptions& o) {
  CknnEcOptions c;
  c.radius_m = o.radius_m;
  c.refine_limit = o.refine_limit;
  c.refine_exact_derouting = o.refine_exact_derouting;
  c.use_intersection = o.use_intersection;
  c.batch_derouting = o.batch_derouting;
  c.landmarks = o.landmarks;
  c.landmark_refine_order = o.landmark_refine_order;
  c.ch = o.ch;
  c.use_simd = o.use_simd;
  // The user's radius defines the environment the paper normalizes the
  // derouting cost by: D = extra distance / (2R).
  c.derouting_norm_m = 2.0 * o.radius_m;
  return c;
}

}  // namespace

EcoChargeRanker::EcoChargeRanker(EcEstimator* estimator,
                                 const SpatialIndex* charger_index,
                                 const ScoreWeights& weights,
                                 const EcoChargeOptions& options)
    : estimator_(estimator),
      weights_(weights),
      options_(options),
      processor_(estimator, charger_index, ProcessorOptions(options)),
      cache_(DynamicCacheOptions{options.q_distance_m, options.cache_ttl_s}) {}

void EcoChargeRanker::RankInto(const VehicleState& state, size_t k,
                               QueryContext& ctx, OfferingTable* out) {
  out->generated_at = state.time;
  out->location = state.position;
  out->segment_index = state.segment_index;
  out->adapted_from_cache = false;
  out->degraded = false;
  out->entries.clear();

  if (const std::vector<ScoredCandidate>* cached =
          options_.use_dynamic_cache
              ? cache_.TryReuse(state.position, state.time)
              : nullptr) {
    // Adaptation: reuse the previously solved sub-problems. By default the
    // recalculation is skipped entirely (the cached L/A/D stay as computed
    // at the anchor position — the staleness the Q parameter trades away);
    // optionally the derouting component is revised for the new position.
    // The adaptation path also trades a little accuracy for speed:
    // estimated intervals only, no network-exact refinement.
    ctx.scored.assign(cached->begin(), cached->end());
    if (options_.adapt_revises_derouting) {
      const std::vector<EvCharger>& fleet = estimator_->fleet();
      const TrafficFetch traffic = estimator_->FetchTraffic(state.time);
      for (ScoredCandidate& c : ctx.scored) {
        if (c.charger_id >= fleet.size()) continue;
        estimator_->ReviseDerouting(state, fleet[c.charger_id], traffic,
                                    &c.ecs, 2.0 * options_.radius_m);
        c.score = ComputeScorePair(c.ecs, weights_);
      }
    }
    processor_.RefineAndRank(state, &ctx.scored, k, weights_,
                             /*refine_exact_derouting=*/false, &ctx,
                             &out->entries);
    out->adapted_from_cache = true;
    for (const OfferingEntry& e : out->entries) {
      out->NoteEntryDegradation(e.ecs);
    }
    return;
  }

  // Full regeneration: filter within R, score, intersect, refine — all
  // under one traffic fetch.
  const TrafficFetch traffic = estimator_->FetchTraffic(state.time);
  const std::vector<ChargerId>& candidates =
      processor_.FilterCandidates(state.position, &ctx);
  const std::vector<ScoredCandidate>& scored =
      processor_.ScoreCandidates(state, candidates, weights_, traffic, &ctx);
  if (options_.use_dynamic_cache) {
    cache_.Store(state.position, state.time, scored);
  }
  processor_.RefineAndRank(state, &scored, k, weights_,
                           options_.refine_exact_derouting, &traffic, &ctx,
                           &out->entries);
  for (const OfferingEntry& e : out->entries) {
    out->NoteEntryDegradation(e.ecs);
  }
}

void EcoChargeRanker::Reset() { cache_.Clear(); }

}  // namespace ecocharge
