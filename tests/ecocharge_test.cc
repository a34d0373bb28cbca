#include "core/ecocharge.h"

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "tests/test_util.h"

namespace ecocharge {
namespace {

class EcoChargeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = testing_util::TinyEnvironment(60);
    ASSERT_NE(env_, nullptr);
    states_ = testing_util::TinyWorkload(*env_, 6);
    ASSERT_GE(states_.size(), 2u);
    weights_ = ScoreWeights::AWE();
  }

  EcoChargeOptions DefaultOpts() {
    EcoChargeOptions opts;
    opts.radius_m = 50000.0;
    opts.q_distance_m = 5000.0;
    return opts;
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
  ScoreWeights weights_;
};

TEST_F(EcoChargeTest, ProducesRankedTables) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  for (const VehicleState& state : states_) {
    OfferingTable table = eco.Rank(state, 3);
    EXPECT_LE(table.size(), 3u);
    EXPECT_FALSE(table.empty());
    for (size_t i = 1; i < table.size(); ++i) {
      EXPECT_GE(table.entries[i - 1].SortKey(), table.entries[i].SortKey());
    }
    EXPECT_EQ(table.generated_at, state.time);
    EXPECT_EQ(table.segment_index, state.segment_index);
  }
}

TEST_F(EcoChargeTest, CacheAdaptsNearbyQueries) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  OfferingTable first = eco.Rank(states_[0], 3);
  EXPECT_FALSE(first.adapted_from_cache);
  // Same position a minute later: must be adapted.
  VehicleState nearby = states_[0];
  nearby.time += 60.0;
  OfferingTable second = eco.Rank(nearby, 3);
  EXPECT_TRUE(second.adapted_from_cache);
  EXPECT_EQ(eco.cache().hits(), 1u);
}

// The traffic band is fetched once per ranking (DESIGN.md §11): a fresh
// ranking over C candidates — scoring and the refinement re-estimate —
// makes exactly one eis.traffic lookup, and so does a Dynamic-Cache
// adaptation that revises derouting; a plain adaptation makes none.
TEST_F(EcoChargeTest, OneTrafficLookupPerRanking) {
  obs::MetricsRegistry registry;
  env_->estimator->AttachMetrics(&registry);
  auto traffic_lookups = [&registry] {
    return registry.FindCounter("eis.traffic.cache.hits")->Value() +
           registry.FindCounter("eis.traffic.cache.misses")->Value();
  };
  const obs::Counter* estimates =
      registry.FindCounter("estimator.estimates.derouting");
  ASSERT_NE(estimates, nullptr);

  for (bool revise : {false, true}) {
    EcoChargeOptions opts = DefaultOpts();
    opts.adapt_revises_derouting = revise;
    EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                        weights_, opts);
    uint64_t lookups = traffic_lookups();
    uint64_t estimated = estimates->Value();
    OfferingTable fresh = eco.Rank(states_[0], 3);
    ASSERT_FALSE(fresh.adapted_from_cache);
    EXPECT_GT(estimates->Value() - estimated, 1u) << "C > 1 candidates";
    EXPECT_EQ(traffic_lookups() - lookups, 1u) << "fresh ranking";

    VehicleState nearby = states_[0];
    nearby.time += 60.0;
    lookups = traffic_lookups();
    estimated = estimates->Value();
    OfferingTable adapted = eco.Rank(nearby, 3);
    ASSERT_TRUE(adapted.adapted_from_cache);
    EXPECT_EQ(estimates->Value() - estimated > 1u, revise);
    EXPECT_EQ(traffic_lookups() - lookups, revise ? 1u : 0u)
        << "adaptation, revise=" << revise;
  }
  env_->estimator->AttachMetrics(nullptr);
}

TEST_F(EcoChargeTest, FarQueryRegenerates) {
  EcoChargeOptions opts = DefaultOpts();
  opts.q_distance_m = 1000.0;
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, opts);
  eco.Rank(states_[0], 3);
  VehicleState far = states_[0];
  far.position = far.position + Point{5000.0, 0.0};
  OfferingTable table = eco.Rank(far, 3);
  EXPECT_FALSE(table.adapted_from_cache);
}

TEST_F(EcoChargeTest, ResetClearsCache) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  eco.Rank(states_[0], 3);
  eco.Reset();
  OfferingTable table = eco.Rank(states_[0], 3);
  EXPECT_FALSE(table.adapted_from_cache);
}

TEST_F(EcoChargeTest, CachedTableUsesCachedCandidateSet) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  OfferingTable first = eco.Rank(states_[0], 3);
  VehicleState nearby = states_[0];
  nearby.time += 30.0;
  OfferingTable second = eco.Rank(nearby, 3);
  ASSERT_TRUE(second.adapted_from_cache);
  // Same conditions seconds later: the adapted table must keep the same
  // leaders (forecasts are stable within a 15-minute bucket).
  EXPECT_EQ(first.ChargerIds()[0], second.ChargerIds()[0]);
}

TEST_F(EcoChargeTest, NearOptimalAgainstBruteForce) {
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, DefaultOpts());
  BruteForceRanker brute(env_->estimator.get(), weights_);
  double eco_total = 0.0, brute_total = 0.0;
  for (const VehicleState& state : states_) {
    for (ChargerId id : eco.Rank(state, 3).ChargerIds()) {
      eco_total +=
          env_->estimator->ReferenceScore(state, env_->chargers[id], weights_);
    }
    for (ChargerId id : brute.Rank(state, 3).ChargerIds()) {
      brute_total +=
          env_->estimator->ReferenceScore(state, env_->chargers[id], weights_);
    }
  }
  EXPECT_LE(eco_total, brute_total + 1e-9);
  EXPECT_GE(eco_total, 0.90 * brute_total);  // near-optimal (paper: 97.5-99%)
}

TEST_F(EcoChargeTest, SmallRadiusRestrictsChoices) {
  EcoChargeOptions opts = DefaultOpts();
  opts.radius_m = 6000.0;
  // Disable cache adaptation: cached candidate sets may legitimately
  // drift up to R + Q from the current position.
  opts.q_distance_m = 0.0;
  EcoChargeRanker eco(env_->estimator.get(), env_->charger_index.get(),
                      weights_, opts);
  for (const VehicleState& state : states_) {
    OfferingTable table = eco.Rank(state, 3);
    for (ChargerId id : table.ChargerIds()) {
      EXPECT_LE(Distance(env_->chargers[id].position, state.position),
                opts.radius_m + 1e-9);
    }
  }
}

TEST_F(EcoChargeTest, DeterministicAcrossRuns) {
  EcoChargeRanker a(env_->estimator.get(), env_->charger_index.get(),
                    weights_, DefaultOpts());
  EcoChargeRanker b(env_->estimator.get(), env_->charger_index.get(),
                    weights_, DefaultOpts());
  for (const VehicleState& state : states_) {
    EXPECT_EQ(a.Rank(state, 3).ChargerIds(), b.Rank(state, 3).ChargerIds());
  }
}

TEST_F(EcoChargeTest, WeightsChangeTheRanking) {
  EcoChargeRanker level_only(env_->estimator.get(),
                             env_->charger_index.get(), ScoreWeights::OSC(),
                             DefaultOpts());
  EcoChargeRanker derouting_only(env_->estimator.get(),
                                 env_->charger_index.get(),
                                 ScoreWeights::ODC(), DefaultOpts());
  bool any_difference = false;
  for (const VehicleState& state : states_) {
    if (level_only.Rank(state, 3).ChargerIds() !=
        derouting_only.Rank(state, 3).ChargerIds()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace ecocharge
