#include "core/offering_service.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ecocharge {
namespace {

class OfferingServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = testing_util::TinyEnvironment(50);
    ASSERT_NE(env_, nullptr);
    states_ = testing_util::TinyWorkload(*env_, 4);
    ASSERT_FALSE(states_.empty());
    service_ = std::make_unique<OfferingService>(
        env_->estimator.get(), env_->charger_index.get(),
        ScoreWeights::AWE(), EcoChargeOptions{});
  }

  std::unique_ptr<Environment> env_;
  std::vector<VehicleState> states_;
  std::unique_ptr<OfferingService> service_;
};

TEST_F(OfferingServiceTest, PerClientCachesAreIsolated) {
  // Client A queries twice from the same spot: second is adapted. Client
  // B's first query from that spot must NOT be adapted (it has no cache).
  VehicleState s0 = states_[0];
  service_->Rank(100, s0, 3);
  VehicleState s1 = s0;
  s1.time += 60.0;
  OfferingTable a2 = service_->Rank(100, s1, 3);
  EXPECT_TRUE(a2.adapted_from_cache);
  OfferingTable b1 = service_->Rank(200, s1, 3);
  EXPECT_FALSE(b1.adapted_from_cache);
  EXPECT_EQ(service_->active_clients(), 2u);
  EXPECT_EQ(service_->stats().cache_adaptations, 1u);
}

TEST_F(OfferingServiceTest, IdleClientsEvicted) {
  service_->Rank(1, states_[0], 3);
  VehicleState later = states_[0];
  later.time += 3.0 * kSecondsPerHour;
  service_->Rank(2, later, 3);
  EXPECT_EQ(service_->active_clients(), 2u);
  service_->EvictIdleClients(later.time);
  EXPECT_EQ(service_->active_clients(), 1u);
}

}  // namespace
}  // namespace ecocharge
