#include <net/redundancy_controller.hpp>

#include <gtest/gtest.h>

namespace movr::net {
namespace {

/// Evenly interleaves `losses` among `deliveries` so the EWMA settles near
/// losses / (losses + deliveries) instead of decaying a front-loaded spike.
void feed(RedundancyController& rc, int losses, int deliveries) {
  const int total = losses + deliveries;
  int sent = 0;
  for (int i = 1; i <= total; ++i) {
    const bool lose = (i * losses) / total > sent;
    if (lose) {
      ++sent;
    }
    rc.on_transmission(lose);
  }
}

TEST(RedundancyController, StaysOffOnCleanChannel) {
  RedundancyController rc;
  feed(rc, 0, 500);
  rc.on_tick(false);
  EXPECT_FALSE(rc.plan(false).enabled());
  EXPECT_FALSE(rc.active());
  EXPECT_EQ(rc.retx_budget(), rc.config().retx_budget_unprotected);
}

TEST(RedundancyController, EnablesAboveThresholdAndHoldsThroughTheBand) {
  RedundancyController rc;
  // Push the loss EWMA well above enable_loss.
  feed(rc, 50, 50);
  rc.on_tick(false);
  EXPECT_TRUE(rc.plan(false).enabled());
  EXPECT_TRUE(rc.active());
  EXPECT_EQ(rc.counters().enables, 1u);
  // At ~50% loss parity cannot cover every hole, so the FEC-for-ARQ budget
  // trade is suspended: the full retransmit budget stays in force.
  EXPECT_EQ(rc.retx_budget(), rc.config().retx_budget_unprotected);

  // Decay into the hysteresis band (between disable_loss and enable_loss):
  // protection must hold — no thrash — and with loss now light, parity
  // covers the common single losses and buys back retransmit budget.
  while (rc.loss_estimate() > rc.config().enable_loss) {
    rc.on_transmission(false);
  }
  EXPECT_GT(rc.loss_estimate(), rc.config().disable_loss);
  rc.on_tick(false);
  EXPECT_TRUE(rc.plan(false).enabled());
  EXPECT_EQ(rc.counters().disables, 0u);
  EXPECT_EQ(rc.retx_budget(), rc.config().retx_budget_protected);

  // Decay below disable_loss: now it turns off.
  while (rc.loss_estimate() >= rc.config().disable_loss) {
    rc.on_transmission(false);
  }
  rc.on_tick(false);
  EXPECT_FALSE(rc.plan(false).enabled());
  EXPECT_EQ(rc.counters().disables, 1u);
}

TEST(RedundancyController, HeavierLossMeansSmallerK) {
  RedundancyController light;
  RedundancyController heavy;
  feed(light, 4, 96);   // ~4% loss
  feed(heavy, 30, 70);  // ~30% loss, past heavy_loss
  light.on_tick(false);
  heavy.on_tick(false);
  const FecParams light_plan = light.plan(false);
  const FecParams heavy_plan = heavy.plan(false);
  ASSERT_TRUE(light_plan.enabled());
  ASSERT_TRUE(heavy_plan.enabled());
  EXPECT_GT(light_plan.k, heavy_plan.k);
  EXPECT_EQ(heavy_plan.k, heavy.config().k_min);
}

TEST(RedundancyController, BurstinessDeepensInterleaving) {
  RedundancyController iid;
  RedundancyController bursty;
  // Same marginal loss (~20%), opposite correlation: isolated losses vs
  // losses in runs of four.
  for (int i = 0; i < 100; ++i) {
    iid.on_transmission(i % 5 == 0);
  }
  for (int i = 0; i < 100; ++i) {
    bursty.on_transmission(i % 20 < 4);
  }
  iid.on_tick(false);
  bursty.on_tick(false);
  EXPECT_GT(bursty.loss_after_loss(), iid.loss_after_loss());
  EXPECT_GT(bursty.expected_burst_mpdus(), iid.expected_burst_mpdus());
  const FecParams iid_plan = iid.plan(false);
  const FecParams bursty_plan = bursty.plan(false);
  ASSERT_TRUE(iid_plan.enabled());
  ASSERT_TRUE(bursty_plan.enabled());
  EXPECT_GT(bursty_plan.depth, iid_plan.depth);
}

TEST(RedundancyController, KeyframesGetDeeperProtection) {
  RedundancyController rc;
  feed(rc, 4, 96);  // light loss -> large k for P-frames
  rc.on_tick(false);
  const FecParams p_plan = rc.plan(false);
  const FecParams key_plan = rc.plan(true);
  ASSERT_TRUE(p_plan.enabled());
  ASSERT_TRUE(key_plan.enabled());
  EXPECT_LT(key_plan.k, p_plan.k);
  EXPECT_GE(key_plan.k, rc.config().keyframe_k_min);
}

TEST(RedundancyController, StressBoostsProtectionBeforeLossShowsUp) {
  RedundancyController rc;
  feed(rc, 0, 500);  // spotless history
  rc.on_tick(true);  // handover pending / fault window opened
  const FecParams plan = rc.plan(false);
  ASSERT_TRUE(plan.enabled());
  EXPECT_EQ(plan.k, rc.config().k_min);
  EXPECT_EQ(plan.depth, rc.config().depth_max);
  EXPECT_TRUE(rc.stressed());
}

TEST(RedundancyController, StressHoldOutlivesTheSignal) {
  RedundancyController rc;
  rc.on_tick(true);
  for (int i = 0; i < rc.config().stress_hold_ticks; ++i) {
    rc.on_tick(false);
    EXPECT_TRUE(rc.plan(false).enabled()) << "tick " << i;
  }
  // Hold expired and the loss EWMA is clean: protection drops.
  rc.on_tick(false);
  EXPECT_FALSE(rc.plan(false).enabled());
}

TEST(RedundancyController, ResetRestoresFreshState) {
  RedundancyController rc;
  feed(rc, 50, 50);
  rc.on_tick(true);
  rc.plan(true);
  rc.reset();
  EXPECT_FALSE(rc.active());
  EXPECT_FALSE(rc.stressed());
  EXPECT_DOUBLE_EQ(rc.loss_estimate(), 0.0);
  EXPECT_EQ(rc.counters().enables, 0u);
  rc.on_tick(false);
  EXPECT_FALSE(rc.plan(false).enabled());
}

}  // namespace
}  // namespace movr::net
