// Tests for the Airshed application: numerical equivalence of the
// sequential reference, the data parallel version, and the task parallel
// version, plus the I/O-overlap speedup property behind Figure 6.
#include <gtest/gtest.h>

#include "apps/airshed.hpp"

namespace ap = fxpar::apps;
using fxpar::MachineConfig;

namespace {

MachineConfig paragon(int p) {
  auto c = MachineConfig::paragon(p);
  c.stack_bytes = 256 * 1024;
  return c;
}

ap::AirshedConfig small_cfg() {
  ap::AirshedConfig c;
  c.layers = 2;
  c.grid_points = 40;
  c.species = 5;
  c.hours = 3;
  c.base_steps = 2;
  return c;
}

}  // namespace

TEST(Airshed, DataParallelMatchesReference) {
  const auto cfg = small_cfg();
  const double ref = ap::airshed_reference_checksum(cfg);
  for (int p : {1, 2, 4, 7}) {
    const auto res = ap::run_airshed_dp(paragon(p), cfg);
    EXPECT_DOUBLE_EQ(res.checksum, ref) << "p=" << p;
  }
}

TEST(Airshed, TaskParallelMatchesReference) {
  const auto cfg = small_cfg();
  const double ref = ap::airshed_reference_checksum(cfg);
  for (int p : {3, 4, 8}) {
    const auto res = ap::run_airshed_taskpar(paragon(p), cfg);
    EXPECT_DOUBLE_EQ(res.checksum, ref) << "p=" << p;
  }
}

TEST(Airshed, GatheredChecksumAndModelArePinned) {
  // Both versions end in gather_full; its host-side rewrites must leave
  // the checksum and the modeled run unchanged. Values recorded before
  // gather_full unpacked straight into its result.
  const auto cfg = small_cfg();
  const auto dp = ap::run_airshed_dp(paragon(4), cfg);
  EXPECT_EQ(dp.checksum, 0x1.bfb8c0b0f5ca5p+7);
  EXPECT_EQ(dp.makespan, 0x1.5214109fd20a2p-3);
  EXPECT_EQ(dp.machine_result.messages, 129u);
  EXPECT_EQ(dp.machine_result.bytes, 25440u);
  const auto tp = ap::run_airshed_taskpar(paragon(4), cfg);
  EXPECT_EQ(tp.checksum, 0x1.bfb8c0b0f5ca5p+7);
  EXPECT_EQ(tp.makespan, 0x1.abf9b8be220fdp-3);
  EXPECT_EQ(tp.machine_result.messages, 50u);
  EXPECT_EQ(tp.machine_result.bytes, 25280u);
}

TEST(Airshed, TaskParRequiresThreeProcs) {
  EXPECT_THROW(ap::run_airshed_taskpar(paragon(2), small_cfg()), std::invalid_argument);
}

TEST(Airshed, StepsVaryByHour) {
  const ap::AirshedConfig cfg = small_cfg();
  EXPECT_EQ(cfg.steps(0), cfg.base_steps);
  EXPECT_EQ(cfg.steps(1), cfg.base_steps + 1);
  EXPECT_EQ(cfg.steps(3), cfg.base_steps);
}

TEST(Airshed, SequentialPhasesBottleneckDataParallelVersion) {
  // At scale, the DP version's I/O phases dominate and the task parallel
  // version that overlaps them wins (the Figure 6 effect).
  ap::AirshedConfig cfg = small_cfg();
  cfg.grid_points = 200;
  cfg.hours = 4;
  const auto dp = ap::run_airshed_dp(paragon(32), cfg);
  const auto tp = ap::run_airshed_taskpar(paragon(32), cfg);
  EXPECT_LT(tp.makespan, dp.makespan);
}

TEST(Airshed, TaskParallelGainGrowsWithProcessorCount) {
  ap::AirshedConfig cfg = small_cfg();
  cfg.grid_points = 200;
  cfg.hours = 4;
  const auto dp8 = ap::run_airshed_dp(paragon(8), cfg);
  const auto tp8 = ap::run_airshed_taskpar(paragon(8), cfg);
  const auto dp32 = ap::run_airshed_dp(paragon(32), cfg);
  const auto tp32 = ap::run_airshed_taskpar(paragon(32), cfg);
  const double gain8 = dp8.makespan / tp8.makespan;
  const double gain32 = dp32.makespan / tp32.makespan;
  EXPECT_GT(gain32, gain8);
}

TEST(Airshed, IoDeviceIsActuallySequential) {
  // Two hours of I/O on the DP version must serialize on the device: the
  // makespan strictly exceeds the pure compute scaling would suggest.
  ap::AirshedConfig cfg = small_cfg();
  const auto a = ap::run_airshed_dp(paragon(4), cfg);
  EXPECT_GT(a.machine_result.finish_time, 0.0);
  // Smoke: message traffic happened (scatter/gather).
  EXPECT_GT(a.machine_result.messages, 0u);
}
