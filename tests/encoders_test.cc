// Direct tests of the three encoding modules of §4.3-4.5: the Time
// Interval Encoder, the Trajectory Encoder and the External Features
// Encoder, outside the full model.
#include <gtest/gtest.h>

#include <cmath>

#include "core/deepod_config.h"
#include "core/encoders.h"
#include "nn/gradcheck.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace deepod::core {
namespace {

DeepOdConfig SmallConfig() {
  DeepOdConfig config = DeepOdConfig().Scaled(16);
  return config;
}

TEST(TimeIntervalEncoderTest, OutputShapeAcrossIntervalWidths) {
  const DeepOdConfig config = SmallConfig();
  const temporal::TimeSlotter slotter(0.0, config.slot_seconds);
  util::Rng rng(1);
  nn::Embedding slots(static_cast<size_t>(slotter.slots_per_week()),
                      config.dt, rng);
  TimeIntervalEncoder encoder(config, slotter, slots, rng);
  // Δd = 1 (within one slot), 2 (crossing a boundary), many slots.
  for (auto [t1, t2] : std::vector<std::pair<double, double>>{
           {10.0, 20.0}, {290.0, 310.0}, {0.0, 1800.0}}) {
    const nn::Tensor tcode = encoder.Forward(t1, t2);
    EXPECT_EQ(tcode.shape(), (std::vector<size_t>{config.dm2}));
    for (double v : tcode.data()) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_THROW(encoder.Forward(100.0, 50.0), std::invalid_argument);
}

TEST(TimeIntervalEncoderTest, WeeklyWrapUsesSameNodes) {
  // An interval in week 0 and the same interval one week later hit the same
  // temporal-graph nodes and remainders -> identical tcode.
  const DeepOdConfig config = SmallConfig();
  const temporal::TimeSlotter slotter(0.0, config.slot_seconds);
  util::Rng rng(2);
  nn::Embedding slots(static_cast<size_t>(slotter.slots_per_week()),
                      config.dt, rng);
  TimeIntervalEncoder encoder(config, slotter, slots, rng);
  encoder.SetTraining(false);
  const double week = temporal::kSecondsPerWeek;
  const nn::Tensor a = encoder.Forward(1000.0, 1400.0);
  const nn::Tensor b = encoder.Forward(1000.0 + week, 1400.0 + week);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.at(i), b.at(i), 1e-12);
  }
}

TEST(TimeIntervalEncoderTest, GradientsFlowToSlotTable) {
  const DeepOdConfig config = SmallConfig();
  const temporal::TimeSlotter slotter(0.0, config.slot_seconds);
  util::Rng rng(3);
  nn::Embedding slots(static_cast<size_t>(slotter.slots_per_week()),
                      config.dt, rng);
  TimeIntervalEncoder encoder(config, slotter, slots, rng);
  nn::Tensor loss = nn::Sum(nn::Square(encoder.Forward(100.0, 700.0)));
  loss.Backward();
  double mass = 0.0;
  for (double g : slots.table().grad()) mass += std::fabs(g);
  EXPECT_GT(mass, 0.0);
}

TEST(TrajectoryEncoderTest, ShapeAndSequenceSensitivity) {
  const DeepOdConfig config = SmallConfig();
  const temporal::TimeSlotter slotter(0.0, config.slot_seconds);
  util::Rng rng(4);
  nn::Embedding roads(20, config.ds, rng);
  nn::Embedding slots(static_cast<size_t>(slotter.slots_per_week()),
                      config.dt, rng);
  TrajectoryEncoder encoder(config, slotter, roads, slots, rng);
  encoder.SetTraining(false);

  traj::MatchedTrajectory a;
  a.path = {{3, 0.0, 30.0}, {7, 30.0, 80.0}};
  a.origin_ratio = 0.2;
  a.dest_ratio = 0.9;
  const nn::Tensor stcode_a = encoder.Forward(a);
  EXPECT_EQ(stcode_a.shape(), (std::vector<size_t>{config.dm4}));

  // Different segment in the path -> different representation.
  traj::MatchedTrajectory b = a;
  b.path[1].segment_id = 9;
  const nn::Tensor stcode_b = encoder.Forward(b);
  double diff = 0.0;
  for (size_t i = 0; i < stcode_a.size(); ++i) {
    diff += std::fabs(stcode_a.at(i) - stcode_b.at(i));
  }
  EXPECT_GT(diff, 1e-9);

  // Different position ratios -> different representation.
  traj::MatchedTrajectory c = a;
  c.dest_ratio = 0.1;
  const nn::Tensor stcode_c = encoder.Forward(c);
  diff = 0.0;
  for (size_t i = 0; i < stcode_a.size(); ++i) {
    diff += std::fabs(stcode_a.at(i) - stcode_c.at(i));
  }
  EXPECT_GT(diff, 1e-9);

  EXPECT_THROW(encoder.Forward(traj::MatchedTrajectory{}),
               std::invalid_argument);
}

TEST(TrajectoryEncoderTest, LongerTrajectoriesSupported) {
  const DeepOdConfig config = SmallConfig();
  const temporal::TimeSlotter slotter(0.0, config.slot_seconds);
  util::Rng rng(5);
  nn::Embedding roads(60, config.ds, rng);
  nn::Embedding slots(static_cast<size_t>(slotter.slots_per_week()),
                      config.dt, rng);
  TrajectoryEncoder encoder(config, slotter, roads, slots, rng);
  traj::MatchedTrajectory t;
  double clock = 0.0;
  for (size_t i = 0; i < 50; ++i) {
    t.path.push_back({i, clock, clock + 20.0});
    clock += 20.0;
  }
  const nn::Tensor stcode = encoder.Forward(t);
  for (double v : stcode.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(ExternalFeaturesEncoderTest, ShapeAndWeatherSensitivity) {
  const DeepOdConfig config = SmallConfig();
  util::Rng rng(6);
  ExternalFeaturesEncoder encoder(config, rng);
  encoder.SetTraining(false);
  std::vector<double> matrix(10 * 12, 0.5);
  const nn::Tensor a = encoder.Forward(0, matrix, 10, 12);
  EXPECT_EQ(a.shape(), (std::vector<size_t>{config.dm6}));
  const nn::Tensor b = encoder.Forward(13, matrix, 10, 12);
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) diff += std::fabs(a.at(i) - b.at(i));
  EXPECT_GT(diff, 1e-9);  // weather one-hot changes the encoding
}

TEST(ExternalFeaturesEncoderTest, CongestionLevelSensitivity) {
  // Scaling the whole speed matrix down (a city-wide slowdown) must change
  // the encoding: the mean/std bypass guarantees the level is visible even
  // though the instance-norm CNN would erase it.
  const DeepOdConfig config = SmallConfig();
  util::Rng rng(7);
  ExternalFeaturesEncoder encoder(config, rng);
  encoder.SetTraining(false);
  std::vector<double> fast(8 * 8), slow(8 * 8);
  util::Rng noise(8);
  for (size_t i = 0; i < fast.size(); ++i) {
    fast[i] = 0.8 + 0.1 * noise.Uniform();
    slow[i] = fast[i] * 0.5;
  }
  const nn::Tensor a = encoder.Forward(0, fast, 8, 8);
  const nn::Tensor b = encoder.Forward(0, slow, 8, 8);
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) diff += std::fabs(a.at(i) - b.at(i));
  EXPECT_GT(diff, 1e-6);
}

TEST(ExternalFeaturesEncoderTest, SplitComposesToForwardBitForBit) {
  // The serving memo keeps one traffic code per snapshot and runs only the
  // head per weather; that must reproduce Forward exactly in every tier.
  const DeepOdConfig config = SmallConfig();
  util::Rng rng(10);
  ExternalFeaturesEncoder encoder(config, rng);
  encoder.SetTraining(false);
  std::vector<double> matrix(10 * 12);
  util::Rng noise(11);
  for (double& v : matrix) v = noise.Uniform();
  for (const nn::KernelMode mode :
       {nn::KernelMode::kLegacy, nn::KernelMode::kBlocked,
        nn::KernelMode::kSimd}) {
    nn::KernelModeScope scope(mode);
    const ExternalFeaturesEncoder::TrafficCode traffic =
        encoder.EncodeTraffic(matrix, 10, 12);
    EXPECT_EQ(traffic.dtraf.size(), encoder.traffic_dim());
    for (int w = 0;
         w < static_cast<int>(ExternalFeaturesEncoder::kNumWeatherTypes); ++w) {
      EXPECT_EQ(encoder.EncodeHead(w, traffic).data(),
                encoder.Forward(w, matrix, 10, 12).data());
    }
  }
}

TEST(ExternalFeaturesEncoderTest, InputValidation) {
  const DeepOdConfig config = SmallConfig();
  util::Rng rng(9);
  ExternalFeaturesEncoder encoder(config, rng);
  std::vector<double> matrix(4, 0.5);
  EXPECT_THROW(encoder.Forward(-1, matrix, 2, 2), std::out_of_range);
  EXPECT_THROW(encoder.Forward(16, matrix, 2, 2), std::out_of_range);
  EXPECT_THROW(encoder.Forward(0, matrix, 3, 2), std::invalid_argument);
  const auto traffic = encoder.EncodeTraffic(matrix, 2, 2);
  EXPECT_THROW(encoder.EncodeHead(16, traffic), std::out_of_range);
  EXPECT_THROW(encoder.EncodeTraffic(matrix, 3, 2), std::invalid_argument);
}

}  // namespace
}  // namespace deepod::core
