// Determinism and correctness contract of the data-parallel trainer
// (DESIGN.md "Threading model"):
//  - num_threads == 1 must stay bit-identical to the pre-threading serial
//    trainer (which the kLegacy kernel tier preserves exactly);
//  - a fixed num_threads > 1 must be deterministic run-to-run;
//  - the blocked / vectorised kernel tiers must pass finite-difference
//    gradient checks (odd sizes so the unrolled tails are exercised).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "nn/gradcheck.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "sim/dataset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepod {
namespace {

const sim::Dataset& TinyDataset() {
  static const sim::Dataset* dataset = [] {
    sim::DatasetConfig config;
    config.city = road::XianSimConfig();
    config.city.rows = 6;
    config.city.cols = 6;
    config.trips_per_day = 12;
    config.num_days = 15;
    config.seed = 23;
    return new sim::Dataset(sim::BuildDataset(config));
  }();
  return *dataset;
}

core::DeepOdConfig TinyConfig(size_t num_threads) {
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
  config.epochs = 1;
  config.batch_size = 8;
  config.num_threads = num_threads;
  return config;
}

struct TrainOutcome {
  double final_val = 0.0;
  std::vector<uint8_t> state;  // serialised state dict: parameters + buffers
};

TrainOutcome TrainOnce(size_t num_threads) {
  core::DeepOdModel model(TinyConfig(num_threads), TinyDataset());
  core::DeepOdTrainer trainer(model, TinyDataset());
  TrainOutcome out;
  out.final_val = trainer.Train(nullptr, 1u << 30, 40);
  out.state = nn::SerializeStateDict(model.State());
  return out;
}

// --- num_threads == 1 keeps the pre-threading bits --------------------------

TEST(TrainerParallelTest, SingleThreadMatchesLegacySerialBitForBit) {
  // The default (blocked) kernel tier promises the exact floating-point
  // operation order of the seed implementation; training under it and under
  // the untouched legacy tier must therefore agree bit-for-bit.
  const TrainOutcome blocked = TrainOnce(1);
  nn::KernelModeScope legacy(nn::KernelMode::kLegacy);
  const TrainOutcome serial = TrainOnce(1);
  EXPECT_EQ(serial.final_val, blocked.final_val);
  EXPECT_EQ(serial.state, blocked.state);
}

// --- fixed thread count > 1 is deterministic --------------------------------

TEST(TrainerParallelTest, FourThreadsDeterministicAcrossRuns) {
  const TrainOutcome first = TrainOnce(4);
  const TrainOutcome second = TrainOnce(4);
  EXPECT_EQ(first.final_val, second.final_val);
  EXPECT_EQ(first.state, second.state);
  // Sanity: the parallel run trained to a comparable error, i.e. the merged
  // gradients are the real mini-batch gradients, not garbage.
  const TrainOutcome serial = TrainOnce(1);
  EXPECT_NEAR(first.final_val, serial.final_val,
              0.2 * serial.final_val + 1e-9);
}

// --- gradient checks for the optimised kernel tiers -------------------------

nn::Tensor MakeParam(std::vector<size_t> shape, util::Rng& rng) {
  nn::Tensor t = nn::Tensor::Randn(std::move(shape), rng, 0.5);
  t.set_requires_grad(true);
  return t;
}

void CheckKernelGradients(nn::KernelMode mode) {
  nn::KernelModeScope scope(mode);
  util::Rng rng(911);
  {
    // Odd inner/outer sizes exercise the unrolled-dot tails and the
    // partial j-blocks of the packed matmul.
    nn::Tensor a = MakeParam({5, 7}, rng);
    nn::Tensor b = MakeParam({7, 3}, rng);
    auto loss = [&] { return nn::Sum(nn::MatMul(a, b)); };
    const auto r = nn::CheckGradients(loss, {a, b});
    EXPECT_TRUE(r.ok) << "MatMul max_abs_err=" << r.max_abs_error;
  }
  {
    nn::Tensor w = MakeParam({5, 7}, rng);
    nn::Tensor x = MakeParam({7}, rng);
    nn::Tensor b = MakeParam({5}, rng);
    auto loss = [&] { return nn::Sum(nn::Affine(w, x, b)); };
    const auto r = nn::CheckGradients(loss, {w, x, b});
    EXPECT_TRUE(r.ok) << "Affine max_abs_err=" << r.max_abs_error;
  }
  {
    nn::Tensor in = MakeParam({2, 5, 6}, rng);
    nn::Tensor k = MakeParam({3, 2, 3, 3}, rng);
    auto loss = [&] { return nn::Sum(nn::Conv2d(in, k, 1, 1)); };
    const auto r = nn::CheckGradients(loss, {in, k});
    EXPECT_TRUE(r.ok) << "Conv2d max_abs_err=" << r.max_abs_error;
  }
}

TEST(TrainerParallelTest, BlockedKernelsPassGradCheck) {
  CheckKernelGradients(nn::KernelMode::kBlocked);
}

TEST(TrainerParallelTest, VectorKernelsPassGradCheck) {
  CheckKernelGradients(nn::KernelMode::kVector);
}

TEST(TrainerParallelTest, FusedLstmCellPassesGradCheck) {
  nn::KernelModeScope scope(nn::KernelMode::kVector);
  util::Rng rng(912);
  nn::Lstm lstm(5, 4, rng);  // kVector routes through LstmCellFused
  std::vector<nn::Tensor> inputs = {nn::Tensor::Randn({5}, rng, 0.5),
                                    nn::Tensor::Randn({5}, rng, 0.5),
                                    nn::Tensor::Randn({5}, rng, 0.5)};
  auto loss = [&] { return nn::Sum(nn::Square(lstm.Forward(inputs))); };
  const auto r = nn::CheckGradients(loss, lstm.Parameters());
  EXPECT_TRUE(r.ok) << "LstmCellFused max_abs_err=" << r.max_abs_error;
}

TEST(TrainerParallelTest, FusedLstmMatchesComposedForward) {
  util::Rng rng(913);
  nn::Lstm lstm(6, 5, rng);
  std::vector<nn::Tensor> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(nn::Tensor::Randn({6}, rng, 0.8));
  }
  const nn::Tensor composed = lstm.Forward(inputs);
  nn::KernelModeScope scope(nn::KernelMode::kVector);
  const nn::Tensor fused = lstm.Forward(inputs);
  ASSERT_EQ(fused.size(), composed.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused.at(i), composed.at(i), 1e-12);
  }
}

// --- thread pool basics ------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](size_t i) {
                                  if (i == 5) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ChunkRangePartitionsExactly) {
  size_t covered = 0;
  for (size_t w = 0; w < 4; ++w) {
    const auto [begin, end] = util::ThreadPool::ChunkRange(10, 4, w);
    EXPECT_LE(begin, end);
    covered += end - begin;
  }
  EXPECT_EQ(covered, 10u);
}

}  // namespace
}  // namespace deepod
