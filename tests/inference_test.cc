// Serving-path contracts (DESIGN.md "Serving path"):
//  - inference mode (nn::InferenceGuard) changes no forward value: Predict,
//    PredictBatch and PredictForRoute are bit-identical to the training-mode
//    forward in every kernel tier, and PredictBatch equals a per-query
//    Predict loop regardless of batching or thread fan-out;
//  - inference-mode op results are graph-free leaves;
//  - AffineRows (the batched-MLP building block) matches per-row Affine
//    bit-for-bit and passes gradient checks;
//  - the sharded LRU cache evicts in LRU order, keys exactly, and keeps
//    consistent hit/miss counts under concurrency;
//  - EtaService serves Predict's numbers through its cache and exports
//    registry-backed stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "core/deepod_model.h"
#include "nn/gradcheck.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "road/routing.h"
#include "serve/eta_service.h"
#include "sim/dataset.h"
#include "sim/rolling_speed_field.h"
#include "util/lru_cache.h"
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

core::DeepOdConfig TinyConfig() {
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
  config.epochs = 1;
  config.batch_size = 8;
  return config;
}

// The training-mode forward: EncodeOd + EstimateFromCode outside any
// InferenceGuard builds the full autograd graph — exactly what Predict did
// before the inference mode existed.
double TrainingModePredict(core::DeepOdModel& model, const traj::OdInput& od) {
  return model.EstimateFromCode(model.EncodeOd(od)).item() *
         model.time_scale();
}

// --- Inference mode: values are bit-identical --------------------------------

TEST(InferenceModeTest, PredictMatchesTrainingForwardBitForBit) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  for (const nn::KernelMode mode :
       {nn::KernelMode::kLegacy, nn::KernelMode::kBlocked,
        nn::KernelMode::kVector}) {
    nn::KernelModeScope scope(mode);
    for (size_t i = 0; i < std::min<size_t>(10, TinyDataset().test.size());
         ++i) {
      const auto& od = TinyDataset().test[i].od;
      EXPECT_EQ(model.Predict(od), TrainingModePredict(model, od));
    }
  }
}

TEST(InferenceModeTest, PredictBatchEqualsPerQueryLoop) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < std::min<size_t>(17, TinyDataset().test.size()); ++i) {
    ods.push_back(TinyDataset().test[i].od);
  }
  util::ThreadPool pool(4);
  for (const nn::KernelMode mode :
       {nn::KernelMode::kLegacy, nn::KernelMode::kBlocked,
        nn::KernelMode::kVector}) {
    nn::KernelModeScope scope(mode);
    std::vector<double> loop;
    for (const auto& od : ods) loop.push_back(model.Predict(od));
    // Serial batch, odd split sizes, and the thread fan-out must all
    // reproduce the per-query numbers exactly.
    EXPECT_EQ(model.PredictBatch(ods), loop);
    const auto head = model.PredictBatch({ods.data(), 5});
    EXPECT_TRUE(std::equal(head.begin(), head.end(), loop.begin()));
    EXPECT_EQ(model.PredictBatch(ods, &pool), loop);
  }
}

TEST(InferenceModeTest, PredictForRouteMatchesTrainingForward) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  const auto& net = TinyDataset().network;
  size_t checked = 0;
  for (const auto& trip : TinyDataset().test) {
    std::vector<size_t> route = {trip.od.origin_segment};
    const auto connecting = road::ShortestRoute(
        net, net.segment(trip.od.origin_segment).to,
        net.segment(trip.od.dest_segment).from, road::FreeFlowCost);
    for (size_t sid : connecting.segment_ids) route.push_back(sid);
    route.push_back(trip.od.dest_segment);
    route.erase(std::unique(route.begin(), route.end()), route.end());
    if (!road::IsConnectedPath(net, route)) continue;
    const auto pseudo = model.BuildRoutePseudoTrajectory(trip.od, route);
    const double reference =
        model.EstimateFromCode(model.EncodeTrajectory(pseudo)).item() *
        model.time_scale();
    EXPECT_EQ(model.PredictForRoute(trip.od, route), reference);
    if (++checked == 5) break;
  }
  EXPECT_GT(checked, 0u);
}

// --- ocode memo -----------------------------------------------------------

// One departure (so one speed snapshot) in each of the 16 weathers.
std::vector<traj::OdInput> AllWeathers(const traj::OdInput& od) {
  std::vector<traj::OdInput> ods;
  for (int w = 0;
       w < static_cast<int>(core::ExternalFeaturesEncoder::kNumWeatherTypes);
       ++w) {
    ods.push_back(od);
    ods.back().weather_type = w;
  }
  return ods;
}

TEST(OcodeMemoTest, ColdWarmAndUnmemoisedAreBitIdenticalInEveryTier) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  const auto ods = AllWeathers(TinyDataset().test[0].od);
  for (const nn::KernelMode mode :
       {nn::KernelMode::kBlocked, nn::KernelMode::kSimd,
        nn::KernelMode::kLegacy}) {
    nn::KernelModeScope scope(mode);
    model.ClearOcodeMemo();
    const std::vector<double> cold = model.PredictBatch(ods);
    const std::vector<double> warm = model.PredictBatch(ods);
    EXPECT_EQ(warm, cold);
    for (size_t i = 0; i < ods.size(); ++i) {
      // Outside an InferenceGuard the model runs the unsplit, memo-free
      // ExternalFeaturesEncoder::Forward.
      EXPECT_EQ(model.EncodeExternal(ods[i]).data(),
                [&] {
                  const nn::InferenceGuard guard;
                  return model.EncodeExternal(ods[i]).data();
                }());
      EXPECT_EQ(cold[i], TrainingModePredict(model, ods[i]));
    }
  }
  // Snapshots 16 apart share a slot in every weather; each keeps its own
  // ocode however the two alternate.
  const double ss = TinyDataset().speed_matrices->snapshot_seconds();
  std::vector<traj::OdInput> apart;
  for (int k = 0; k < 4; ++k) {
    traj::OdInput od = ods[3];
    od.departure_time += 16.0 * ss * static_cast<double>(k % 2);
    apart.push_back(od);
  }
  const std::vector<double> etas = model.PredictBatch(apart);
  EXPECT_NE(etas[0], etas[1]);
  for (size_t i = 0; i < apart.size(); ++i) {
    EXPECT_EQ(etas[i], TrainingModePredict(model, apart[i]));
  }
}

TEST(OcodeMemoTest, CnnRunsOncePerSnapshotAcrossWeathers) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  const auto& od = TinyDataset().test[0].od;
  const double ss = TinyDataset().speed_matrices->snapshot_seconds();
  std::vector<traj::OdInput> ods = AllWeathers(od);
  for (traj::OdInput later : AllWeathers(od)) {
    later.departure_time += ss;  // the next snapshot
    ods.push_back(later);
  }
  model.PredictBatch(ods);
  auto stats = model.ocode_memo_stats();
  EXPECT_EQ(stats.cnn_runs, 2u);
  EXPECT_EQ(stats.head_runs, 32u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.traffic_codes, 2u);

  model.PredictBatch(ods);
  stats = model.ocode_memo_stats();
  EXPECT_EQ(stats.cnn_runs, 2u);
  EXPECT_EQ(stats.head_runs, 32u);
  EXPECT_EQ(stats.hits, 32u);

  // The training path neither reads nor fills the memo.
  TrainingModePredict(model, od);
  EXPECT_EQ(model.ocode_memo_stats().cnn_runs, 2u);
  model.ClearOcodeMemo();
  EXPECT_EQ(model.ocode_memo_stats().traffic_codes, 0u);
}

TEST(OcodeMemoTest, PublishThenBumpEpochServesTheNewMatrix) {
  const auto& dataset = TinyDataset();
  core::DeepOdModel model(TinyConfig(), dataset);
  model.SetTraining(false);
  const traj::OdInput od = dataset.test[0].od;
  // No baseline and nothing published: a flat matrix, keyed by the same
  // snapshot index the published one will have.
  sim::RollingSpeedField rolling(dataset.network, 200.0, 300.0);
  model.SetSpeedProvider(&rolling);
  serve::EtaService service(model, serve::EtaServiceOptions{});
  const auto encode = [&model, &od] {
    const nn::InferenceGuard guard;
    return model.EncodeExternal(od).data();
  };
  const double before = service.Estimate(od);
  const std::vector<double> stale = encode();
  const double snapshot = rolling.SnapshotTime(od.departure_time);

  std::vector<sim::TripObservation> observations;
  for (const auto& segment : dataset.network.segments()) {
    observations.push_back({segment.id, od.departure_time, 2.0});
  }
  rolling.Ingest({observations.data(), observations.size()});
  ASSERT_GT(rolling.Publish(), 0u);
  service.BumpEpoch();
  ASSERT_EQ(rolling.SnapshotTime(od.departure_time), snapshot);

  const std::vector<double> fresh = encode();
  EXPECT_NE(fresh, stale);
  EXPECT_EQ(fresh, model.EncodeExternal(od).data());  // memo-free forward
  const double after = service.Estimate(od);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, TrainingModePredict(model, od));
}

TEST(OcodeMemoTest, StaysBoundedOverUnboundedSnapshots) {
  // A rolling field with no baseline and nothing published keys every
  // departure by its own snapshot, so the snapshot count is unbounded.
  const auto& dataset = TinyDataset();
  core::DeepOdModel model(TinyConfig(), dataset);
  model.SetTraining(false);
  sim::RollingSpeedField rolling(dataset.network, 200.0, 300.0);
  model.SetSpeedProvider(&rolling);
  std::vector<traj::OdInput> ods;
  traj::OdInput od = dataset.test[0].od;
  const size_t snapshots = core::DeepOdModel::kMaxTrafficCodes + 300;
  for (size_t i = 0; i < snapshots; ++i) {
    od.departure_time = 300.0 * static_cast<double>(i) + 17.0;
    od.weather_type = static_cast<int>(i % 16);
    ods.push_back(od);
  }
  const std::vector<double> etas = model.PredictBatch(ods);
  const auto stats = model.ocode_memo_stats();
  EXPECT_EQ(stats.cnn_runs, snapshots);
  EXPECT_LE(stats.traffic_codes, core::DeepOdModel::kMaxTrafficCodes);
  EXPECT_GT(stats.traffic_codes, 0u);
  for (size_t i = 0; i < ods.size(); i += 97) {
    EXPECT_EQ(etas[i], TrainingModePredict(model, ods[i]));
  }
}

TEST(OcodeMemoTest, ConcurrentBatchesAndClearsMatchSerialAnswers) {
  // Executors share one model and its memo; concurrent hits, misses and
  // clears must never hand out another key's ocode.
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  const double ss = TinyDataset().speed_matrices->snapshot_seconds();
  std::vector<traj::OdInput> ods;
  for (size_t i = 0; i < 40; ++i) {
    traj::OdInput od = TinyDataset().test[i % TinyDataset().test.size()].od;
    od.departure_time += ss * static_cast<double>(i % 5);
    od.weather_type = static_cast<int>(i % 16);
    ods.push_back(od);
  }
  const std::vector<double> expected = model.PredictBatch(ods);
  model.ClearOcodeMemo();
  std::vector<std::thread> threads;
  std::vector<int> mismatches(3, 0);
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        if (model.PredictBatch(ods) != expected) ++mismatches[t];
      }
    });
  }
  threads.emplace_back([&model] {
    for (int round = 0; round < 20; ++round) model.ClearOcodeMemo();
  });
  for (auto& thread : threads) thread.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(InferenceModeTest, OpsUnderGuardProduceGraphFreeLeaves) {
  util::Rng rng(7);
  nn::Tensor w = nn::Tensor::Randn({4, 3}, rng);
  nn::Tensor x = nn::Tensor::Randn({3}, rng);
  nn::Tensor b = nn::Tensor::Randn({4}, rng);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  const nn::Tensor with_graph = nn::Affine(w, x, b);
  EXPECT_TRUE(static_cast<bool>(with_graph.impl()->backward_fn));
  EXPECT_FALSE(with_graph.impl()->parents.empty());
  {
    nn::InferenceGuard guard;
    EXPECT_FALSE(nn::GradEnabled());
    const nn::Tensor leaf = nn::Relu(nn::Affine(w, x, b));
    EXPECT_FALSE(static_cast<bool>(leaf.impl()->backward_fn));
    EXPECT_TRUE(leaf.impl()->parents.empty());
    EXPECT_FALSE(leaf.requires_grad());
    // Values are unchanged by the mode.
    const nn::Tensor again = nn::Affine(w, x, b);
    for (size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again.at(i), with_graph.at(i));
    }
    // Guards nest and restore.
    { nn::InferenceGuard inner; }
    EXPECT_FALSE(nn::GradEnabled());
  }
  EXPECT_TRUE(nn::GradEnabled());
}

// --- AffineRows: the batched-MLP building block ------------------------------

TEST(AffineRowsTest, MatchesPerRowAffineInEveryKernelMode) {
  util::Rng rng(31);
  const nn::Tensor x = nn::Tensor::Randn({5, 7}, rng);
  const nn::Tensor w = nn::Tensor::Randn({3, 7}, rng);
  const nn::Tensor b = nn::Tensor::Randn({3}, rng);
  for (const nn::KernelMode mode :
       {nn::KernelMode::kLegacy, nn::KernelMode::kBlocked,
        nn::KernelMode::kVector}) {
    nn::KernelModeScope scope(mode);
    const nn::Tensor batched = nn::AffineRows(x, w, b);
    for (size_t i = 0; i < 5; ++i) {
      const nn::Tensor row = nn::Affine(w, nn::Row(x, i), b);
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(batched.at(i, j), row.at(j));
      }
    }
  }
}

TEST(AffineRowsTest, PassesGradCheck) {
  util::Rng rng(32);
  nn::Tensor x = nn::Tensor::Randn({4, 5}, rng, 0.5);
  nn::Tensor w = nn::Tensor::Randn({3, 5}, rng, 0.5);
  nn::Tensor b = nn::Tensor::Randn({3}, rng, 0.5);
  for (auto* t : {&x, &w, &b}) t->set_requires_grad(true);
  auto loss = [&] { return nn::Sum(nn::Square(nn::AffineRows(x, w, b))); };
  const auto r = nn::CheckGradients(loss, {x, w, b});
  EXPECT_TRUE(r.ok) << "AffineRows max_abs_err=" << r.max_abs_error;
}

// --- Sharded LRU cache -------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard makes global order == shard order, so eviction is exact LRU.
  util::ShardedLruCache<int, int> cache(3, /*num_shards=*/1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  EXPECT_EQ(cache.Get(1).value(), 10);  // promote 1; LRU order now 2,3,1
  cache.Put(4, 40);                     // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1).value(), 10);
  EXPECT_EQ(cache.Get(3).value(), 30);
  EXPECT_EQ(cache.Get(4).value(), 40);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  util::ShardedLruCache<int, int> cache(2, 1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // refresh, not insert: 2 stays resident
  cache.Put(3, 30);  // evicts 2 (least recent), not 1
  EXPECT_EQ(cache.Get(1).value(), 11);
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(3).value(), 30);
}

TEST(LruCacheTest, CountsAreConsistentUnderConcurrency) {
  util::ShardedLruCache<int, int> cache(64, 8);
  util::ThreadPool pool(4);
  constexpr size_t kOpsPerTask = 2000;
  constexpr size_t kTasks = 4;
  pool.ParallelFor(kTasks, [&](size_t w) {
    util::Rng rng(100 + w);
    for (size_t i = 0; i < kOpsPerTask; ++i) {
      const int key = static_cast<int>(rng.UniformInt(uint64_t{128}));
      if (auto hit = cache.Get(key)) {
        EXPECT_EQ(*hit, key * 7);  // values never mix between keys
      } else {
        cache.Put(key, key * 7);
      }
    }
  });
  EXPECT_EQ(cache.hits() + cache.misses(), kTasks * kOpsPerTask);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_LE(cache.size(), 64u + 8u);  // per-shard rounding slack
}

// --- EtaService --------------------------------------------------------------

TEST(EtaServiceTest, KeyDistinguishesEveryKeyedField) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  serve::EtaServiceOptions options;
  serve::EtaService service(model, options);
  traj::OdInput od = TinyDataset().test[0].od;
  const auto base = service.MakeKey(od);
  auto differs = [&](const traj::OdInput& other) {
    const auto k = service.MakeKey(other);
    return !(k == base);
  };
  traj::OdInput v = od;
  v.origin_segment += 1;
  EXPECT_TRUE(differs(v));
  v = od;
  v.dest_segment += 1;
  EXPECT_TRUE(differs(v));
  v = od;
  v.departure_time += 2.0 * model.config().slot_seconds;  // different slot
  EXPECT_TRUE(differs(v));
  v = od;
  v.weather_type += 1;
  EXPECT_TRUE(differs(v));
  v = od;
  v.origin_ratio = od.origin_ratio < 0.5 ? 0.9 : 0.1;  // different bucket
  EXPECT_TRUE(differs(v));
  // Same slot + same ratio bucket shares the key.
  v = od;
  v.departure_time += 1e-3;
  EXPECT_FALSE(differs(v));
}

TEST(EtaServiceTest, EstimateServesPredictValuesAndCaches) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  serve::EtaServiceOptions options;
  serve::EtaService service(model, options);
  const auto& od = TinyDataset().test[0].od;
  const double expected = model.Predict(od);
  EXPECT_EQ(service.Estimate(od), expected);   // miss -> model
  EXPECT_EQ(service.Estimate(od), expected);   // hit -> cache
  const auto stats = service.StatsSnapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(EtaServiceTest, ExportsRegistryBackedStats) {
  core::DeepOdModel model(TinyConfig(), TinyDataset());
  model.SetTraining(false);
  serve::EtaServiceOptions options;
  serve::EtaService service(model, options);
  const auto& od = TinyDataset().test[0].od;
  service.Estimate(od);
  service.Estimate(od);

  const std::string json = service.ExportJson();
  EXPECT_NE(json.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/requests\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/cache_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/latency\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/batch_assembly\""), std::string::npos);

  // The model's ocode memo shows through the service's stats: the second
  // Estimate was a cache hit, so the model encoded once.
  EXPECT_NE(json.find("\"serve/ocode_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/ocode_traffic_codes\""), std::string::npos);

  const std::string prom = service.ExportPrometheus();
  EXPECT_NE(prom.find("deepod_serve_requests 2"), std::string::npos);
  EXPECT_NE(prom.find("deepod_serve_ocode_cnn_runs 1"), std::string::npos);
  EXPECT_NE(prom.find("deepod_serve_ocode_head_runs 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE deepod_serve_latency summary"),
            std::string::npos);

  // Stats are per-instance: a fresh service starts from zero even though
  // another service already answered queries in this process.
  serve::EtaService fresh(model, options);
  EXPECT_EQ(fresh.StatsSnapshot().requests, 0u);
  const auto stats = service.StatsSnapshot();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_GT(stats.p50_ms, 0.0);
}

}  // namespace
}  // namespace deepod
