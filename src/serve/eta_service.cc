#include "serve/eta_service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "serve/stats.h"

namespace deepod::serve {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

EtaService::EtaService(core::DeepOdModel& model,
                       const EtaServiceOptions& options)
    : EtaService(BorrowServingState(model), options) {}

EtaService::EtaService(std::shared_ptr<ServingState> initial,
                       const EtaServiceOptions& options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      requests_(registry_.counter(options.registry_prefix + "requests")),
      hits_(registry_.counter(options.registry_prefix + "cache_hits")),
      misses_(registry_.counter(options.registry_prefix + "cache_misses")),
      batches_(registry_.counter(options.registry_prefix + "batches")),
      batched_requests_(
          registry_.counter(options.registry_prefix + "batched_requests")),
      swaps_(registry_.counter(options.registry_prefix + "swaps")),
      epoch_gauge_(registry_.gauge(options.registry_prefix + "epoch")),
      ocode_hits_(registry_.gauge(options.registry_prefix + "ocode_hits")),
      ocode_head_runs_(
          registry_.gauge(options.registry_prefix + "ocode_head_runs")),
      ocode_cnn_runs_(
          registry_.gauge(options.registry_prefix + "ocode_cnn_runs")),
      ocode_traffic_codes_(
          registry_.gauge(options.registry_prefix + "ocode_traffic_codes")),
      latency_(registry_.histogram(options.registry_prefix + "latency")),
      batch_assembly_(
          registry_.histogram(options.registry_prefix + "batch_assembly")),
      start_time_(std::chrono::steady_clock::now()) {
  if (!initial || initial->model == nullptr) {
    throw std::invalid_argument("EtaService: null serving state");
  }
  if (options_.ratio_bucket <= 0.0) options_.ratio_bucket = 0.05;
  initial->epoch = last_epoch_;  // construction epoch 0
  state_ = std::move(initial);
  epoch_gauge_.Set(0.0);
}

std::unique_ptr<EtaService> EtaService::FromArtifact(
    const std::string& artifact_path, const road::RoadNetwork& network,
    const EtaServiceOptions& options) {
  io::ArtifactOptions artifact_options;
  artifact_options.quant = options.quant;
  return std::make_unique<EtaService>(
      LoadServingState(artifact_path, network, artifact_options), options);
}

std::shared_ptr<const ServingState> EtaService::state() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

uint64_t EtaService::SwapState(std::shared_ptr<ServingState> fresh) {
  if (!fresh || fresh->model == nullptr) {
    throw std::invalid_argument("EtaService::SwapState: null serving state");
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  fresh->epoch = ++last_epoch_;
  state_ = std::move(fresh);
  swaps_.Add();
  epoch_gauge_.Set(static_cast<double>(state_->epoch));
  return state_->epoch;
}

uint64_t EtaService::BumpEpoch() {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto fresh = std::make_shared<ServingState>(*state_);
  fresh->epoch = ++last_epoch_;
  // The speed data the model reads changed under it: the memoised traffic
  // codes and ocodes are keyed by snapshot index, not by matrix content,
  // so both levels are stale.
  fresh->model->ClearOcodeMemo();
  state_ = std::move(fresh);
  epoch_gauge_.Set(static_cast<double>(state_->epoch));
  return state_->epoch;
}

void EtaService::PublishModelStats() const {
  // The gauges are registry-owned instruments; updating them does not
  // change the service.
  const core::DeepOdModel::OcodeMemoStats stats =
      state()->model->ocode_memo_stats();
  ocode_hits_.Set(static_cast<double>(stats.hits));
  ocode_head_runs_.Set(static_cast<double>(stats.head_runs));
  ocode_cnn_runs_.Set(static_cast<double>(stats.cnn_runs));
  ocode_traffic_codes_.Set(static_cast<double>(stats.traffic_codes));
}

OdCacheKey EtaService::MakeKeyForState(const traj::OdInput& od,
                                       const ServingState& state) const {
  OdCacheKey key;
  key.segments = (static_cast<uint64_t>(od.origin_segment) << 32) |
                 static_cast<uint64_t>(od.dest_segment & 0xffffffffull);
  const int64_t slot = state.slotter.Slot(od.departure_time);
  const uint64_t node =
      static_cast<uint64_t>(state.slotter.WeeklyNode(slot)) & 0xffffffffull;
  const auto bucket = [this](double ratio) -> uint64_t {
    const double clamped = std::clamp(ratio, 0.0, 1.0);
    return static_cast<uint64_t>(clamped / options_.ratio_bucket) & 0xffull;
  };
  key.context = (node << 32) |
                (static_cast<uint64_t>(static_cast<uint32_t>(od.weather_type) &
                                       0xffffu)
                 << 16) |
                (bucket(od.origin_ratio) << 8) | bucket(od.dest_ratio);
  key.epoch = state.epoch;
  return key;
}

OdCacheKey EtaService::MakeKey(const traj::OdInput& od) const {
  return MakeKeyForState(od, *state());
}

void EtaService::RecordCompletion(
    std::chrono::steady_clock::time_point start) {
  latency_.Observe(SecondsSince(start, std::chrono::steady_clock::now()));
  requests_.Add();
}

double EtaService::Estimate(const traj::OdInput& od) {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const ServingState> state = this->state();
  const OdCacheKey key = MakeKeyForState(od, *state);
  if (auto cached = cache_.Get(key)) {
    hits_.Add();
    RecordCompletion(start);
    return *cached;
  }
  misses_.Add();
  double eta;
  if (options_.kernel_mode.has_value()) {
    const nn::KernelModeScope scope(*options_.kernel_mode);
    eta = state->model->Predict(od);
  } else {
    eta = state->model->Predict(od);
  }
  cache_.Put(key, eta);
  RecordCompletion(start);
  return eta;
}

std::vector<double> EtaService::EstimateBatch(
    std::span<const traj::OdInput> ods, util::ThreadPool* pool) {
  if (ods.empty()) return {};
  const auto start = std::chrono::steady_clock::now();
  // One state snapshot answers the whole batch: a concurrent SwapState
  // never splits it across models or cache generations.
  const std::shared_ptr<const ServingState> state = this->state();
  std::vector<double> out(ods.size(), 0.0);
  std::vector<size_t> miss_index;
  std::vector<traj::OdInput> miss_ods;
  std::vector<OdCacheKey> miss_keys;
  for (size_t i = 0; i < ods.size(); ++i) {
    const OdCacheKey key = MakeKeyForState(ods[i], *state);
    if (auto cached = cache_.Get(key)) {
      hits_.Add();
      out[i] = *cached;
    } else {
      misses_.Add();
      miss_index.push_back(i);
      miss_ods.push_back(ods[i]);
      miss_keys.push_back(key);
    }
  }
  batch_assembly_.Observe(
      SecondsSince(start, std::chrono::steady_clock::now()));
  if (!miss_ods.empty()) {
    std::vector<double> etas;
    if (options_.kernel_mode.has_value()) {
      const nn::KernelModeScope scope(*options_.kernel_mode);
      etas = state->model->PredictBatch(miss_ods, pool);
    } else {
      etas = state->model->PredictBatch(miss_ods, pool);
    }
    for (size_t m = 0; m < miss_index.size(); ++m) {
      cache_.Put(miss_keys[m], etas[m]);
      out[miss_index[m]] = etas[m];
    }
  }
  // Per-request latency is the whole batch's wall time — that is what a
  // caller of the batch actually waited.
  for (size_t i = 0; i < ods.size(); ++i) RecordCompletion(start);
  batches_.Add();
  batched_requests_.Add(ods.size());
  return out;
}

EtaServiceStats EtaService::StatsSnapshot() const {
  EtaServiceStats stats;
  stats.requests = requests_.Value();
  stats.cache_hits = hits_.Value();
  stats.cache_misses = misses_.Value();
  stats.batches = batches_.Value();
  const uint64_t batched = batched_requests_.Value();
  stats.avg_batch_size =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(batched) / static_cast<double>(stats.batches);
  stats.swaps = swaps_.Value();
  stats.epoch = state()->epoch;
  stats.p50_ms = latency_.Percentile(0.50) * 1e3;
  stats.p95_ms = latency_.Percentile(0.95) * 1e3;
  stats.p99_ms = latency_.Percentile(0.99) * 1e3;
  const double elapsed =
      SecondsSince(start_time_, std::chrono::steady_clock::now());
  stats.qps = elapsed > 0.0 ? static_cast<double>(stats.requests) / elapsed
                            : 0.0;
  return stats;
}

std::string EtaService::ExportJson() const {
  StatsSources sources;
  sources.services.push_back(this);
  return ExportStatsJson(sources);
}

std::string EtaService::ExportPrometheus() const {
  PublishModelStats();
  return registry_.ExportPrometheus(options_.registry_prefix);
}

}  // namespace deepod::serve
