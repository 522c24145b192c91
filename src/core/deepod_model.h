#ifndef DEEPOD_CORE_DEEPOD_MODEL_H_
#define DEEPOD_CORE_DEEPOD_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/deepod_config.h"
#include "core/encoders.h"
#include "nn/module.h"
#include "sim/dataset.h"
#include "temporal/time_slot.h"
#include "traj/trajectory.h"
#include "util/thread_pool.h"

namespace deepod::util {
class WeightedDigraph;
}

namespace deepod::core {

// The DeepOD architecture (Fig. 3): the OD encoder M_O, the trajectory
// encoder M_T and the travel-time estimator M_E over shared road-segment
// and time-slot embedding matrices. Construction initialises the embedding
// matrices from unsupervised graph embeddings (Algorithm 1 lines 1-5)
// unless the config's ablations say otherwise.
//
// Travel times are modelled in normalised units y / time_scale (the mean
// training travel time); this keeps mainloss and auxiliaryloss on the same
// O(1) scale so the paper's weighted combination behaves as described.
class DeepOdModel : public nn::Module {
 public:
  // Training construction. `dataset` provides the road network, the speed
  // field, the temporal slotter and the training trajectories used for
  // edge-graph co-occurrence weights (and the time-scale default).
  DeepOdModel(const DeepOdConfig& config, const sim::Dataset& dataset);

  // Streamed-init training construction: identical to the constructor above
  // except the two trajectory-derived inputs — the co-occurrence edge graph
  // and the mean training travel time — are supplied by the caller (e.g.
  // accumulated in one pass over trip shards with road::EdgeGraphAccumulator)
  // instead of being read from dataset.train, which may therefore be empty.
  // RNG consumption order matches the in-memory constructor exactly, so
  // equal inputs produce bit-identical parameters (pinned by datagen_test).
  // `edge_graph` may be null only when config.road_init == kOneHot (the
  // in-memory path never builds the graph there either).
  DeepOdModel(const DeepOdConfig& config, const sim::Dataset& dataset,
              const util::WeightedDigraph* edge_graph, double time_scale);

  // Predict-only construction: the model needs only the road network (for
  // table sizes and route predictions) and a speed provider (may be null —
  // ocode falls back to zeros, as for the N-other ablation). No graph
  // embedding pre-training runs and the time scale stays 1.0: every
  // parameter, buffer and the time scale are expected to come from Load /
  // the artifact loader. This is the constructor the serving path uses to
  // stand a model up without any training dataset in memory.
  DeepOdModel(const DeepOdConfig& config, const road::RoadNetwork& network,
              const sim::SpeedProvider* speed);

  // --- Forward pieces ------------------------------------------------------

  // M_O: hidden representation `code` of an OD input (Eq. 19).
  nn::Tensor EncodeOd(const traj::OdInput& od);

  // M_T: spatio-temporal representation `stcode` of a trajectory (Eq. 17).
  nn::Tensor EncodeTrajectory(const traj::MatchedTrajectory& trajectory);

  // M_E: normalised travel-time estimate from `code` (Eq. 20).
  nn::Tensor EstimateFromCode(const nn::Tensor& code);

  // External-features encoding (§4.5): ocode for the OD's departure time and
  // weather. In serving conditions (inference mode, training off) it is
  // memoised on two levels. The weather-free traffic code (the CNN over the
  // speed matrix plus the matrix's mean and sd) is kept per speed-matrix
  // snapshot, so the CNN runs once per snapshot however many weathers ask.
  // The finished ocode is kept per (weather, snapshot) in a fixed
  // direct-mapped table, so a repeat costs one copy. Both levels are
  // deterministic given their keys, so hits are bit-identical to the
  // unmemoised forward. Outside serving conditions this is the plain
  // ExternalFeaturesEncoder::Forward, autograd graph and all.
  nn::Tensor EncodeExternal(const traj::OdInput& od);

  // Online estimation (Algorithm 1, Estimation): seconds for an OD input.
  // Runs graph-free (nn::InferenceGuard): identical values to the training
  // forward, no autograd allocations.
  double Predict(const traj::OdInput& od);

  // Batched estimation: one travel time per OD input, bit-identical to
  // calling Predict in a loop in every kernel mode (the batched MLP uses
  // AffineRows, which preserves Affine's per-row floating-point order —
  // including kSimd, where both ops run the same packed GEMV per row).
  // When `pool` is given the batch is split into contiguous chunks fanned
  // out over the pool's workers; chunking never changes results.
  std::vector<double> PredictBatch(std::span<const traj::OdInput> ods,
                                   util::ThreadPool* pool = nullptr);

  // Drops every memoised traffic code and ocode. The model clears the memo
  // itself on SetTraining, Load and SetSpeedProvider. Callers that mutate
  // model state behind the model's back (the trainer's checkpoint restore,
  // the artifact loader) or the matrices its speed provider serves
  // (RollingSpeedField::Publish) must clear it themselves.
  void ClearOcodeMemo();

  // Memoised-path counters since construction: ocodes served from the memo,
  // Eq. 18 heads run on a miss, and traffic CNNs run on a snapshot miss
  // (relaxed atomics; the unmemoised training path counts nothing). Plus
  // the traffic codes the memo holds now.
  struct OcodeMemoStats {
    uint64_t hits = 0;
    uint64_t head_runs = 0;
    uint64_t cnn_runs = 0;
    size_t traffic_codes = 0;
  };
  OcodeMemoStats ocode_memo_stats() const;

  // Bound on the memoised traffic codes: one week of 5-minute snapshots.
  static constexpr size_t kMaxTrafficCodes = 2016;

  // Swaps the external-feature speed source (e.g. a frozen
  // sim::SnapshotSpeedField from an artifact; null disables ocode). The
  // provider must outlive the model. Clears the ocode memo.
  void SetSpeedProvider(const sim::SpeedProvider* speed);
  const sim::SpeedProvider* speed_provider() const { return speed_; }

  // The pseudo spatio-temporal path PredictForRoute feeds to M_T: intervals
  // from free-flow expectations via the §2 linear interpolation. Exposed so
  // the serving layer and tests can inspect or reuse it.
  traj::MatchedTrajectory BuildRoutePseudoTrajectory(
      const traj::OdInput& od, const std::vector<size_t>& route_segments) const;

  // Extension: what-if ETA for a concrete candidate route. §4.4 notes that
  // generating `code` "is analogous to generating a proper trajectory"; this
  // runs the reverse direction explicitly — it builds a pseudo
  // spatio-temporal path for `route_segments` (intervals from free-flow
  // expectations via the §2 linear interpolation), encodes it with M_T and
  // reads the time from M_E. Requires supervise_stcode (the default), which
  // grounds M_E on trajectory representations during training. The route
  // must be a connected path from od.origin_segment to od.dest_segment.
  double PredictForRoute(const traj::OdInput& od,
                         const std::vector<size_t>& route_segments);

  // --- Training support ----------------------------------------------------

  // Combined per-sample loss (Algorithm 1 lines 7-12):
  //   w · ||code - stcode||₂ + (1-w) · |ŷ - y| / time_scale.
  // For the N-st ablation the auxiliary term is dropped.
  nn::Tensor SampleLoss(const traj::TripRecord& record);

  double time_scale() const { return time_scale_; }
  void set_time_scale(double scale) { time_scale_ = scale; }

  // Checkpointing. Save writes the tagged state-dict format (v2): every
  // parameter, every BatchNorm running-statistic buffer and the time scale,
  // each under its hierarchical name. Load restores by name (strict —
  // throws nn::SerializeError naming the first mismatching tensor on
  // truncation, corruption or a config mismatch; any other file, the v1
  // positional blob included, is kBadMagic). The model must be constructed
  // with the same config and network shape (same embedding table sizes)
  // before Load.
  void Save(const std::string& path);
  void Load(const std::string& path);

  std::vector<nn::Tensor> Parameters() override;
  void AppendState(const std::string& prefix, nn::StateDict& out) override;
  void SetTraining(bool training) override;

  const DeepOdConfig& config() const { return config_; }
  nn::Embedding& road_embedding() { return *road_embedding_; }
  nn::Embedding& time_slot_embedding() { return *time_slot_embedding_; }

 private:
  // Writes the z9 feature vector of `od` (Eq. 19 input) into row[0..z9_dim):
  // the exact doubles EncodeOd's ConcatVec would produce. Callers must hold
  // an inference guard when the ocode memo should engage.
  void FillOdFeatureRow(const traj::OdInput& od, double* row);

  // The memo engages only in serving conditions: no autograd (a memoised
  // code has no graph to offer) and training off (a training-mode forward
  // updates BatchNorm running statistics, a side effect a hit would skip).
  bool OcodeMemoEngaged() const;
  // Writes the memoised-path ocode of `od` into out[0..dm6). Requires a
  // speed provider and OcodeMemoEngaged(); a hit allocates nothing.
  void FillMemoisedOcode(const traj::OdInput& od, double* out);
  size_t z9_dim() const {
    return config_.ds * 2 + config_.dt + config_.dm6 + 3;
  }

  // Shared tail of both constructors: builds the module tree (no embedding
  // pre-training; the training constructor runs that first).
  void BuildModules(util::Rng& rng);

  DeepOdConfig config_;
  const road::RoadNetwork& network_;
  const sim::SpeedProvider* speed_;  // may be null (no external features)
  temporal::TimeSlotter slotter_;
  double time_scale_ = 1.0;

  // ocode memo (see EncodeExternal). Level 1 maps a snapshot index to its
  // traffic code (dtraf doubles, then mean and sd). A frozen speed field
  // clamps to its stored snapshots, so this stays at their count;
  // kMaxTrafficCodes only matters for a provider whose snapshot times are
  // unbounded, and past it the level is cleared. Level 2 is kOcodeSlots
  // direct-mapped ocodes indexed by snapshot * 16 + weather, so 16
  // consecutive snapshots in every weather never evict each other, and a
  // slot's weather is its index mod 16. Every clear bumps the generation;
  // a miss computed under an older generation is returned but not stored.
  static constexpr size_t kOcodeSlots = 256;
  struct OcodeSlot {
    int64_t snapshot = 0;
    bool filled = false;
  };
  mutable std::mutex ocode_memo_mu_;
  uint64_t ocode_memo_generation_ = 0;
  std::unordered_map<int64_t, std::vector<double>> traffic_codes_;
  std::vector<OcodeSlot> ocode_slots_;   // kOcodeSlots, sized on first use
  std::vector<double> ocode_slot_data_;  // kOcodeSlots x dm6
  std::atomic<uint64_t> ocode_hits_{0};
  std::atomic<uint64_t> ocode_head_runs_{0};
  std::atomic<uint64_t> ocode_cnn_runs_{0};

  std::unique_ptr<nn::Embedding> road_embedding_;       // Ws
  std::unique_ptr<nn::Embedding> time_slot_embedding_;  // Wt
  std::unique_ptr<TrajectoryEncoder> trajectory_encoder_;
  std::unique_ptr<ExternalFeaturesEncoder> external_encoder_;
  std::unique_ptr<nn::Mlp2> mlp1_;  // Eq. 19: Z9 -> code
  std::unique_ptr<nn::Mlp2> mlp2_;  // Eq. 20: code -> y
};

}  // namespace deepod::core

#endif  // DEEPOD_CORE_DEEPOD_MODEL_H_
