#ifndef DEEPOD_SERVE_FLEET_ROUTER_H_
#define DEEPOD_SERVE_FLEET_ROUTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/od_oracle.h"
#include "baselines/path_tte.h"
#include "obs/metrics.h"
#include "road/road_network.h"
#include "serve/drift_monitor.h"
#include "serve/eta_service.h"
#include "serve/server/frame.h"
#include "serve/stats.h"
#include "sim/rolling_speed_field.h"
#include "traj/trajectory.h"

namespace deepod::serve {

// What a fleet shard does when its learned model cannot (or should not)
// answer a request — the shard is cold (no artifact loaded yet), the
// admission queue sheds, or the OD pair is out-of-distribution for the
// city's training data.
enum class FallbackPolicy : uint8_t {
  // No fallback tier: cold requests get a typed kShardCold rejection, shed
  // requests their shed status, OOD requests the model's extrapolation —
  // the policy of a single-city deployment (FleetRouter::ForArtifact).
  kModel = 0,
  // The oracle tier (OD histogram, else link-mean) answers on all three
  // triggers, tagged with the estimator that produced the ETA. Default.
  kOracle = 1,
  // Strictest: like kModel, and OOD requests are additionally rejected
  // with kInvalidRequest instead of extrapolated.
  kReject = 2,
};

const char* FallbackPolicyName(FallbackPolicy p);
// Parses "model" / "oracle" / "reject"; throws std::invalid_argument.
FallbackPolicy ParseFallbackPolicy(const std::string& name);

// One row of the fleet manifest (fleet.csv):
//
//   network_id,name,network,artifact,oracle,policy
//   1,xian,xian/network.csv,xian/model.artifact,xian/oracle.artifact,oracle
//
// `oracle` (a standalone oracle artifact, io::WriteOracleArtifact) and
// `policy` may be empty (no pre-model fallback / policy oracle). Relative
// paths resolve against the manifest's own directory.
struct FleetEntry {
  uint32_t network_id = 0;
  std::string name;
  std::string network_path;
  std::string artifact_path;
  std::string oracle_path;  // may be empty
  FallbackPolicy policy = FallbackPolicy::kOracle;
};

// Parses a fleet manifest. Throws std::runtime_error on a malformed file,
// a duplicate network_id or a duplicate name.
std::vector<FleetEntry> ReadFleetManifest(const std::string& path);

class FleetShard;

// A live speed field per warm shard (deepod_server --live-speed).
struct LiveSpeedOptions {
  double grid_m = 200.0;  // sim::DatasetConfig::speed_grid_m default
  sim::RollingSpeedField::Options field;
};

struct FleetRouterOptions {
  // Per-shard EtaService options. registry_prefix is overridden per city
  // ("serve/<name>/") so the merged stats export stays collision-free.
  EtaServiceOptions service;
  // Also watch every warm shard's artifact path and hot swap it on change.
  // Cold shards are watched either way (activation).
  bool watch = false;
  // Cadence of the artifact watcher's stat(2) sweep over the shards.
  std::chrono::milliseconds poll_interval{200};
  // Set: every shard that goes warm gets a RollingSpeedField over its
  // network, fed by ObserveTrip frames (FleetShard::rolling_field) and
  // served by its model and every model swapped in after it.
  std::optional<LiveSpeedOptions> live_speed;
  // Every shard's drift monitor. registry_prefix is overridden per city
  // ("drift/<name>/").
  DriftMonitorOptions drift;
  // Invoked on the loading thread each time a cold shard goes warm
  // (deepod_server prints its operator-visible activation line here).
  std::function<void(const FleetShard&)> on_activate;
  // Invoked on the watcher thread after a new artifact for a warm shard
  // loaded and validated, right before it goes live.
  std::function<void(const FleetShard&)> on_reload;
  // Invoked when a shard's drift monitor fires its retrain trigger, on the
  // observing thread; must not block.
  std::function<void(const FleetShard&, double rolling_mae)> on_drift_trigger;
};

// Identity of an artifact file's contents as far as stat(2) can see: a
// change in any field marks a new candidate; ENOENT folds into !exists.
struct ArtifactSig {
  bool exists = false;
  uint64_t size = 0;
  uint64_t inode = 0;
  int64_t mtime_ns = 0;
  bool operator==(const ArtifactSig&) const = default;
};

// One city of the fleet: its road network, its fallback estimators, its
// drift monitor and — once an artifact loads — its EtaService shard (own
// ServingState, cache epoch and obs registry; with live speed, its
// RollingSpeedField). Created cold when the artifact is missing or
// unreadable at startup; the router's artifact watcher brings it warm the
// moment a loadable artifact appears and, in watch mode, hot swaps every
// later one. A shard never goes warm → cold.
class FleetShard {
 public:
  FleetShard(FleetEntry entry, obs::Registry& fleet_registry,
             const FleetRouterOptions& options);

  uint32_t network_id() const { return entry_.network_id; }
  const std::string& name() const { return entry_.name; }
  const std::string& artifact_path() const { return entry_.artifact_path; }
  FallbackPolicy policy() const { return entry_.policy; }
  const road::RoadNetwork& network() const { return network_; }
  size_t num_segments() const { return network_.num_segments(); }

  // The live service, or null while cold. The pointee stays valid for the
  // life of the router once published.
  std::shared_ptr<EtaService> service() const;
  bool warm() const { return service() != nullptr; }

  // Answer from the fallback tier: the OD-histogram oracle when present,
  // else the link-mean estimator; nullopt when the shard has neither (the
  // caller rejects). Cheap enough for a connection thread.
  struct Fallback {
    double eta = 0.0;
    net::Estimator estimator = net::Estimator::kOracle;
  };
  std::optional<Fallback> FallbackEstimate(const traj::OdInput& od) const;

  // False only when an oracle exists and has never seen the OD's cell pair.
  bool InDistribution(const traj::OdInput& od) const;

  // Per-city response accounting (names "fleet/<name>/...").
  void CountModelAnswer() { model_answers_.Add(); }
  void CountFallbackAnswer() { oracle_answers_.Add(); }
  void CountShedToOracle() { shed_to_oracle_.Add(); }
  void CountOodToOracle() { ood_to_oracle_.Add(); }
  void CountRejected() { rejected_.Add(); }

  // Rolling MAE of re-scored ObserveTrip trips ("drift/<name>/*").
  DriftMonitor& drift() { return drift_; }

  // The live speed field ObserveTrip observations are ingested into; null
  // without live speed or while cold.
  sim::RollingSpeedField* rolling_field() const;

  // Folds the ingested observations into the served matrices and, when
  // anything new arrived, bumps the service's cache epoch (which also drops
  // the model's ocode memo). Returns whether it published. No-op without a
  // live speed field.
  bool PublishLiveSpeed();

 private:
  friend class FleetRouter;

  // Installs the fallback estimators (idempotent: first non-null wins —
  // oracle tables are static per city).
  void AdoptEstimators(std::unique_ptr<baselines::OdOracle> oracle,
                       std::unique_ptr<baselines::LinkMeanEstimator> links);

  FleetEntry entry_;
  road::RoadNetwork network_;
  DriftMonitor drift_;

  // Written once, under mu_, when the shard goes warm. Declared in
  // destruction order: every model reading the rolling field goes before
  // the field, whose baseline points into the pinned construction state's
  // bundle.
  mutable std::mutex mu_;
  std::shared_ptr<const ServingState> pinned_state_;  // live speed only
  std::unique_ptr<sim::RollingSpeedField> rolling_;
  std::shared_ptr<EtaService> service_;  // null while cold
  std::shared_ptr<const baselines::OdOracle> oracle_;
  std::shared_ptr<const baselines::LinkMeanEstimator> link_mean_;

  obs::Counter& model_answers_;
  obs::Counter& oracle_answers_;
  obs::Counter& shed_to_oracle_;
  obs::Counter& ood_to_oracle_;
  obs::Counter& rejected_;
  obs::Counter& oracle_failures_;
  obs::Gauge& cold_;

  // The artifact watcher's instruments ("reload/<name>/*") and bookkeeping
  // (the latter under the router's load_mu_).
  obs::Counter& polls_;
  obs::Counter& reloads_;
  obs::Counter& failures_;
  obs::Gauge& healthy_;
  obs::Histogram& load_seconds_;
  ArtifactSig attempted_sig_;  // last signature loaded or rejected
  ArtifactSig pending_sig_;    // changed signature waiting to hold steady
  int pending_polls_ = 0;
};

// The multi-city front of the serving stack: owns one FleetShard per
// manifest row, resolves requests by wire network_id, and runs the one
// artifact watcher of the fleet. The network server (serve/server) serves
// every deployment through a FleetRouter — a single city is a one-row
// fleet (ForArtifact); the admission queue stays shared across cities (one
// PopBatch scheduler, per-tenant quotas unchanged) and the executor groups
// each drained batch by shard.
//
// Loading at construction: every network.csv is read eagerly (a missing
// network is a hard error — routing is impossible without it); every
// oracle artifact given in the manifest is loaded eagerly (a failure counts
// in "fleet/<name>/oracle_failures"); every model artifact is *attempted* —
// a missing or corrupt artifact leaves that shard cold (gauge
// "fleet/<name>/cold" = 1, a failed load counted in
// "reload/<name>/failures") and the rest of the fleet serving, which is the
// partial-failure behaviour the oracle tier exists for.
//
// The artifact watcher: one thread sweeps the shards every poll_interval,
// polling cold shards always and warm ones in watch mode. A changed stat
// signature that holds for two consecutive polls is loaded, validated
// (network shape and network_id stamp) and published off the request path:
// a cold shard activates, a warm one swaps state (RCU epoch flip). A
// rejected artifact leaves the shard as it was and its signature is
// remembered, so only different bytes get a new attempt. The thread runs
// only when watching or when some shard starts cold.
class FleetRouter {
 public:
  FleetRouter(std::vector<FleetEntry> entries,
              const FleetRouterOptions& options);
  ~FleetRouter();

  // The one-row fleet of a single-city deployment (deepod_server
  // --artifact): row "default", routed by the artifact's own network_id
  // stamp, no oracle artifact, policy kModel. Unlike a manifest row, the
  // artifact must load: a single city has nothing to fall back on, so a
  // corrupt or mismatched artifact throws nn::SerializeError (a missing
  // network file std::runtime_error).
  static std::unique_ptr<FleetRouter> ForArtifact(
      const std::string& artifact_path, const std::string& network_path,
      const FleetRouterOptions& options);

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  // Shard for a wire network_id; null = unknown id (typed rejection).
  FleetShard* Resolve(uint32_t network_id);

  const std::vector<std::unique_ptr<FleetShard>>& shards() const {
    return shards_;
  }
  size_t WarmCount() const;

  // One synchronous watcher sweep that skips the stability guard but not
  // the rejected-signature memory (tests). Returns the number of shards
  // that published a new artifact.
  size_t PollNow();

  // Stops the artifact watcher (idempotent).
  void Stop();

  // Adds every warm shard's service to `sources->services`, and the
  // router's registry plus every shard's drift monitor registry to
  // `sources->extra`, for the merged stats export.
  void AppendStatsSources(StatsSources* sources) const;

  const obs::Registry& registry() const { return registry_; }

 private:
  explicit FleetRouter(const FleetRouterOptions& options);

  // Reads the row's network and appends its (cold) shard.
  FleetShard& AddShard(FleetEntry entry);
  // Starts the artifact watcher when watching or when some shard is cold.
  void StartWatcher();
  void WatchLoop();
  // Polls every watched shard once; `force` skips the stability guard.
  // Returns the number of shards that published.
  size_t Sweep(bool force);
  // The one artifact load: records `sig` as attempted, loads the shard's
  // artifact, checks its network_id stamp (or, with `adopt_stamp`, routes
  // the shard by it) and publishes it: Activate on a cold shard, SwapState
  // on a warm one. Throws (nn::SerializeError on a corrupt or mismatched
  // file) and leaves the shard untouched on failure.
  void Load(FleetShard& shard, const ArtifactSig& sig, bool adopt_stamp);
  // Load, with a failure counted and remembered instead of thrown.
  bool TryLoad(FleetShard& shard, const ArtifactSig& sig);
  // Builds and publishes the warm shard around a loaded state: fallback
  // estimators, live speed field, service (cold → warm).
  void Activate(FleetShard& shard, std::shared_ptr<ServingState> state);

  FleetRouterOptions options_;
  std::vector<std::unique_ptr<FleetShard>> shards_;

  obs::Registry registry_;

  std::mutex load_mu_;  // serialises sweeps and every shard's watcher state

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread watcher_;
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_FLEET_ROUTER_H_
