#include "serve/fleet_router.h"

#include <sys/stat.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/trip_io.h"
#include "nn/serialize.h"
#include "serve/serving_state.h"

namespace deepod::serve {
namespace {

// Stat signature of an artifact path (mirrors the ModelReloader's watcher:
// any field change marks a new candidate, ENOENT folds into exists=false).
FleetShard::FileSig StatPath(const std::string& path) {
  FleetShard::FileSig sig;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return sig;
  sig.exists = true;
  sig.size = static_cast<uint64_t>(st.st_size);
  sig.mtime_ns =
      static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
      static_cast<int64_t>(st.st_mtim.tv_nsec);
  return sig;
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

// Manifest paths resolve against the manifest's own directory, so a fleet
// tree stays relocatable (CI builds it under a temp dir).
std::string ResolvePath(const std::string& base_dir, const std::string& path) {
  if (path.empty() || path.front() == '/' || base_dir.empty()) return path;
  return base_dir + path;
}

DriftMonitorOptions ShardDriftOptions(const FleetRouterOptions& options,
                                      const std::string& name) {
  DriftMonitorOptions drift = options.drift;
  drift.registry_prefix = "drift/" + name + "/";
  return drift;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  // A trailing comma means a final empty field.
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

}  // namespace

const char* FallbackPolicyName(FallbackPolicy p) {
  switch (p) {
    case FallbackPolicy::kModel: return "model";
    case FallbackPolicy::kOracle: return "oracle";
    case FallbackPolicy::kReject: return "reject";
  }
  return "unknown";
}

FallbackPolicy ParseFallbackPolicy(const std::string& name) {
  if (name == "model") return FallbackPolicy::kModel;
  if (name == "oracle" || name.empty()) return FallbackPolicy::kOracle;
  if (name == "reject") return FallbackPolicy::kReject;
  throw std::invalid_argument("unknown fallback policy '" + name +
                              "' (want model | oracle | reject)");
}

std::vector<FleetEntry> ReadFleetManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("fleet manifest: cannot open " + path);
  const std::string base_dir = DirName(path);
  std::string line;
  if (!std::getline(in, line) ||
      line != "network_id,name,network,artifact,oracle,policy") {
    throw std::runtime_error(
        "fleet manifest: expected header "
        "'network_id,name,network,artifact,oracle,policy' in " +
        path);
  }
  std::vector<FleetEntry> entries;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitCsvLine(line);
    if (f.size() < 4 || f.size() > 6) {
      throw std::runtime_error("fleet manifest: line " +
                               std::to_string(line_no) + " has " +
                               std::to_string(f.size()) +
                               " fields (want 4-6)");
    }
    FleetEntry entry;
    try {
      entry.network_id = static_cast<uint32_t>(std::stoul(f[0]));
    } catch (const std::exception&) {
      throw std::runtime_error("fleet manifest: line " +
                               std::to_string(line_no) +
                               ": bad network_id '" + f[0] + "'");
    }
    entry.name = f[1];
    if (entry.name.empty()) {
      throw std::runtime_error("fleet manifest: line " +
                               std::to_string(line_no) + ": empty name");
    }
    entry.network_path = ResolvePath(base_dir, f[2]);
    entry.artifact_path = ResolvePath(base_dir, f[3]);
    if (f.size() >= 5) entry.oracle_path = ResolvePath(base_dir, f[4]);
    entry.policy = ParseFallbackPolicy(f.size() >= 6 ? f[5] : std::string());
    for (const FleetEntry& seen : entries) {
      if (seen.network_id == entry.network_id) {
        throw std::runtime_error("fleet manifest: duplicate network_id " +
                                 std::to_string(entry.network_id));
      }
      if (seen.name == entry.name) {
        throw std::runtime_error("fleet manifest: duplicate name '" +
                                 entry.name + "'");
      }
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    throw std::runtime_error("fleet manifest: no entries in " + path);
  }
  return entries;
}

// --- FleetShard -------------------------------------------------------------

FleetShard::FleetShard(FleetEntry entry, obs::Registry& fleet_registry,
                       const FleetRouterOptions& options)
    : entry_(std::move(entry)),
      network_(io::ReadNetworkCsv(entry_.network_path)),
      drift_(ShardDriftOptions(options, entry_.name),
             [this, on_trigger = options.on_drift_trigger](double mae) {
               if (on_trigger) on_trigger(*this, mae);
             }),
      model_answers_(
          fleet_registry.counter("fleet/" + entry_.name + "/model_answers")),
      oracle_answers_(
          fleet_registry.counter("fleet/" + entry_.name + "/oracle_answers")),
      shed_to_oracle_(
          fleet_registry.counter("fleet/" + entry_.name + "/shed_to_oracle")),
      ood_to_oracle_(
          fleet_registry.counter("fleet/" + entry_.name + "/ood_to_oracle")),
      rejected_(fleet_registry.counter("fleet/" + entry_.name + "/rejected")),
      activation_failures_(fleet_registry.counter(
          "fleet/" + entry_.name + "/activation_failures")),
      cold_(fleet_registry.gauge("fleet/" + entry_.name + "/cold")) {
  cold_.Set(1.0);
}

std::shared_ptr<EtaService> FleetShard::service() const {
  std::lock_guard<std::mutex> lock(mu_);
  return service_;
}

sim::RollingSpeedField* FleetShard::rolling_field() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rolling_.get();
}

bool FleetShard::PublishLiveSpeed() {
  sim::RollingSpeedField* rolling;
  std::shared_ptr<EtaService> service;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rolling = rolling_.get();
    service = service_;
  }
  if (rolling == nullptr || rolling->Publish() == 0) return false;
  service->BumpEpoch();
  return true;
}

std::optional<FleetShard::Fallback> FleetShard::FallbackEstimate(
    const traj::OdInput& od) const {
  std::shared_ptr<const baselines::OdOracle> oracle;
  std::shared_ptr<const baselines::LinkMeanEstimator> links;
  {
    std::lock_guard<std::mutex> lock(mu_);
    oracle = oracle_;
    links = link_mean_;
  }
  if (oracle != nullptr) {
    return Fallback{oracle->Predict(network_, od), net::Estimator::kOracle};
  }
  if (links != nullptr) {
    return Fallback{links->Predict(network_, od), net::Estimator::kLinkMean};
  }
  return std::nullopt;
}

bool FleetShard::InDistribution(const traj::OdInput& od) const {
  std::shared_ptr<const baselines::OdOracle> oracle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    oracle = oracle_;
  }
  // Without an oracle there is nothing to judge against: in-distribution.
  return oracle == nullptr || oracle->InDistribution(network_, od);
}

void FleetShard::AdoptEstimators(
    std::unique_ptr<baselines::OdOracle> oracle,
    std::unique_ptr<baselines::LinkMeanEstimator> links) {
  std::lock_guard<std::mutex> lock(mu_);
  if (oracle_ == nullptr && oracle != nullptr) oracle_ = std::move(oracle);
  if (link_mean_ == nullptr && links != nullptr) {
    link_mean_ = std::move(links);
  }
}

// --- FleetRouter ------------------------------------------------------------

FleetRouter::FleetRouter(const FleetRouterOptions& options)
    : options_(options) {}

FleetRouter::FleetRouter(std::vector<FleetEntry> entries,
                         const FleetRouterOptions& options)
    : options_(options) {
  if (entries.empty()) {
    throw std::invalid_argument("FleetRouter: empty fleet");
  }
  shards_.reserve(entries.size());
  for (FleetEntry& entry : entries) AddShard(std::move(entry));

  for (auto& shard : shards_) {
    // The standalone oracle artifact, when the manifest names one: this is
    // what lets a cold shard answer before any model was ever trained.
    if (!shard->entry_.oracle_path.empty()) {
      try {
        io::OracleBundle bundle =
            io::LoadOracleArtifact(shard->entry_.oracle_path);
        if (bundle.network_id != 0 &&
            bundle.network_id != shard->network_id()) {
          throw std::runtime_error(
              "oracle artifact network_id " +
              std::to_string(bundle.network_id) + " != shard " +
              std::to_string(shard->network_id()));
        }
        shard->AdoptEstimators(std::move(bundle.oracle),
                               std::move(bundle.link_mean));
      } catch (const std::exception&) {
        shard->activation_failures_.Add();
      }
    }
    // Eager model load; failure (missing file, corrupt artifact) leaves
    // the shard cold and the fleet serving.
    const FleetShard::FileSig sig = StatPath(shard->entry_.artifact_path);
    if (sig.exists) TryActivate(*shard, sig);
  }

  StartWatcher();
}

std::unique_ptr<FleetRouter> FleetRouter::ForArtifact(
    const std::string& artifact_path, const std::string& network_path,
    const FleetRouterOptions& options) {
  FleetEntry entry;
  entry.name = "default";
  entry.network_path = network_path;
  entry.artifact_path = artifact_path;
  entry.policy = FallbackPolicy::kModel;
  std::unique_ptr<FleetRouter> router(new FleetRouter(options));
  FleetShard& shard = router->AddShard(std::move(entry));
  std::shared_ptr<ServingState> state = router->LoadState(shard);
  // No request has been routed yet: the row takes the artifact's stamp.
  shard.entry_.network_id = state->bundle->network_id;
  router->Activate(shard, std::move(state));
  return router;
}

std::shared_ptr<ServingState> FleetRouter::LoadState(
    const FleetShard& shard) const {
  io::ArtifactOptions artifact_options;
  artifact_options.quant = options_.service.quant;
  return LoadServingState(shard.entry_.artifact_path, shard.network_,
                          artifact_options);
}

FleetShard& FleetRouter::AddShard(FleetEntry entry) {
  shards_.push_back(
      std::make_unique<FleetShard>(std::move(entry), registry_, options_));
  return *shards_.back();
}

void FleetRouter::StartWatcher() {
  // Activation is one-way: a fleet that starts fully warm never needs it.
  if (WarmCount() < shards_.size()) {
    watcher_ = std::thread([this] { ActivationLoop(); });
  }
}

FleetRouter::~FleetRouter() { Stop(); }

void FleetRouter::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
  for (auto& shard : shards_) {
    // Joined outside the shard lock: the reloader's prepare hook may run
    // the on_reload callback, which is free to look at the shard.
    ModelReloader* reloader;
    {
      std::lock_guard<std::mutex> lock(shard->mu_);
      reloader = shard->reloader_.get();
    }
    if (reloader != nullptr) reloader->Stop();
  }
}

FleetShard* FleetRouter::Resolve(uint32_t network_id) {
  for (auto& shard : shards_) {
    if (shard->network_id() == network_id) return shard.get();
  }
  return nullptr;
}

size_t FleetRouter::WarmCount() const {
  size_t warm = 0;
  for (const auto& shard : shards_) warm += shard->warm() ? 1 : 0;
  return warm;
}

size_t FleetRouter::ActivateNow() {
  size_t activated = 0;
  for (auto& shard : shards_) {
    if (shard->warm()) continue;
    const FleetShard::FileSig sig = StatPath(shard->entry_.artifact_path);
    if (!sig.exists) continue;
    shard->attempted_sig_.reset();  // bypass the corrupt-file memory
    if (TryActivate(*shard, sig)) ++activated;
  }
  return activated;
}

bool FleetRouter::TryActivate(FleetShard& shard,
                              const FleetShard::FileSig& sig) {
  std::lock_guard<std::mutex> activation_lock(activation_mu_);
  if (shard.warm()) return false;
  shard.attempted_sig_ = sig;
  std::shared_ptr<ServingState> state;
  try {
    state = LoadState(shard);
    // A manifest/artifact mismatch (artifact trained for another city) is a
    // load failure, not a serving state: the oracle keeps answering.
    const uint32_t artifact_id =
        state->bundle != nullptr ? state->bundle->network_id : 0;
    if (artifact_id != 0 && artifact_id != shard.network_id()) {
      throw std::runtime_error("artifact network_id " +
                               std::to_string(artifact_id) + " != shard " +
                               std::to_string(shard.network_id()));
    }
  } catch (const std::exception&) {
    shard.activation_failures_.Add();
    return false;
  }
  Activate(shard, std::move(state));
  return true;
}

void FleetRouter::Activate(FleetShard& shard,
                           std::shared_ptr<ServingState> state) {
  // The artifact's embedded fallback estimators back-fill a shard that had
  // no standalone oracle artifact.
  shard.AdoptEstimators(std::move(state->bundle->oracle),
                        std::move(state->bundle->link_mean));

  std::unique_ptr<sim::RollingSpeedField> rolling;
  std::shared_ptr<const ServingState> pinned;
  if (options_.live_speed) {
    // The artifact's frozen field is the baseline every unobserved cell
    // falls through to, so the served answers only change once observations
    // are published; the construction state stays pinned because the field
    // points into its bundle, which later swaps would otherwise free.
    const sim::SpeedProvider* baseline = state->bundle->speed.get();
    const double snapshot_seconds = baseline != nullptr
                                        ? baseline->snapshot_seconds()
                                        : state->bundle->config.slot_seconds;
    rolling = std::make_unique<sim::RollingSpeedField>(
        shard.network_, options_.live_speed->grid_m, snapshot_seconds,
        baseline, options_.live_speed->field);
    state->model->SetSpeedProvider(rolling.get());
    pinned = state;
  }

  EtaServiceOptions service_options = options_.service;
  service_options.registry_prefix = "serve/" + shard.name() + "/";
  auto service =
      std::make_shared<EtaService>(std::move(state), service_options);

  std::unique_ptr<ModelReloader> reloader;
  if (options_.watch) {
    ModelReloaderOptions reloader_options = options_.reloader;
    reloader_options.artifact.quant = options_.service.quant;
    reloader_options.registry_prefix = "reload/" + shard.name() + "/";
    reloader = std::make_unique<ModelReloader>(
        *service, shard.entry_.artifact_path, shard.network_,
        reloader_options,
        [this, &shard, live = rolling.get()](ServingState& fresh) {
          // Swapped-in models serve live speeds from their first request.
          if (live != nullptr) fresh.model->SetSpeedProvider(live);
          if (options_.on_reload) options_.on_reload(shard);
        });
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu_);
    shard.pinned_state_ = std::move(pinned);
    shard.rolling_ = std::move(rolling);
    shard.service_ = std::move(service);
    shard.reloader_ = std::move(reloader);
    shard.cold_.Set(0.0);
  }
  if (options_.on_activate) options_.on_activate(shard);
}

void FleetRouter::ActivationLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(lock, options_.reloader.poll_interval,
                            [this] { return stopping_; })) {
        return;
      }
    }
    for (auto& shard : shards_) {
      if (shard->warm()) continue;
      const FleetShard::FileSig sig = StatPath(shard->entry_.artifact_path);
      if (!sig.exists) {
        shard->pending_sig_.reset();
        continue;
      }
      if (shard->attempted_sig_ == sig) continue;  // corrupt-file memory
      // One stability poll (two equal consecutive stats) guards against
      // loading a file mid-copy; rename(2) publishes never wait extra.
      if (shard->pending_sig_ == sig) {
        TryActivate(*shard, sig);
      } else {
        shard->pending_sig_ = sig;
      }
    }
  }
}

void FleetRouter::AppendStatsSources(StatsSources* sources) const {
  sources->extra.push_back(&registry_);
  for (const auto& shard : shards_) {
    sources->extra.push_back(&shard->drift_.registry());
    std::lock_guard<std::mutex> lock(shard->mu_);
    if (shard->service_ != nullptr) {
      sources->services.push_back(shard->service_.get());
    }
    if (shard->reloader_ != nullptr) {
      sources->extra.push_back(&shard->reloader_->registry());
    }
  }
}

}  // namespace deepod::serve
