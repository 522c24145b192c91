#include "serve/fleet_router.h"

#include <sys/stat.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/trip_io.h"
#include "serve/serving_state.h"

namespace deepod::serve {
namespace {

// A changed signature loads once it has been seen on this many consecutive
// polls — a guard against catching a writer mid-copy. A rename(2) publish
// (CONTRIBUTING.md) waits exactly one poll for it.
constexpr int kStablePolls = 2;

ArtifactSig StatArtifact(const std::string& path) {
  ArtifactSig sig;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return sig;
  sig.exists = true;
  sig.size = static_cast<uint64_t>(st.st_size);
  sig.inode = static_cast<uint64_t>(st.st_ino);
  sig.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
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
      oracle_failures_(fleet_registry.counter("fleet/" + entry_.name +
                                              "/oracle_failures")),
      cold_(fleet_registry.gauge("fleet/" + entry_.name + "/cold")),
      polls_(fleet_registry.counter("reload/" + entry_.name + "/polls")),
      reloads_(fleet_registry.counter("reload/" + entry_.name + "/reloads")),
      failures_(fleet_registry.counter("reload/" + entry_.name + "/failures")),
      healthy_(fleet_registry.gauge("reload/" + entry_.name + "/healthy")),
      load_seconds_(fleet_registry.histogram("reload/" + entry_.name +
                                             "/load_seconds")) {
  cold_.Set(1.0);
  healthy_.Set(1.0);
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
    : options_(options) {
  if (options_.poll_interval <= std::chrono::milliseconds(0)) {
    options_.poll_interval = std::chrono::milliseconds(200);
  }
}

FleetRouter::FleetRouter(std::vector<FleetEntry> entries,
                         const FleetRouterOptions& options)
    : FleetRouter(options) {
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
        shard->oracle_failures_.Add();
      }
    }
    // Eager model load; failure (missing file, corrupt artifact) leaves
    // the shard cold and the fleet serving.
    const ArtifactSig sig = StatArtifact(shard->artifact_path());
    if (sig.exists) TryLoad(*shard, sig);
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
  // No request has been routed yet: the row takes the artifact's stamp.
  router->Load(shard, StatArtifact(artifact_path), /*adopt_stamp=*/true);
  router->StartWatcher();
  return router;
}

FleetShard& FleetRouter::AddShard(FleetEntry entry) {
  shards_.push_back(
      std::make_unique<FleetShard>(std::move(entry), registry_, options_));
  return *shards_.back();
}

void FleetRouter::StartWatcher() {
  // Activation is one-way: a fleet that starts fully warm and is not
  // watched never needs the thread.
  if (options_.watch || WarmCount() < shards_.size()) {
    watcher_ = std::thread([this] { WatchLoop(); });
  }
}

FleetRouter::~FleetRouter() { Stop(); }

void FleetRouter::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
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

size_t FleetRouter::PollNow() { return Sweep(/*force=*/true); }

void FleetRouter::WatchLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(lock, options_.poll_interval,
                            [this] { return stopping_; })) {
        return;
      }
    }
    Sweep(/*force=*/false);
  }
}

size_t FleetRouter::Sweep(bool force) {
  std::lock_guard<std::mutex> lock(load_mu_);
  size_t published = 0;
  for (auto& shard : shards_) {
    if (shard->warm() && !options_.watch) continue;
    shard->polls_.Add();
    const ArtifactSig sig = StatArtifact(shard->artifact_path());
    // A missing file (rename in progress, city not trained yet) is not an
    // error, and bytes already loaded or rejected are not tried again.
    if (!sig.exists || sig == shard->attempted_sig_) {
      shard->pending_polls_ = 0;
      continue;
    }
    if (shard->pending_polls_ > 0 && sig == shard->pending_sig_) {
      ++shard->pending_polls_;
    } else {
      shard->pending_sig_ = sig;
      shard->pending_polls_ = 1;
    }
    if (!force && shard->pending_polls_ < kStablePolls) continue;
    shard->pending_polls_ = 0;
    if (TryLoad(*shard, sig)) ++published;
  }
  return published;
}

bool FleetRouter::TryLoad(FleetShard& shard, const ArtifactSig& sig) {
  try {
    Load(shard, sig, /*adopt_stamp=*/false);
    return true;
  } catch (const std::exception&) {
    // Rollback: the shard never saw the rejected artifact and keeps
    // answering from its current state (or its fallback tier while cold).
    shard.failures_.Add();
    shard.healthy_.Set(0.0);
    return false;
  }
}

void FleetRouter::Load(FleetShard& shard, const ArtifactSig& sig,
                       bool adopt_stamp) {
  // Recorded before the load: a write that lands while it runs is a new
  // signature the next poll picks up.
  shard.attempted_sig_ = sig;
  const auto start = std::chrono::steady_clock::now();
  io::ArtifactOptions artifact_options;
  artifact_options.quant = options_.service.quant;
  std::shared_ptr<ServingState> state =
      LoadServingState(shard.artifact_path(), shard.network_, artifact_options);
  // An artifact trained for another city is a load failure, not a serving
  // state, even when its segment count happens to match.
  const uint32_t stamp = state->bundle->network_id;
  if (adopt_stamp) {
    shard.entry_.network_id = stamp;
  } else if (stamp != 0 && stamp != shard.network_id()) {
    throw std::runtime_error("artifact network_id " + std::to_string(stamp) +
                             " != shard " +
                             std::to_string(shard.network_id()));
  }
  if (const std::shared_ptr<EtaService> service = shard.service()) {
    // Swapped-in models serve live speeds from their first request.
    if (sim::RollingSpeedField* live = shard.rolling_field()) {
      state->model->SetSpeedProvider(live);
    }
    if (options_.on_reload) options_.on_reload(shard);
    service->SwapState(std::move(state));
  } else {
    Activate(shard, std::move(state));
  }
  shard.load_seconds_.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  shard.reloads_.Add();
  shard.healthy_.Set(1.0);
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
  {
    std::lock_guard<std::mutex> lock(shard.mu_);
    shard.pinned_state_ = std::move(pinned);
    shard.rolling_ = std::move(rolling);
    shard.service_ = std::move(service);
    shard.cold_.Set(0.0);
  }
  if (options_.on_activate) options_.on_activate(shard);
}

void FleetRouter::AppendStatsSources(StatsSources* sources) const {
  sources->extra.push_back(&registry_);
  for (const auto& shard : shards_) {
    sources->extra.push_back(&shard->drift_.registry());
    std::lock_guard<std::mutex> lock(shard->mu_);
    if (shard->service_ != nullptr) {
      sources->services.push_back(shard->service_.get());
    }
  }
}

}  // namespace deepod::serve
