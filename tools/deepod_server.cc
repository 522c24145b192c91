// deepod_server: the network front end. Serves model artifacts over
// length-prefixed TCP with admission control and continuous batching
// (DESIGN.md "Network serving"), predict-only.
//
//   deepod_server --artifact model.artifact --network network.csv
//                 [--host H] [--port P] [--max-batch N] [--executors N]
//                 [--batch-threads N] [--queue-capacity N]
//                 [--tenants N] [--tenant-rate R] [--tenant-burst B]
//                 [--no-deadline-shed] [--quant MODE] [--kernel MODE]
//                 [--cache-capacity N] [--stats-json PATH]
//                 [--watch] [--poll-ms N]
//                 [--live-speed] [--publish-ms N] [--speed-grid-m X]
//                 [--speed-window-s X]
//                 [--drift-window N] [--drift-trigger X]
//   deepod_server --fleet fleet.csv [shared flags as above]
//
// Every deployment is a fleet (serve::FleetRouter). --fleet serves every
// city in the manifest from one process: requests route by their wire
// network_id, each warm shard runs its own EtaService and drift monitor,
// and a shard whose artifact is missing or corrupt serves from its
// OD-oracle fallback tier until the artifact watcher finds a loadable
// artifact ("fleet: activated CITY" is printed on each cold->warm
// transition). --artifact/--network (mutually exclusive with --fleet) is
// the one-row fleet: city "default", routed by the network_id the artifact
// was stamped with (0 unless deepod_train got --network-id), answered by
// its model alone. An artifact that does not load exits 1 with its typed
// load error. Per-city stats are named serve/<city>/*, reload/<city>/* and
// drift/<city>/*.
//
// Prints "listening on HOST:PORT" once the socket is bound (port 0 binds
// an ephemeral port; scripts parse the line to discover it). SIGTERM and
// SIGINT trigger a graceful drain: stop accepting, answer every admitted
// request, close connections, then exit 0 — the shutdown contract the CI
// server-smoke job asserts. --stats-json writes the unified stats document
// (serve::ExportStatsJson — identical to the wire stats frame) on the way
// out.
//
// Live serving (DESIGN.md "Live serving"), per city:
//   --watch        also polls every warm city's artifact path (one watcher
//                  thread for the fleet, every --poll-ms) and hot-swaps a
//                  rewritten artifact into the running service with zero
//                  downtime ("reloaded PATH" is printed as it goes live;
//                  publish new artifacts with an atomic rename into place;
//                  a corrupt artifact, or one stamped for another
//                  network_id, is rejected and the old model keeps serving).
//   --live-speed   stands up a RollingSpeedField per city fed by ObserveTrip
//                  frames; a publish ticker folds ingested observations into
//                  served matrices every --publish-ms and bumps the city's
//                  cache epoch.
//   --drift-trigger X  prints a retrain-trigger line when a city's rolling
//                  MAE of predictions vs observed actuals crosses X seconds.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cli_flags.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "serve/fleet_router.h"
#include "serve/server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace deepod;
  std::string artifact_path, network_path, fleet_path, stats_json_path;
  serve::FleetRouterOptions fleet_options;
  serve::EtaServiceOptions& service_options = fleet_options.service;
  serve::net::ServerOptions server_options;
  size_t poll_ms = 200;
  bool live_speed = false;
  size_t publish_ms = 1000;
  serve::LiveSpeedOptions live_options;
  const auto usage = [&argv] {
    std::fprintf(
        stderr,
        "usage: %s (--artifact PATH --network PATH | --fleet PATH)\n"
        "  [--host H] [--port P]\n"
        "  [--max-batch N] [--executors N] [--batch-threads N]\n"
        "  [--queue-capacity N] [--tenants N] [--tenant-rate R]\n"
        "  [--tenant-burst B] [--no-deadline-shed]\n"
        "  [%s] [%s]\n"
        "  [--cache-capacity N] [--stats-json PATH]\n"
        "  [--watch] [--poll-ms N]\n"
        "  [--live-speed] [--publish-ms N] [--speed-grid-m X]\n"
        "  [--speed-window-s X] [--drift-window N] [--drift-trigger X]\n",
        argv[0], tools::cli::FlagCursor::QuantHelp(),
        tools::cli::FlagCursor::KernelHelp());
    return 2;
  };
  tools::cli::FlagCursor flags(argc, argv);
  while (flags.Next()) {
    const std::string& flag = flags.flag();
    if (flag == "--artifact") {
      if (!flags.StringValue(&artifact_path)) return 2;
    } else if (flag == "--network") {
      if (!flags.StringValue(&network_path)) return 2;
    } else if (flag == "--fleet") {
      if (!flags.StringValue(&fleet_path)) return 2;
    } else if (flag == "--host") {
      if (!flags.StringValue(&server_options.host)) return 2;
    } else if (flag == "--port") {
      if (!flags.PortValue(&server_options.port)) return 2;
    } else if (flag == "--max-batch") {
      if (!flags.SizeValue(&server_options.max_batch)) return 2;
    } else if (flag == "--executors") {
      if (!flags.SizeValue(&server_options.executors)) return 2;
    } else if (flag == "--batch-threads") {
      if (!flags.SizeValue(&server_options.batch_threads)) return 2;
    } else if (flag == "--queue-capacity") {
      if (!flags.SizeValue(&server_options.admission.queue_capacity)) return 2;
    } else if (flag == "--tenants") {
      if (!flags.SizeValue(&server_options.admission.num_tenants)) return 2;
    } else if (flag == "--tenant-rate") {
      if (!flags.DoubleValue(&server_options.admission.tenant_rate)) return 2;
    } else if (flag == "--tenant-burst") {
      if (!flags.DoubleValue(&server_options.admission.tenant_burst)) return 2;
    } else if (flag == "--no-deadline-shed") {
      server_options.admission.deadline_shedding = false;
    } else if (flag == "--quant") {
      if (!flags.QuantValue(&service_options.quant)) return 2;
    } else if (flag == "--kernel") {
      if (!flags.KernelValue(&service_options.kernel_mode)) return 2;
    } else if (flag == "--cache-capacity") {
      if (!flags.SizeValue(&service_options.cache_capacity)) return 2;
    } else if (flag == "--stats-json") {
      if (!flags.StringValue(&stats_json_path)) return 2;
    } else if (flag == "--watch") {
      fleet_options.watch = true;
    } else if (flag == "--poll-ms") {
      if (!flags.SizeValue(&poll_ms)) return 2;
    } else if (flag == "--live-speed") {
      live_speed = true;
    } else if (flag == "--publish-ms") {
      if (!flags.SizeValue(&publish_ms)) return 2;
    } else if (flag == "--speed-grid-m") {
      if (!flags.DoubleValue(&live_options.grid_m)) return 2;
    } else if (flag == "--speed-window-s") {
      if (!flags.DoubleValue(&live_options.field.window_seconds)) return 2;
    } else if (flag == "--drift-window") {
      if (!flags.SizeValue(&fleet_options.drift.window)) return 2;
    } else if (flag == "--drift-trigger") {
      if (!flags.DoubleValue(&fleet_options.drift.trigger_mae)) return 2;
    } else {
      return usage();
    }
  }
  const bool fleet_mode = !fleet_path.empty();
  if (fleet_mode && (!artifact_path.empty() || !network_path.empty())) {
    std::fprintf(stderr, "--fleet excludes --artifact/--network\n");
    return 2;
  }
  if (!fleet_mode && (artifact_path.empty() || network_path.empty())) {
    std::fprintf(stderr, "--artifact and --network are required "
                         "(or --fleet)\n");
    return 2;
  }

  fleet_options.poll_interval = std::chrono::milliseconds(poll_ms);
  if (live_speed) fleet_options.live_speed = live_options;
  fleet_options.on_activate = [](const serve::FleetShard& shard) {
    std::printf("fleet: activated %s (network_id %u)\n", shard.name().c_str(),
                static_cast<unsigned>(shard.network_id()));
    std::fflush(stdout);
  };
  fleet_options.on_reload = [](const serve::FleetShard& shard) {
    // The operator-visible (and CI-greppable) record that a new artifact
    // went live.
    std::printf("reloaded %s\n", shard.artifact_path().c_str());
    std::fflush(stdout);
  };
  fleet_options.on_drift_trigger = [](const serve::FleetShard& shard,
                                      double mae) {
    std::printf("drift: %s retrain trigger fired (rolling MAE %.3f s)\n",
                shard.name().c_str(), mae);
    std::fflush(stdout);
  };

  // Block SIGTERM/SIGINT before the fleet (artifact watcher) and the server
  // spawn their threads, so every thread inherits the blocked mask and
  // delivery can only happen inside the main thread's sigsuspend window
  // below (no lost-wakeup race).
  sigset_t stop_set, old_mask;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGTERM);
  sigaddset(&stop_set, SIGINT);
  sigprocmask(SIG_BLOCK, &stop_set, &old_mask);
  struct sigaction sa{};
  sa.sa_handler = HandleStop;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::unique_ptr<serve::FleetRouter> fleet;
  if (fleet_mode) {
    try {
      fleet = std::make_unique<serve::FleetRouter>(
          serve::ReadFleetManifest(fleet_path), fleet_options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet load failed: %s\n", e.what());
      return 1;
    }
  } else {
    try {
      fleet = serve::FleetRouter::ForArtifact(artifact_path, network_path,
                                              fleet_options);
    } catch (const nn::SerializeError& e) {
      std::fprintf(stderr, "artifact load failed [%s]: %s\n",
                   nn::LoadErrorKindName(e.status().kind), e.what());
      return 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "artifact load failed: %s\n", e.what());
      return 1;
    }
  }
  std::printf("fleet: %zu cities, %zu warm\n", fleet->shards().size(),
              fleet->WarmCount());
  for (const auto& shard : fleet->shards()) {
    std::printf("fleet: %s network_id=%u %s policy=%s\n",
                shard->name().c_str(),
                static_cast<unsigned>(shard->network_id()),
                shard->warm() ? "warm" : "cold",
                serve::FallbackPolicyName(shard->policy()));
    if (const sim::RollingSpeedField* rolling = shard->rolling_field()) {
      std::printf("fleet: %s live speed field: %zux%zu grid, %.0fs window\n",
                  shard->name().c_str(), rolling->rows(), rolling->cols(),
                  live_options.field.window_seconds);
    }
    // The artifact watcher covers every cold shard, and warm ones too
    // under --watch.
    if (fleet_options.watch || !shard->warm()) {
      std::printf("watching %s (poll %zums)\n",
                  shard->artifact_path().c_str(), poll_ms);
    }
  }

  auto server =
      std::make_unique<serve::net::DeepOdServer>(*fleet, server_options);
  try {
    server->Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "server start failed: %s\n", e.what());
    return 1;
  }
  std::printf("listening on %s:%u\n", server_options.host.c_str(),
              static_cast<unsigned>(server->port()));
  std::fflush(stdout);

  // Publish ticker: fold each city's ingested observations into its served
  // matrices and bump its cache generation whenever anything new arrived.
  std::thread publisher;
  std::mutex publish_mu;
  std::condition_variable publish_cv;
  bool publish_stop = false;
  if (live_speed) {
    publisher = std::thread([&] {
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(publish_mu);
          publish_cv.wait_for(lock, std::chrono::milliseconds(publish_ms),
                              [&] { return publish_stop; });
          if (publish_stop) return;
        }
        for (const auto& shard : fleet->shards()) shard->PublishLiveSpeed();
      }
    });
  }

  sigset_t wait_mask = old_mask;
  sigdelset(&wait_mask, SIGTERM);
  sigdelset(&wait_mask, SIGINT);
  while (g_stop == 0) sigsuspend(&wait_mask);

  std::printf("draining...\n");
  std::fflush(stdout);
  if (publisher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(publish_mu);
      publish_stop = true;
    }
    publish_cv.notify_all();
    publisher.join();
  }
  fleet->Stop();
  server->Shutdown();
  if (!stats_json_path.empty()) {
    std::FILE* f = std::fopen(stats_json_path.c_str(), "w");
    if (f != nullptr) {
      const std::string json = server->ExportStatsJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  std::printf("shutdown complete\n");
  return 0;
}
