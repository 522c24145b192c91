#ifndef DEEPOD_SERVE_SERVER_SERVER_H_
#define DEEPOD_SERVE_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/server/admission.h"
#include "serve/server/frame.h"
#include "util/thread_pool.h"

namespace deepod::serve {
class FleetRouter;
class FleetShard;
}  // namespace deepod::serve

namespace deepod::serve::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; port() reports the bound one after Start().
  uint16_t port = 0;
  int accept_backlog = 64;
  // Accepted-connection cap: beyond it new connections are closed on
  // accept (the client sees EOF) instead of spawning unbounded readers.
  size_t max_connections = 256;

  // Continuous-batching executor: `executors` slots each drain up to
  // `max_batch` admitted requests per dispatch — whatever is queued right
  // now, never waiting for a batch to fill — and push them through
  // EtaService::EstimateBatch. `batch_threads` > 1 gives every slot its
  // own ThreadPool for the PredictBatch fan-out (pools are per-slot
  // because util::ThreadPool does not support concurrent ParallelFor).
  size_t max_batch = 32;
  size_t executors = 1;
  size_t batch_threads = 1;

  AdmissionOptions admission;
};

// The network front end: a length-prefixed-TCP server around a FleetRouter,
// structured as three layers (DESIGN.md "Network serving"):
//   acceptor/connections -> admission/scheduler -> batching executor.
// Every deployment is a fleet; a single city is a one-row fleet
// (FleetRouter::ForArtifact). Connection threads decode frames, route each
// by its wire network_id (unknown id -> typed kUnknownNetwork), validate it
// against that city (ValidOd in server.cc: segments in its network, ratios
// in [0, 1], a known weather, a departure time inside its serving state's
// slot domain; anything else -> kInvalidRequest) and offer it to the
// AdmissionQueue (never blocking on a full queue — requests are admitted or
// shed with a typed status + retry-after). Executor slots drain the
// admitted backlog as they free up, re-check deadlines at dequeue (a
// request that expired while queued costs a response frame, not a model
// forward), group the batch by city and push each group through that
// shard's EstimateBatch. One AdmissionQueue is shared across cities (a
// single PopBatch scheduler, per-tenant quotas spanning the fleet).
//
// Requests a shard's model cannot answer — the shard is cold, the
// admission queue sheds, or the OD pair is out-of-distribution — are
// answered inline on the connection thread from the shard's fallback tier
// (OD-histogram oracle, else link means) when its policy allows, tagged
// with the estimator that produced the ETA. A kModel shard never asks the
// out-of-distribution question: its answer would be ignored.
//
// ObserveTrip frames are validated the same way, their observations
// ingested into the shard's live speed field (when it has one) and the trip
// re-scored against the shard's model for its drift monitor.
//
// Observability: a private obs::Registry under "server/" — accepted /
// admitted / completed / per-reason shed / deadline-missed / observe
// counters, a queue-depth gauge, a batch-fill histogram (requests per
// executor dispatch) and an arrival→response latency histogram.
// ExportStatsJson() delegates to serve::ExportStatsJson over this registry
// and every source the fleet has ("serve/<city>/", "reload/<city>/",
// "drift/<city>/", "fleet/"), so the wire stats frame and `--stats-json`
// render the identical document.
//
// Shutdown() is graceful: stop accepting (adopting the connections already
// in the listen backlog), shed new offers with kShuttingDown, drain and
// answer every admitted request, then half-close the connections so each
// reader answers what its client already sent before it exits. The
// destructor calls it.
class DeepOdServer {
 public:
  // The router is borrowed and must outlive the server.
  DeepOdServer(FleetRouter& fleet, const ServerOptions& options);
  ~DeepOdServer();

  DeepOdServer(const DeepOdServer&) = delete;
  DeepOdServer& operator=(const DeepOdServer&) = delete;

  // Binds, listens and starts the acceptor + executor threads. Throws
  // std::runtime_error when the socket cannot be bound.
  void Start();

  // The bound port (valid after Start(); resolves option port 0).
  uint16_t port() const { return port_; }

  void Shutdown();

  const obs::Registry& registry() const { return registry_; }
  std::string ExportStatsJson() const;

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };

  void AcceptLoop();
  // Registers an accepted socket and starts its reader thread (or closes
  // it past max_connections).
  void Adopt(int fd);
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  // ObserveTrip ingest: validates, feeds the shard's live speed field and
  // drift monitor, answers with the prediction used for drift scoring.
  void HandleObserve(const std::shared_ptr<Connection>& conn,
                     const ObserveFrame& frame);
  void ExecutorLoop(size_t slot);
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const ResponseFrame& response);
  // Counts the shed/error and answers it on `conn`.
  void RespondError(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, Status status,
                    uint32_t retry_after_ms);
  // Answers a request from a shard's fallback tier (kOk, estimator-tagged)
  // on the connection thread, observing latency and the completed counter.
  void RespondFallback(const std::shared_ptr<Connection>& conn,
                       uint64_t request_id, double eta, Estimator estimator,
                       std::chrono::steady_clock::time_point arrival);

  FleetRouter& fleet_;
  ServerOptions options_;
  AdmissionQueue admission_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // Shutdown -> acceptor wake-up pipe
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::vector<std::thread> executor_threads_;
  std::vector<std::unique_ptr<util::ThreadPool>> executor_pools_;

  std::mutex conns_mu_;
  std::condition_variable conns_done_;
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 0;
  size_t live_connections_ = 0;  // includes readers past their map erase

  // Metrics (registry_ precedes the instrument references).
  obs::Registry registry_;
  obs::Counter& accepted_;
  obs::Counter& rejected_conns_;
  obs::Counter& requests_;
  obs::Counter& bad_frames_;
  obs::Counter& invalid_requests_;
  obs::Counter& unknown_tenants_;
  obs::Counter& unknown_networks_;  // unresolvable network_id
  obs::Counter& shard_cold_;        // cold shard, no fallback tier
  obs::Counter& admitted_;
  obs::Counter& shed_;
  obs::Counter& shed_queue_full_;
  obs::Counter& shed_quota_;
  obs::Counter& shed_deadline_;
  obs::Counter& deadline_missed_;
  obs::Counter& completed_;
  obs::Counter& observes_;       // observe frames accepted
  obs::Counter& observations_;   // per-segment observations ingested
  obs::Gauge& connections_gauge_;
  obs::Gauge& queue_depth_;
  obs::Histogram& batch_fill_;  // requests per executor dispatch
  obs::Histogram& latency_;     // arrival -> response (seconds), Ok only
};

}  // namespace deepod::serve::net

#endif  // DEEPOD_SERVE_SERVER_SERVER_H_
