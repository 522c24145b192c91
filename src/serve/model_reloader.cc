#include "serve/model_reloader.h"

#include <sys/stat.h>

#include <exception>
#include <utility>

#include "nn/serialize.h"

namespace deepod::serve {

ModelReloader::ModelReloader(EtaService& service, std::string artifact_path,
                             const road::RoadNetwork& network,
                             const ModelReloaderOptions& options,
                             PrepareFn prepare)
    : service_(service),
      artifact_path_(std::move(artifact_path)),
      network_(network),
      options_(options),
      prepare_(std::move(prepare)),
      polls_(registry_.counter(options.registry_prefix + "polls")),
      reloads_(registry_.counter(options.registry_prefix + "reloads")),
      failures_(registry_.counter(options.registry_prefix + "failures")),
      healthy_(registry_.gauge(options.registry_prefix + "healthy")),
      load_seconds_(
          registry_.histogram(options.registry_prefix + "load_seconds")) {
  if (options_.poll_interval <= std::chrono::milliseconds(0)) {
    options_.poll_interval = std::chrono::milliseconds(200);
  }
  if (options_.stability_polls < 1) options_.stability_polls = 1;
  healthy_.Set(1.0);
  // When the service is already serving exactly this artifact (the
  // FromArtifact + watch-same-path deployment), the file on disk IS the
  // current epoch: adopt its signature as the baseline so construction
  // never triggers a redundant reload. Any other starting state (borrowed
  // model, different source path) leaves the baseline empty and the first
  // stable signature loads.
  if (service_.state()->source == artifact_path_) {
    const FileSig sig = StatArtifact();
    if (sig.exists) attempted_sig_ = sig;
  }
  watcher_ = std::thread([this] { WatchLoop(); });
}

ModelReloader::~ModelReloader() { Stop(); }

void ModelReloader::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (watcher_.joinable()) watcher_.join();
}

ModelReloader::FileSig ModelReloader::StatArtifact() const {
  FileSig sig;
  struct stat st{};
  if (::stat(artifact_path_.c_str(), &st) != 0) return sig;
  sig.exists = true;
  sig.size = static_cast<uint64_t>(st.st_size);
  sig.inode = static_cast<uint64_t>(st.st_ino);
  sig.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
                 static_cast<int64_t>(st.st_mtim.tv_nsec);
  return sig;
}

void ModelReloader::WatchLoop() {
  FileSig candidate;  // exists == false → no candidate being tracked
  int stable_polls = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(lock, options_.poll_interval,
                        [this] { return stopping_; });
      if (stopping_) return;
    }
    polls_.Add();
    const FileSig sig = StatArtifact();
    if (!sig.exists) {
      // Transient gaps (rename in progress, artifact deleted) are not
      // errors: keep serving the current epoch and keep watching.
      candidate = FileSig{};
      stable_polls = 0;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(reload_mu_);
      if (attempted_sig_ && sig == *attempted_sig_) {
        candidate = FileSig{};
        stable_polls = 0;
        continue;
      }
    }
    if (candidate.exists && sig == candidate) {
      ++stable_polls;
    } else {
      candidate = sig;
      stable_polls = 1;
    }
    if (stable_polls < options_.stability_polls) continue;
    std::lock_guard<std::mutex> lock(reload_mu_);
    TryReload(sig);
    candidate = FileSig{};
    stable_polls = 0;
  }
}

bool ModelReloader::TryReload(const FileSig& sig) {
  // Remember the attempt up front: a corrupt artifact must not be re-tried
  // every poll, only a subsequent write (new signature) earns a fresh try.
  attempted_sig_ = sig;
  const auto start = std::chrono::steady_clock::now();
  try {
    std::shared_ptr<ServingState> fresh =
        LoadServingState(artifact_path_, network_, options_.artifact);
    if (prepare_) prepare_(*fresh);
    service_.SwapState(std::move(fresh));
    load_seconds_.Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    reloads_.Add();
    healthy_.Set(1.0);
    {
      std::lock_guard<std::mutex> lock(status_mu_);
      last_error_.clear();
    }
    return true;
  } catch (const nn::SerializeError& e) {
    // Typed load/validation failure — the rollback path: the service never
    // saw the broken state and keeps answering from the current epoch.
    failures_.Add();
    healthy_.Set(0.0);
    std::lock_guard<std::mutex> lock(status_mu_);
    last_error_ = e.what();
    return false;
  } catch (const std::exception& e) {
    // Anything else (bad_alloc, invalid_argument from SwapState) is still
    // a keep-serving event, just recorded with its own message.
    failures_.Add();
    healthy_.Set(0.0);
    std::lock_guard<std::mutex> lock(status_mu_);
    last_error_ = e.what();
    return false;
  }
}

bool ModelReloader::ReloadNow() {
  const FileSig sig = StatArtifact();
  if (!sig.exists) {
    std::lock_guard<std::mutex> lock(status_mu_);
    last_error_ = "artifact not found: " + artifact_path_;
    return false;
  }
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (attempted_sig_ && sig == *attempted_sig_) return false;  // unchanged
  return TryReload(sig);
}

ModelReloader::Status ModelReloader::StatusSnapshot() const {
  Status status;
  status.polls = polls_.Value();
  status.reloads = reloads_.Value();
  status.failures = failures_.Value();
  status.healthy = healthy_.Value() != 0.0;
  status.epoch = service_.state()->epoch;
  std::lock_guard<std::mutex> lock(status_mu_);
  status.last_error = last_error_;
  return status;
}

}  // namespace deepod::serve
