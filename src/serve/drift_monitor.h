#ifndef DEEPOD_SERVE_DRIFT_MONITOR_H_
#define DEEPOD_SERVE_DRIFT_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.h"

namespace deepod::serve {

struct DriftMonitorOptions {
  // Rolling-MAE window, in observations. Windowed (not lifetime) on
  // purpose: drift is a statement about the CURRENT regime, and a lifetime
  // mean dilutes a fresh weather shock into invisibility.
  size_t window = 256;

  // Retrain-trigger threshold on the rolling MAE, in seconds. 0 disables
  // the trigger (the gauge still updates).
  double trigger_mae = 0.0;

  // Observations required before the trigger may fire — a half-warm window
  // of three unlucky trips is noise, not drift.
  size_t min_observations = 32;

  // Prefix of every metric name in the monitor's registry. A fleet gives
  // each city's monitor its own ("drift/<city>/").
  std::string registry_prefix = "drift/";
};

// Drift detection for the serving stack: rolling MAE of served predictions
// against later-observed actual travel times. The server's ObserveTrip
// ingest path feeds it — each observed trip carries the actual duration,
// the monitor re-scores it against what the service currently predicts —
// and the rolling MAE is exported as the "rolling_mae" gauge through the
// unified stats surface (serve::ExportStatsJson), so a weather shock shows
// up as a rising gauge on the same stats frame operators already scrape.
//
// Retrain hook: when the rolling MAE crosses `trigger_mae` from below
// (edge-triggered; re-arms when it falls back under), the trigger callback
// fires once with the offending MAE — the seam a deployment wires to its
// retrain pipeline. The callback runs on the observing thread and must not
// block.
//
// Thread-safe; instruments live in a private registry under the options'
// prefix ("drift/" by default).
class DriftMonitor {
 public:
  using RetrainTrigger = std::function<void(double rolling_mae)>;

  explicit DriftMonitor(const DriftMonitorOptions& options,
                        RetrainTrigger trigger = nullptr);

  DriftMonitor(const DriftMonitor&) = delete;
  DriftMonitor& operator=(const DriftMonitor&) = delete;

  // Records one prediction/actual pair (seconds). Updates the rolling MAE
  // and the gauge, and fires the retrain trigger on an upward threshold
  // crossing.
  void Observe(double predicted_seconds, double actual_seconds);

  // Current windowed MAE in seconds (0 before the first observation).
  double RollingMae() const { return rolling_.Value(); }
  uint64_t Observations() const { return rolling_.Count(); }
  uint64_t Triggers() const { return triggers_.Value(); }

  const obs::Registry& registry() const { return registry_; }

 private:
  DriftMonitorOptions options_;
  RetrainTrigger trigger_;
  obs::RollingMean rolling_;

  obs::Registry registry_;
  obs::Counter& observations_;
  obs::Counter& triggers_;
  obs::Gauge& mae_gauge_;
  obs::Histogram& abs_error_;

  // Edge-trigger arming: true while the MAE is below the threshold, so the
  // trigger fires once per excursion instead of once per observation.
  std::atomic<bool> armed_{true};
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_DRIFT_MONITOR_H_
