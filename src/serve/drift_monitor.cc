#include "serve/drift_monitor.h"

#include <cmath>

namespace deepod::serve {

DriftMonitor::DriftMonitor(const DriftMonitorOptions& options,
                           RetrainTrigger trigger)
    : options_(options),
      trigger_(std::move(trigger)),
      rolling_(options.window),
      observations_(
          registry_.counter(options.registry_prefix + "observations")),
      triggers_(
          registry_.counter(options.registry_prefix + "retrain_triggers")),
      mae_gauge_(registry_.gauge(options.registry_prefix + "rolling_mae")),
      abs_error_(registry_.histogram(options.registry_prefix + "abs_error")) {}

void DriftMonitor::Observe(double predicted_seconds, double actual_seconds) {
  const double abs_error = std::fabs(predicted_seconds - actual_seconds);
  rolling_.Observe(abs_error);
  observations_.Add();
  abs_error_.Observe(abs_error);
  const double mae = rolling_.Value();
  mae_gauge_.Set(mae);

  if (options_.trigger_mae <= 0.0) return;
  if (rolling_.Count() < options_.min_observations) return;
  if (mae > options_.trigger_mae) {
    bool was_armed = true;
    if (armed_.compare_exchange_strong(was_armed, false)) {
      triggers_.Add();
      if (trigger_) trigger_(mae);
    }
  } else {
    armed_.store(true);
  }
}

}  // namespace deepod::serve
