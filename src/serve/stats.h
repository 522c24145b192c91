#ifndef DEEPOD_SERVE_STATS_H_
#define DEEPOD_SERVE_STATS_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace deepod::serve {

class EtaService;

// The serving stack's stat sources, each optional and borrowed (they must
// outlive the call). A serving process has the server front end's registry
// ("server/*"), one EtaService per warm city ("serve/<city>/*"), and the
// plain registries of the fleet router ("fleet/*", and the artifact
// watcher's "reload/<city>/*") and the per-city drift monitors
// ("drift/<city>/*"). Services are listed apart from plain registries
// because their model-owned gauges are refreshed before export.
struct StatsSources {
  const obs::Registry* server = nullptr;
  std::vector<const EtaService*> services;
  std::vector<const obs::Registry*> extra;
};

// Snapshot of every instrument across the non-null sources, merged and
// name-sorted into the shared BENCH-json Record schema. This is THE stats
// surface: the server's stats frame, `deepod_server --stats-json`, and
// EtaService::ExportJson all render this one collection, so every consumer
// sees the same records under the same names.
std::vector<obs::Record> CollectStats(const StatsSources& sources);

// CollectStats rendered as {"hardware_concurrency": N, "records": [...]}
// (obs::RenderRecordsJson — same schema bench emitters write, same
// validator covers it).
std::string ExportStatsJson(const StatsSources& sources);

// CollectStats rendered in the Prometheus text exposition format.
std::string ExportStatsPrometheus(const StatsSources& sources);

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_STATS_H_
