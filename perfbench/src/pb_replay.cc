// pb_replay: the traced per-layer replay of a serving workload. Regenerates
// the wire run's inputs (same seed, same generator, same bytes) and pushes
// them, in process, through each layer's public functions in the order the
// server calls them: frame decode -> fleet resolve / in-distribution ->
// oracle (OOD) or admission offer -> pop batch -> EtaService::EstimateBatch
// -> response encode; ObserveTrip frames go to RollingSpeedField::Ingest,
// and a publish tick every --publish-ms of schedule time runs Publish and
// EtaService::BumpEpoch, as deepod_server --live-speed does.
//
// EstimateBatch is opaque, so the model's share of it is measured on a
// mirror: a second model loaded from the same artifact runs PredictBatch
// over exactly the requests that missed the service's result cache (found
// by feeding the service's own keys through a second util::ShardedLruCache
// of the service's capacity and shard count), which gives it the same
// ocode-memo hit/miss sequence as the service's model. A third copy
// measures EncodeExternal per call with its memo live.
//
//   pb_replay --fleet FLEET.csv --workload W --seed N --rate R --seconds S
//             --batch B [--observe-share X] [--publish-ms M]
//             [--trace-out PATH]
//
// S is the wire run's seconds: the replay covers the first kReplayShare of
// its nominal phase (stats.h).
//
// Runs the replay untraced, traced, then untraced again; prints one JSON object with
// per-span totals, self time per layer and the tracing overhead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "args.h"
#include "checker.h"
#include "inputs.h"
#include "nn_cost.h"
#include "io/model_artifact.h"
#include "nn/tensor.h"
#include "serve/fleet_router.h"
#include "serve/server/admission.h"
#include "sim/rolling_speed_field.h"
#include "stats.h"
#include "trace.h"
#include "util/lru_cache.h"

namespace {

using namespace perfbench;
using namespace deepod;
namespace net = deepod::serve::net;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct City {
  serve::FleetShard* shard = nullptr;
  std::shared_ptr<serve::EtaService> service;
  io::ServingModel mirror;   // PredictBatch over the service's misses
  io::ServingModel encoder;  // EncodeExternal per call
  // Keys only: which requests of a batch miss the service's cache.
  std::unique_ptr<util::ShardedLruCache<serve::OdCacheKey, char,
                                        serve::OdCacheKeyHash>>
      cache;
};

struct ReplayResult {
  double seconds = 0.0;
  size_t reads = 0, writes = 0, batches = 0, batched = 0, misses = 0;
  size_t oracle = 0, publishes = 0, bumps = 0;
  double cache_hits = 0.0, cache_requests = 0.0;
  double artifact_load_s = 0.0;
  NnCost nn_cost;
};

class Replay {
 public:
  Replay(const Args& args, bool observe_mode)
      : args_(args), observe_mode_(observe_mode) {}

  ReplayResult Run(Tracer& tracer);

 private:
  const Args& args_;
  bool observe_mode_;
};

ReplayResult Replay::Run(Tracer& tracer) {
  ReplayResult out;
  serve::FleetRouterOptions fleet_options;
  serve::FleetRouter fleet(serve::ReadFleetManifest(args_.Str("fleet")),
                           fleet_options);
  std::map<uint32_t, City> cities;
  for (const auto& shard : fleet.shards()) {
    City& c = cities[shard->network_id()];
    c.shard = shard.get();
    c.service = shard->service();
    {
      const Clock::time_point t = Clock::now();
      Tracer::Scope span(tracer, "artifact.load");
      c.mirror = io::LoadModelArtifact(shard->artifact_path(), shard->network());
      out.artifact_load_s += Since(t);
    }
    c.encoder = io::LoadModelArtifact(shard->artifact_path(), shard->network());
    out.nn_cost = QueryCost(c.mirror.config);
    const serve::EtaServiceOptions defaults;
    c.cache = std::make_unique<util::ShardedLruCache<
        serve::OdCacheKey, char, serve::OdCacheKeyHash>>(defaults.cache_capacity,
                                                         defaults.cache_shards);
  }
  out.artifact_load_s /= static_cast<double>(std::max<size_t>(1, cities.size()));

  // deepod_server --live-speed: a rolling field over the city's network with
  // the artifact's frozen field as baseline, served by the model.
  std::unique_ptr<sim::RollingSpeedField> rolling;
  City* live = nullptr;
  if (observe_mode_) {
    live = &cities.begin()->second;
    const auto state = live->service->state();
    const sim::SpeedProvider* baseline = state->bundle->speed.get();
    // 200 m grid: deepod_server's --speed-grid-m default.
    rolling = std::make_unique<sim::RollingSpeedField>(
        live->shard->network(), 200.0, baseline->snapshot_seconds(), baseline);
    state->model->SetSpeedProvider(rolling.get());
    live->mirror.model->SetSpeedProvider(rolling.get());
    live->encoder.model->SetSpeedProvider(rolling.get());
    live->service->BumpEpoch();
  }

  MixOptions mix;
  mix.mix = ParseMix(args_.Str("workload"));
  mix.seed = static_cast<uint64_t>(args_.Num("seed"));
  mix.observe_share = args_.Num("observe-share", 0.0);
  InputGenerator gen(mix, CityViewsOf(fleet));
  const ServingInputs inputs = GenerateServingInputs(
      gen, mix.seed, args_.Num("rate"),
      args_.Num("seconds") * kNominalShare * kReplayShare);
  std::vector<const Query*> queries;
  std::vector<double> due;
  for (size_t i = 0; i < inputs.warmup.size(); ++i) {
    queries.push_back(&inputs.warmup[i]);
    due.push_back(-1.0);  // before the schedule: no publish ticks
  }
  for (size_t i = 0; i < inputs.nominal.size(); ++i) {
    queries.push_back(&inputs.nominal[i]);
    due.push_back(inputs.nominal_due[i]);
  }

  std::vector<std::vector<uint8_t>> wire;
  wire.reserve(queries.size());
  for (const Query* q : queries) wire.push_back(EncodeQuery(*q));

  net::AdmissionOptions admission_options;
  admission_options.queue_capacity = 1u << 20;
  net::AdmissionQueue admission(admission_options);
  const size_t batch_size =
      std::max<size_t>(1, static_cast<size_t>(std::lround(args_.Num("batch", 1.0))));
  const double publish_s = args_.Num("publish-ms", 1000.0) / 1e3;
  double next_publish = publish_s;
  std::vector<net::AdmittedRequest> batch;
  std::vector<uint8_t> sink;

  const auto respond = [&](uint64_t id, double eta, net::Estimator estimator) {
    net::ResponseFrame r;
    r.request_id = id;
    r.eta_seconds = eta;
    r.estimator = estimator;
    Tracer::Scope span(tracer, "frame.encode", id);
    const std::vector<uint8_t> bytes = net::EncodeResponseFrame(r);
    sink.push_back(bytes[4]);
  };

  const auto drain = [&](bool all) {
    while (admission.Depth() >= batch_size || (all && admission.Depth() > 0)) {
      batch.clear();
      {
        Tracer::Scope span(tracer, "admission.pop_batch");
        admission.PopBatch(batch_size, &batch);
      }
      ++out.batches;
      out.batched += batch.size();
      std::map<uint32_t, std::vector<size_t>> groups;
      for (size_t k = 0; k < batch.size(); ++k) {
        groups[batch[k].frame.network_id].push_back(k);
      }
      for (const auto& [network_id, members] : groups) {
        City& c = cities.at(network_id);
        std::vector<traj::OdInput> ods;
        for (const size_t k : members) ods.push_back(batch[k].frame.od);
        // Which of these miss the result cache, before the batch runs.
        std::vector<traj::OdInput> miss_ods;
        std::vector<serve::OdCacheKey> miss_keys;
        for (const auto& od : ods) {
          const serve::OdCacheKey key = c.service->MakeKey(od);
          if (!c.cache->Get(key).has_value()) {
            miss_ods.push_back(od);
            miss_keys.push_back(key);
          }
        }
        std::vector<double> etas;
        {
          Tracer::Scope span(tracer, "eta_service.estimate_batch",
                             batch[members.front()].frame.request_id);
          etas = c.service->EstimateBatch(ods);
        }
        for (const auto& key : miss_keys) c.cache->Put(key, 0);
        if (!miss_ods.empty()) {
          out.misses += miss_ods.size();
          {
            Tracer::Scope span(tracer, "model.predict_batch");
            c.mirror.model->PredictBatch(miss_ods);
          }
          for (const auto& od : miss_ods) {
            Tracer::Scope span(tracer, "model.encode_external");
            const nn::InferenceGuard guard;  // serving mode: memo engaged
            c.encoder.model->EncodeExternal(od);
          }
        }
        for (size_t j = 0; j < members.size(); ++j) {
          respond(batch[members[j]].frame.request_id, etas[j],
                  net::Estimator::kModel);
        }
      }
    }
  };

  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = *queries[i];
    const std::vector<uint8_t>& frame = wire[i];
    if (rolling != nullptr && due[i] >= next_publish) {
      drain(true);
      size_t folded;
      {
        Tracer::Scope span(tracer, "speed_field.publish");
        folded = rolling->Publish();
      }
      ++out.publishes;
      if (folded > 0) {
        Tracer::Scope span(tracer, "eta_service.bump_epoch");
        live->service->BumpEpoch();
        live->mirror.model->ClearOcodeMemo();
        live->encoder.model->ClearOcodeMemo();
        ++out.bumps;
      }
      while (next_publish <= due[i]) next_publish += publish_s;
    }
    if (q.observe) {
      net::ObserveFrame observe;
      {
        Tracer::Scope span(tracer, "frame.decode", q.write.request_id);
        net::DecodeObservePayload(frame.data() + 4, frame.size() - 4, &observe);
      }
      if (rolling != nullptr) {
        Tracer::Scope span(tracer, "speed_field.ingest", observe.request_id);
        rolling->Ingest(observe.observations);
      }
      respond(observe.request_id, 0.0, net::Estimator::kModel);
      ++out.writes;
      continue;
    }
    ++out.reads;
    net::RequestFrame request;
    {
      Tracer::Scope span(tracer, "frame.decode", q.request.request_id);
      net::DecodeRequestPayload(frame.data() + 4, frame.size() - 4, &request);
    }
    serve::FleetShard* shard;
    {
      Tracer::Scope span(tracer, "fleet.resolve", request.request_id);
      shard = fleet.Resolve(request.network_id);
    }
    bool in_distribution;
    {
      Tracer::Scope span(tracer, "fleet.in_distribution", request.request_id);
      in_distribution = shard->InDistribution(request.od);
    }
    if (!in_distribution && !observe_mode_) {
      std::optional<serve::FleetShard::Fallback> fallback;
      {
        Tracer::Scope span(tracer, "oracle.predict", request.request_id);
        fallback = shard->FallbackEstimate(request.od);
      }
      ++out.oracle;
      respond(request.request_id, fallback ? fallback->eta : 0.0,
              fallback ? fallback->estimator : net::Estimator::kOracle);
      continue;
    }
    net::AdmittedRequest admitted;
    admitted.frame = request;
    admitted.arrival = Clock::now();
    admitted.deadline = Clock::time_point::max();
    {
      Tracer::Scope span(tracer, "admission.offer", request.request_id);
      admission.Offer(std::move(admitted));
    }
    drain(false);
  }
  drain(true);
  out.seconds = Since(start);
  for (const auto& [id, c] : cities) {
    const serve::EtaServiceStats s = c.service->StatsSnapshot();
    out.cache_hits += static_cast<double>(s.cache_hits);
    out.cache_requests += static_cast<double>(s.cache_hits + s.cache_misses);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    const bool observe_mode = args.Str("workload") == "city_observe";
    Replay replay(args, observe_mode);
    // Untraced, traced, untraced: the faster untraced run is the baseline
    // the tracing overhead is measured against.
    Tracer off(false), on(true);
    ReplayResult untraced = replay.Run(off);
    const ReplayResult traced = replay.Run(on);
    const ReplayResult again = replay.Run(off);
    if (again.seconds < untraced.seconds) untraced = again;
    if (!args.Str("trace-out", "").empty()) on.WriteChromeTrace(args.Str("trace-out"));

    const auto totals = on.Totals();
    const auto per_call_ns = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() || it->second.calls == 0
                 ? 0.0
                 : it->second.total_ns / static_cast<double>(it->second.calls);
    };
    const auto total_ns = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_ns;
    };
    // Self time per layer. EstimateBatch contains the model's work for its
    // misses, which the mirror measured separately: subtract it so serve's
    // self time is EstimateBatch without the model.
    // Artifact loading is set-up, not request path: it is reported on its
    // own and left out of the split.
    std::map<std::string, double> self_ns;
    for (const auto& [name, t] : totals) {
      if (name != "artifact.load") self_ns[LayerOf(name)] += t.self_ns;
    }
    const double model_ns = total_ns("model.predict_batch");
    self_ns["serve"] = std::max(0.0, self_ns["serve"] - model_ns);
    self_ns["core"] = model_ns;  // encode_external is a probe, not a stage
    double sum = 0.0;
    for (const auto& [layer, ns] : self_ns) sum += ns;

    std::printf("{\"reads\": %zu, \"writes\": %zu, \"batches\": %zu, "
                "\"batch_fill\": %.4f, \"misses\": %zu, \"oracle\": %zu, "
                "\"publishes\": %zu, \"bumps\": %zu, ",
                traced.reads, traced.writes, traced.batches,
                traced.batches == 0 ? 0.0
                                    : static_cast<double>(traced.batched) /
                                          static_cast<double>(traced.batches),
                traced.misses, traced.oracle, traced.publishes, traced.bumps);
    std::printf("\"untraced_s\": %.6f, \"traced_s\": %.6f, "
                "\"artifact_load_s\": %.6f, \"cache_hit_rate\": %.6f, ",
                untraced.seconds, traced.seconds, untraced.artifact_load_s,
                untraced.cache_requests > 0.0
                    ? untraced.cache_hits / untraced.cache_requests
                    : 0.0);
    std::printf("\"frame_decode_ns\": %.3f, \"frame_encode_ns\": %.3f, "
                "\"admission_offer_ns\": %.3f, \"admission_pop_batch_ns\": %.3f, "
                "\"fleet_resolve_ns\": %.3f, \"fleet_in_distribution_ns\": %.3f, "
                "\"oracle_predict_ns\": %.3f, \"estimate_batch_us\": %.4f, "
                "\"predict_batch_us_per_query\": %.4f, "
                "\"encode_external_us\": %.4f, \"speed_field_ingest_us\": %.4f, "
                "\"speed_field_publish_ms\": %.4f, \"bump_epoch_us\": %.4f, ",
                per_call_ns("frame.decode"), per_call_ns("frame.encode"),
                per_call_ns("admission.offer"), per_call_ns("admission.pop_batch"),
                per_call_ns("fleet.resolve"), per_call_ns("fleet.in_distribution"),
                per_call_ns("oracle.predict"),
                per_call_ns("eta_service.estimate_batch") / 1e3,
                traced.misses == 0 ? 0.0 : model_ns / 1e3 / static_cast<double>(traced.misses),
                per_call_ns("model.encode_external") / 1e3,
                per_call_ns("speed_field.ingest") / 1e3,
                per_call_ns("speed_field.publish") / 1e6,
                per_call_ns("eta_service.bump_epoch") / 1e3);
    std::printf("\"nn_flops_per_query\": %.0f, \"nn_bytes_per_query\": %.0f, ",
                traced.nn_cost.flops, traced.nn_cost.bytes);
    std::printf("\"self_share\": {");
    bool first = true;
    for (const auto& [layer, ns] : self_ns) {
      std::printf("%s\"%s\": %.6f", first ? "" : ", ", layer.c_str(),
                  sum > 0.0 ? ns / sum : 0.0);
      first = false;
    }
    std::printf("}, \"spans\": {");
    first = true;
    for (const auto& [name, t] : totals) {
      std::printf("%s\"%s\": {\"layer\": \"%s\", \"calls\": %llu, "
                  "\"total_ns\": %.0f, \"self_ns\": %.0f}",
                  first ? "" : ", ", name.c_str(), LayerOf(name).c_str(),
                  static_cast<unsigned long long>(t.calls), t.total_ns, t.self_ns);
      first = false;
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_replay: %s\n", e.what());
    return 1;
  }
}
