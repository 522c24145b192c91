#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <tuple>
#include <unordered_map>

#include "serve/fleet_router.h"

namespace perfbench {

namespace net = deepod::serve::net;
using deepod::traj::OdInput;

std::vector<double> FleetExpectedAnswers::Model(
    uint32_t network_id, const std::vector<OdInput>& ods) {
  deepod::serve::FleetShard* shard = fleet_.Resolve(network_id);
  if (shard == nullptr || shard->service() == nullptr) {
    return std::vector<double>(ods.size(), std::nan(""));
  }
  return shard->service()->state()->model->PredictBatch(ods, pool_);
}

std::optional<ExpectedAnswers::Fallback> FleetExpectedAnswers::FallbackFor(
    uint32_t network_id, const OdInput& od) {
  deepod::serve::FleetShard* shard = fleet_.Resolve(network_id);
  if (shard == nullptr) return std::nullopt;
  const auto fallback = shard->FallbackEstimate(od);
  if (!fallback) return std::nullopt;
  return Fallback{fallback->eta, static_cast<uint8_t>(fallback->estimator)};
}

double FleetExpectedAnswers::PlausibleBound(uint32_t network_id) {
  deepod::serve::FleetShard* shard = fleet_.Resolve(network_id);
  if (shard == nullptr || shard->service() == nullptr) return 0.0;
  // Ten mean training trips: the model's time scale is the mean training
  // travel time of the artifact.
  return 10.0 * shard->service()->state()->model->time_scale();
}

std::vector<CityView> CityViewsOf(deepod::serve::FleetRouter& fleet) {
  std::vector<CityView> views;
  for (const auto& shard : fleet.shards()) {
    const auto service = shard->service();
    if (service == nullptr) continue;
    const auto state = service->state();
    CityView v;
    v.network_id = shard->network_id();
    v.num_segments = shard->num_segments();
    v.slot_seconds = state->bundle->config.slot_seconds;
    const auto* speed = state->bundle->speed.get();
    if (speed == nullptr) continue;
    v.window_begin = speed->first_snapshot_time();
    v.window_end = speed->last_snapshot_time();
    const deepod::serve::FleetShard* s = shard.get();
    v.in_distribution = [s](const OdInput& od) { return s->InDistribution(od); };
    views.push_back(std::move(v));
  }
  return views;
}

namespace {

using OdKey = std::tuple<size_t, size_t, uint64_t, uint64_t, uint64_t, int>;

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

OdKey KeyOf(const OdInput& od) {
  return {od.origin_segment, od.dest_segment, Bits(od.origin_ratio),
          Bits(od.dest_ratio), Bits(od.departure_time), od.weather_type};
}

struct OdKeyHash {
  size_t operator()(const OdKey& k) const {
    uint64_t h = 0;
    const auto mix = [&h](uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(std::get<0>(k));
    mix(std::get<1>(k));
    mix(std::get<2>(k));
    mix(std::get<3>(k));
    mix(std::get<4>(k));
    mix(static_cast<uint64_t>(std::get<5>(k)));
    return static_cast<size_t>(h);
  }
};

}  // namespace

CheckResult CheckAnswers(const std::vector<Query>& queries,
                         const std::vector<WireOutcome>& outcomes,
                         const std::vector<bool>& exact,
                         ExpectedAnswers& expected,
                         std::vector<bool>* failed_out) {
  CheckResult r;
  std::vector<bool> failed(queries.size(), false);
  const auto fail = [&](size_t i, const std::string& why) {
    failed[i] = true;
    ++r.wrong;
    if (r.errors.size() < 5) r.errors.push_back(why);
  };

  // Expected model answers, one PredictBatch per city over distinct ODs;
  // slot[i] is request i's position in its city's batch.
  constexpr size_t kNoSlot = static_cast<size_t>(-1);
  std::vector<size_t> slot(queries.size(), kNoSlot);
  std::map<uint32_t, std::vector<double>> model_etas;
  {
    std::map<uint32_t, std::vector<OdInput>> wanted;
    std::map<uint32_t, std::unordered_map<OdKey, size_t, OdKeyHash>> index;
    for (size_t i = 0; i < queries.size(); ++i) {
      const WireOutcome& o = outcomes[i];
      if (queries[i].observe || !exact[i] || !o.received ||
          o.status != static_cast<uint8_t>(net::Status::kOk) ||
          o.estimator != static_cast<uint8_t>(net::Estimator::kModel)) {
        continue;
      }
      const uint32_t city = queries[i].network_id();
      const OdInput od = WireOd(queries[i]);
      std::vector<OdInput>& ods = wanted[city];
      const auto [it, inserted] = index[city].emplace(KeyOf(od), ods.size());
      if (inserted) ods.push_back(od);
      slot[i] = it->second;
    }
    for (const auto& [city, ods] : wanted) {
      // Ordered by weather and departure, ODs that share a traffic-CNN code
      // (weather x speed snapshot) sit together, so the model computes each
      // code once and serves the rest from its ocode memo. A memo hit is
      // bit-identical to a miss, so the order changes no answer.
      std::vector<size_t> order(ods.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&ods](size_t a, size_t b) {
        return std::tie(ods[a].weather_type, ods[a].departure_time) <
               std::tie(ods[b].weather_type, ods[b].departure_time);
      });
      std::vector<OdInput> sorted;
      sorted.reserve(ods.size());
      for (const size_t k : order) sorted.push_back(ods[k]);
      const std::vector<double> etas = expected.Model(city, sorted);
      std::vector<double>& out = model_etas[city];
      out.resize(ods.size());
      for (size_t k = 0; k < order.size(); ++k) out[order[k]] = etas[k];
    }
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const WireOutcome& o = outcomes[i];
    if (!o.received) {
      ++r.lost;
      failed[i] = true;
      continue;
    }
    const auto status = static_cast<net::Status>(o.status);
    if (status != net::Status::kOk) {
      if (net::IsShed(status)) {
        ++r.shed;
      } else {
        ++r.non_ok;
      }
      failed[i] = true;
      continue;
    }
    if (q.observe) {
      if (!std::isfinite(o.eta)) fail(i, "observe ack with non-finite eta");
      continue;
    }
    const bool model = o.estimator == static_cast<uint8_t>(net::Estimator::kModel);
    char buf[256];
    if (!std::isfinite(o.eta) || !(o.eta > 0.0)) {
      std::snprintf(buf, sizeof(buf), "request %zu: eta %a not finite/positive",
                    i, o.eta);
      fail(i, buf);
      continue;
    }
    if (!exact[i]) {
      ++r.bound_checked;
      const double bound = expected.PlausibleBound(q.network_id());
      if (!(o.eta < bound)) {
        std::snprintf(buf, sizeof(buf),
                      "request %zu: eta %.3f above the plausible bound %.3f",
                      i, o.eta, bound);
        fail(i, buf);
      }
      continue;
    }
    ++r.exact_checked;
    double want;
    uint8_t want_estimator = o.estimator;
    if (model) {
      want = model_etas[q.network_id()][slot[i]];
    } else {
      const auto fb = expected.FallbackFor(q.network_id(), WireOd(q));
      want = fb ? fb->eta : std::nan("");
      if (fb) want_estimator = fb->estimator;
    }
    if (Bits(want) != Bits(o.eta) || want_estimator != o.estimator) {
      std::snprintf(buf, sizeof(buf),
                    "request %zu (network %u, %s): served %a, expected %a",
                    i, q.network_id(),
                    net::EstimatorName(static_cast<net::Estimator>(o.estimator)),
                    o.eta, want);
      fail(i, buf);
    }
  }
  if (failed_out != nullptr) *failed_out = std::move(failed);
  return r;
}

}  // namespace perfbench
