#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>

#include "core/encoders.h"
#include "serve/eta_service.h"

namespace perfbench {

using deepod::serve::net::ObserveFrame;
using deepod::serve::net::RequestFrame;
using deepod::traj::OdInput;

namespace {

constexpr int kWeatherTypes =
    static_cast<int>(deepod::core::ExternalFeaturesEncoder::kNumWeatherTypes);
constexpr double kWeekSeconds = 7.0 * 86400.0;
constexpr int kMaxDrawAttempts = 4096;
// kNow/kObserve: distinct ODs per city, and the "current" 30 minutes as
// six 300 s slots.
constexpr size_t kPoolPerCity = 24;
constexpr size_t kNowSlots = 6;
constexpr size_t kObservationsPerTrip = 6;

}  // namespace

double RatioBucket() { return deepod::serve::EtaServiceOptions{}.ratio_bucket; }

Mix ParseMix(const std::string& workload) {
  if (workload == "fleet_now") return Mix::kNow;
  if (workload == "fleet_week") return Mix::kWeek;
  if (workload == "city_observe") return Mix::kObserve;
  throw std::invalid_argument("unknown serving workload '" + workload + "'");
}

InputGenerator::InputGenerator(const MixOptions& options,
                               std::vector<CityView> cities)
    : options_(options), cities_(std::move(cities)), rng_(options.seed) {
  if (cities_.empty()) throw std::invalid_argument("no cities");
  for (const CityView& city : cities_) {
    if (city.num_segments == 0 || !(city.window_end >= city.window_begin)) {
      throw std::invalid_argument("city without segments or window");
    }
  }
  state_.resize(cities_.size());
  if (options_.mix == Mix::kWeek) return;
  for (size_t c = 0; c < cities_.size(); ++c) {
    CityState& s = state_[c];
    // "Now": a seed-chosen 30-minute stretch of the window, one weather.
    const double span = std::min(cities_[c].window_end - cities_[c].window_begin,
                                 kWeekSeconds);
    const int64_t slots = static_cast<int64_t>(
        std::floor(span / cities_[c].slot_seconds));
    const int64_t latest =
        std::max<int64_t>(0, slots - static_cast<int64_t>(kNowSlots));
    s.now_slot_start =
        SlotStart(cities_[c], static_cast<int64_t>(rng_.UniformInt(
                                  static_cast<uint64_t>(latest) + 1)));
    s.weather = static_cast<int>(rng_.UniformInt(kWeatherTypes));
    std::set<std::tuple<size_t, size_t, double, double>> seen;
    for (int attempt = 0;
         s.pool.size() < kPoolPerCity && attempt < kMaxDrawAttempts;
         ++attempt) {
      OdInput od = DrawOd(c, /*want_in_distribution=*/true);
      if (seen.insert({od.origin_segment, od.dest_segment, od.origin_ratio,
                       od.dest_ratio})
              .second) {
        s.pool.push_back(od);
      }
    }
    if (s.pool.empty()) throw std::runtime_error("empty OD pool");
  }
}

double InputGenerator::SlotStart(const CityView& city, int64_t k) const {
  const double first =
      std::ceil(city.window_begin / city.slot_seconds) * city.slot_seconds;
  return first + static_cast<double>(k) * city.slot_seconds;
}

double InputGenerator::RatioCentre() {
  const double width = RatioBucket();
  const uint64_t buckets = static_cast<uint64_t>(std::llround(1.0 / width));
  return (static_cast<double>(rng_.UniformInt(buckets)) + 0.5) * width;
}

OdInput InputGenerator::DrawOd(size_t c, bool want_in_distribution) {
  const CityView& city = cities_[c];
  OdInput od;
  for (int attempt = 0; attempt < kMaxDrawAttempts; ++attempt) {
    od.origin_segment = rng_.UniformInt(city.num_segments);
    od.dest_segment = rng_.UniformInt(city.num_segments);
    od.origin_ratio = RatioCentre();
    od.dest_ratio = RatioCentre();
    if (od.origin_segment == od.dest_segment) continue;
    if (!city.in_distribution ||
        city.in_distribution(od) == want_in_distribution) {
      return od;
    }
  }
  throw std::runtime_error("could not draw an OD with the wanted coverage");
}

Query InputGenerator::Next(uint64_t request_id) {
  const size_t c = counter_++ % cities_.size();
  const CityView& city = cities_[c];
  CityState& s = state_[c];
  OdInput od;
  if (options_.mix == Mix::kWeek) {
    od = DrawOd(c, rng_.Uniform() >= kWeekOodShare);
    const double span =
        std::min(city.window_end - city.window_begin, kWeekSeconds - 1.0);
    const uint64_t slots =
        static_cast<uint64_t>(std::floor(span / city.slot_seconds)) + 1;
    od.departure_time =
        SlotStart(city, static_cast<int64_t>(rng_.UniformInt(slots)));
    if (od.departure_time > city.window_end) {
      od.departure_time -= city.slot_seconds;
    }
    od.weather_type = static_cast<int>(rng_.UniformInt(kWeatherTypes));
  } else {
    od = s.pool[rng_.UniformInt(s.pool.size())];
    od.departure_time =
        s.now_slot_start +
        static_cast<double>(rng_.UniformInt(kNowSlots)) *
            city.slot_seconds;
    od.weather_type = s.weather;
  }
  Query q;
  if (options_.mix == Mix::kObserve && rng_.Uniform() < options_.observe_share) {
    q.observe = true;
    ObserveFrame& w = q.write;
    w.request_id = request_id;
    w.network_id = city.network_id;
    w.od = od;
    w.actual_seconds = rng_.Uniform(120.0, 1200.0);
    for (size_t i = 0; i < kObservationsPerTrip; ++i) {
      deepod::sim::TripObservation o;
      o.segment_id = rng_.UniformInt(city.num_segments);
      o.time = od.departure_time + 60.0 * static_cast<double>(i);
      o.speed_mps = rng_.Uniform(3.0, 15.0);
      w.observations.push_back(o);
    }
    return q;
  }
  RequestFrame& r = q.request;
  r.request_id = request_id;
  r.network_id = city.network_id;
  r.tenant_id = 0;
  r.priority = 1;
  r.deadline_ms = 0;
  r.od = od;
  return q;
}

std::vector<Query> InputGenerator::WarmupSet(uint64_t first_request_id) const {
  std::vector<Query> out;
  if (options_.mix == Mix::kWeek) return out;
  uint64_t id = first_request_id;
  for (size_t c = 0; c < cities_.size(); ++c) {
    for (const OdInput& base : state_[c].pool) {
      for (size_t k = 0; k < kNowSlots; ++k) {
        Query q;
        q.request.request_id = id++;
        q.request.network_id = cities_[c].network_id;
        q.request.od = base;
        q.request.od.departure_time =
            state_[c].now_slot_start +
            static_cast<double>(k) * cities_[c].slot_seconds;
        q.request.od.weather_type = state_[c].weather;
        out.push_back(std::move(q));
      }
    }
  }
  return out;
}

ServingInputs GenerateServingInputs(InputGenerator& gen, uint64_t seed,
                                    double rate, double seconds) {
  ServingInputs in;
  in.warmup = gen.WarmupSet(in.next_id);
  in.next_id += in.warmup.size();
  if (in.warmup.empty()) {
    for (int i = 0; i < 2000; ++i) in.warmup.push_back(gen.Next(in.next_id++));
  }
  for (size_t i = 0; i < in.warmup.size(); ++i) {
    in.warmup_due.push_back(static_cast<double>(i) / 4000.0);
  }
  in.nominal_due = PoissonSchedule(seed, rate, seconds);
  for (size_t i = 0; i < in.nominal_due.size(); ++i) {
    in.nominal.push_back(gen.Next(in.next_id++));
  }
  return in;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds) {
  deepod::util::Rng rng(seed ^ 0x5bd1e995u);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

std::vector<uint8_t> EncodeQuery(const Query& query) {
  return query.observe
             ? deepod::serve::net::EncodeObserveFrame(query.write)
             : deepod::serve::net::EncodeRequestFrame(query.request);
}

OdInput WireOd(const Query& query) {
  const std::vector<uint8_t> wire = EncodeQuery(query);
  if (query.observe) {
    ObserveFrame out;
    deepod::serve::net::DecodeObservePayload(wire.data() + 4, wire.size() - 4,
                                             &out);
    return out.od;
  }
  RequestFrame out;
  deepod::serve::net::DecodeRequestPayload(wire.data() + 4, wire.size() - 4,
                                           &out);
  return out.od;
}

InputProperties MeasureInputs(const std::vector<Query>& queries,
                              const std::vector<CityView>& cities) {
  const double ratio_bucket = RatioBucket();
  InputProperties p;
  std::set<std::tuple<uint32_t, size_t, size_t, int64_t, int, int64_t,
                      int64_t>>
      keys;
  std::set<std::tuple<uint32_t, int, int64_t>> ocode;
  size_t reads = 0, repeats = 0, ood = 0, writes = 0;
  for (const Query& q : queries) {
    if (q.observe) {
      ++writes;
      continue;
    }
    ++reads;
    const OdInput& od = q.request.od;
    const CityView* city = nullptr;
    for (const CityView& c : cities) {
      if (c.network_id == q.request.network_id) city = &c;
    }
    const double slot_seconds = city != nullptr ? city->slot_seconds : 300.0;
    const int64_t slot =
        static_cast<int64_t>(std::floor(od.departure_time / slot_seconds));
    const auto bucket = [ratio_bucket](double r) {
      return static_cast<int64_t>(std::clamp(r, 0.0, 1.0) / ratio_bucket);
    };
    if (!keys.insert({q.request.network_id, od.origin_segment,
                      od.dest_segment, slot, od.weather_type,
                      bucket(od.origin_ratio), bucket(od.dest_ratio)})
             .second) {
      ++repeats;
    }
    ocode.insert({q.request.network_id, od.weather_type,
                  static_cast<int64_t>(std::floor(od.departure_time / 300.0))});
    if (city != nullptr && city->in_distribution &&
        !city->in_distribution(od)) {
      ++ood;
    }
  }
  const double n = static_cast<double>(std::max<size_t>(reads, 1));
  p.cache_key_repeat_share = static_cast<double>(repeats) / n;
  p.ocode_keys = static_cast<double>(ocode.size());
  p.ood_share = static_cast<double>(ood) / n;
  p.observe_share = queries.empty() ? 0.0
                                    : static_cast<double>(writes) /
                                          static_cast<double>(queries.size());
  return p;
}

}  // namespace perfbench
