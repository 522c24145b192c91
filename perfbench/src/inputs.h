#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation for the serving workloads. The generator sees
// each city only through CityView (segment count, the model's frozen
// speed-field window, the cache grid, and an in-distribution predicate),
// so the same seed yields byte-identical request streams on every commit
// and the program under test receives nothing but the generated frames.
//
// Every generated field sits on the grid the EtaService result cache keys
// on: ratios at ratio-bucket centres and departures at slot starts inside
// one week of the artifact's speed-field window. A cache key therefore
// stands for exactly one input, which is what lets the checker demand
// bit-identical answers from cached and uncached paths alike.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/server/frame.h"
#include "traj/trajectory.h"
#include "util/rng.h"

namespace perfbench {

struct CityView {
  uint32_t network_id = 0;
  size_t num_segments = 0;
  // Departure domain: slot starts in [window_begin, window_end].
  double window_begin = 0.0;
  double window_end = 0.0;
  double slot_seconds = 300.0;
  // false = the city's oracle has never seen the OD cell pair.
  std::function<bool(const deepod::traj::OdInput&)> in_distribution;
};

enum class Mix {
  kNow,      // fleet_now: repeated in-distribution ODs, current 30 minutes
  kWeek,     // fleet_week: barely repeating ODs over the whole window
  kObserve,  // city_observe: kNow reads plus ObserveTrip writes
};

// Parses "fleet_now" / "fleet_week" / "city_observe"; throws otherwise.
Mix ParseMix(const std::string& workload);

// The result cache's ratio-bucket width (EtaServiceOptions::ratio_bucket):
// generated ratios sit at the centres of these buckets.
double RatioBucket();

// kWeek: share of reads drawn out of the oracle's distribution.
inline constexpr double kWeekOodShare = 0.10;

struct MixOptions {
  Mix mix = Mix::kNow;
  uint64_t seed = 1;
  double observe_share = 0.0;  // kObserve: share of frames that are writes
};

// One generated frame: a read (RequestFrame) or a write (ObserveFrame).
struct Query {
  bool observe = false;
  deepod::serve::net::RequestFrame request;
  deepod::serve::net::ObserveFrame write;

  uint32_t network_id() const {
    return observe ? write.network_id : request.network_id;
  }
};

class InputGenerator {
 public:
  InputGenerator(const MixOptions& options, std::vector<CityView> cities);

  // The next query of the stream, round-robin over cities. `request_id` is
  // stamped into the frame (the load generator correlates responses by it).
  Query Next(uint64_t request_id);

  // Every distinct read input the stream can produce in the kNow/kObserve
  // mixes (city pools x current slots); empty for kWeek. Used to warm the
  // server before measuring.
  std::vector<Query> WarmupSet(uint64_t first_request_id) const;

 private:
  struct CityState {
    std::vector<deepod::traj::OdInput> pool;  // kNow/kObserve
    double now_slot_start = 0.0;
    int weather = 0;
  };

  deepod::traj::OdInput DrawOd(size_t city, bool want_in_distribution);
  double SlotStart(const CityView& city, int64_t k) const;
  double RatioCentre();

  MixOptions options_;
  std::vector<CityView> cities_;
  std::vector<CityState> state_;
  deepod::util::Rng rng_;
  uint64_t counter_ = 0;
};

// The inputs every serving run starts with, drawn in this order from one
// generator: the warm-up set (every distinct read of the repeated mixes;
// 2000 stream queries for kWeek) paced at 4000/s, then the nominal phase's
// Poisson stream at `rate` for `seconds`. The wire run and the traced replay
// both call this, so they see the same bytes. Request ids start at 1.
struct ServingInputs {
  std::vector<Query> warmup;
  std::vector<double> warmup_due;
  std::vector<Query> nominal;
  std::vector<double> nominal_due;
  uint64_t next_id = 1;  // first id after the nominal phase
};
ServingInputs GenerateServingInputs(InputGenerator& gen, uint64_t seed,
                                    double rate, double seconds);

// Open-loop Poisson due times (seconds from stream start) at `rate` per
// second over `seconds`.
std::vector<double> PoissonSchedule(uint64_t seed, double rate, double seconds);

// The wire bytes of a query (length prefix included).
std::vector<uint8_t> EncodeQuery(const Query& query);

// The OD exactly as the server sees it after decoding the wire frame.
deepod::traj::OdInput WireOd(const Query& query);

// Workload input properties, so later performance claims can name the
// property they depend on.
struct InputProperties {
  double cache_key_repeat_share = 0.0;  // reads whose (city, key) repeats
  double ocode_keys = 0.0;  // distinct (city, weather, 300 s snapshot) keys
  double ood_share = 0.0;   // reads outside the oracle's distribution
  double observe_share = 0.0;
};
InputProperties MeasureInputs(const std::vector<Query>& queries,
                              const std::vector<CityView>& cities);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
