// Tests of the benchmark's own code: input determinism, the percentile
// math, the answer checker, the steal-aware estimates and the closed-loop
// rate. Run through
// `python3 perfbench/run.py --selftest` or ctest in the benchmark's build.

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "inputs.h"
#include "stats.h"
#include "wire_driver.h"

namespace {

using namespace perfbench;
using deepod::traj::OdInput;

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

std::vector<CityView> SyntheticCities() {
  std::vector<CityView> cities;
  for (uint32_t id : {3u, 7u}) {
    CityView c;
    c.network_id = id;
    c.num_segments = 40 + id;
    c.window_begin = 86400.0 + 123.0;
    c.window_end = 3.5 * 86400.0;
    c.in_distribution = [](const OdInput& od) {
      return (od.origin_segment + od.dest_segment) % 3 != 0;
    };
    cities.push_back(c);
  }
  return cities;
}

std::vector<uint8_t> InputBytes(Mix mix, uint64_t seed) {
  MixOptions options;
  options.mix = mix;
  options.seed = seed;
  options.observe_share = mix == Mix::kObserve ? 0.2 : 0.0;
  InputGenerator gen(options, SyntheticCities());
  const ServingInputs in = GenerateServingInputs(gen, seed, 3000.0, 0.5);
  std::vector<uint8_t> bytes;
  const auto append = [&bytes](const std::vector<Query>& qs,
                               const std::vector<double>& due) {
    for (size_t i = 0; i < qs.size(); ++i) {
      const std::vector<uint8_t> frame = EncodeQuery(qs[i]);
      bytes.insert(bytes.end(), frame.begin(), frame.end());
      const auto* d = reinterpret_cast<const uint8_t*>(&due[i]);
      bytes.insert(bytes.end(), d, d + sizeof(double));
    }
  };
  append(in.warmup, in.warmup_due);
  append(in.nominal, in.nominal_due);
  return bytes;
}

void TestSameSeedSameBytes() {
  for (Mix mix : {Mix::kNow, Mix::kWeek, Mix::kObserve}) {
    const std::vector<uint8_t> a = InputBytes(mix, 42);
    EXPECT(!a.empty());
    EXPECT(a == InputBytes(mix, 42));
    EXPECT(a != InputBytes(mix, 43));
  }
}

void TestInputsOnTheCacheGrid() {
  MixOptions options;
  options.mix = Mix::kWeek;
  options.seed = 5;
  const std::vector<CityView> cities = SyntheticCities();
  InputGenerator gen(options, cities);
  size_t ood = 0;
  const size_t n = 4000;
  for (uint64_t id = 1; id <= n; ++id) {
    const Query q = gen.Next(id);
    const OdInput& od = q.request.od;
    const CityView& city = cities[(id - 1) % cities.size()];
    EXPECT(q.request.network_id == city.network_id);
    EXPECT(od.origin_segment < city.num_segments);
    // Slot starts inside the window and inside one week of it.
    EXPECT(std::fmod(od.departure_time, city.slot_seconds) == 0.0);
    EXPECT(od.departure_time >= city.window_begin);
    EXPECT(od.departure_time <= city.window_end);
    // Ratios at bucket centres: exactly one input per cache key.
    const double r = od.origin_ratio / RatioBucket() - 0.5;
    EXPECT(std::fabs(r - std::round(r)) < 1e-9);
    EXPECT(od.weather_type >= 0 && od.weather_type < 16);
    if (!city.in_distribution(od)) ++ood;
  }
  const double share = static_cast<double>(ood) / static_cast<double>(n);
  EXPECT(share > 0.07 && share < 0.13);
}

void TestPercentilesCountFailuresAsMisses() {
  std::vector<double> lat;
  for (int i = 1; i <= 98; ++i) lat.push_back(0.1 * i);
  lat.push_back(kFailed);
  lat.push_back(kFailed);
  LatencySummary s = Summarize(lat);
  EXPECT(s.samples == 100);
  EXPECT(s.failed == 2);
  EXPECT(std::isinf(s.p99_ms));  // 2% failed > the 1% tail
  EXPECT(std::fabs(s.p50_ms - 5.0) < 1e-9);
  // One failure in 200 stays inside the 1% tail.
  lat.assign(199, 1.0);
  lat.push_back(kFailed);
  s = Summarize(lat);
  EXPECT(s.failed == 1);
  EXPECT(s.p99_ms == 1.0);
  EXPECT(Percentile({}, 0.5) == 0.0);
}

// Expected answers from a closed formula; the checker must accept exactly
// these and nothing else.
class FormulaAnswers : public ExpectedAnswers {
 public:
  static double ModelEta(const OdInput& od) {
    return 60.0 + static_cast<double>(od.origin_segment) +
           od.departure_time / 1e6;
  }
  std::vector<double> Model(uint32_t, const std::vector<OdInput>& ods) override {
    std::vector<double> out;
    for (const OdInput& od : ods) out.push_back(ModelEta(od));
    return out;
  }
  std::optional<Fallback> FallbackFor(uint32_t, const OdInput& od) override {
    return Fallback{500.0 + static_cast<double>(od.dest_segment), 1};
  }
  double PlausibleBound(uint32_t) override { return 5000.0; }
};

void TestCheckerFiresOnOneWrongEta() {
  MixOptions options;
  options.mix = Mix::kWeek;
  options.seed = 9;
  InputGenerator gen(options, SyntheticCities());
  std::vector<Query> queries;
  std::vector<WireOutcome> outcomes;
  FormulaAnswers expected;
  for (uint64_t id = 1; id <= 300; ++id) {
    queries.push_back(gen.Next(id));
    WireOutcome o;
    o.received = true;
    const OdInput od = WireOd(queries.back());
    if (id % 10 == 0) {
      o.estimator = 1;  // oracle-tagged
      o.eta = 500.0 + static_cast<double>(od.dest_segment);
    } else {
      o.eta = FormulaAnswers::ModelEta(od);
    }
    outcomes.push_back(o);
  }
  const std::vector<bool> exact(queries.size(), true);
  CheckResult r = CheckAnswers(queries, outcomes, exact, expected);
  EXPECT(r.wrong == 0);
  EXPECT(r.failed() == 0);
  EXPECT(r.exact_checked == 300);

  // One ETA off by one ulp.
  std::vector<WireOutcome> bad = outcomes;
  bad[17].eta = std::nextafter(bad[17].eta, 1e9);
  std::vector<bool> failed;
  r = CheckAnswers(queries, bad, exact, expected, &failed);
  EXPECT(r.wrong == 1);
  EXPECT(failed[17]);
  EXPECT(!r.errors.empty());

  // A model answer tagged as the oracle's, a negative ETA, a NaN.
  bad = outcomes;
  bad[3].estimator = 1;
  bad[4].eta = -1.0;
  bad[5].eta = std::nan("");
  r = CheckAnswers(queries, bad, exact, expected);
  EXPECT(r.wrong == 3);

  // Lost and shed requests are failures, not wrong answers.
  bad = outcomes;
  bad[6].received = false;
  bad[7].status = 7;  // kShedQueueFull
  r = CheckAnswers(queries, bad, exact, expected);
  EXPECT(r.wrong == 0 && r.lost == 1 && r.shed == 1 && r.failed() == 2);

  // After a publish only the plausibility bound holds.
  const std::vector<bool> loose(queries.size(), false);
  bad = outcomes;
  bad[8].eta += 1.0;  // no longer the artifact's answer, still plausible
  bad[9].eta = 1e7;   // implausible
  r = CheckAnswers(queries, bad, loose, expected);
  EXPECT(r.wrong == 1 && r.bound_checked == 300);
}

void TestStealAwareEstimates() {
  // Rounds 1, 3 and 5 lost CPU to the hypervisor; the median over the calm
  // rounds is taken over rounds 0, 2 and 4 alone.
  const std::vector<double> rate = {10.0, 4.0, 11.0, 3.0, 12.0, 9.0};
  EXPECT(CalmMedian(rate, {0.0, 0.2, 0.01, 0.3, 0.02, 0.25}) == 11.0);
  // Every round within kCalmSteal is calm, however many there are.
  EXPECT(CalmMedian(rate, std::vector<double>(6, 0.0)) == 9.0);
  EXPECT(CalmMedian(rate, {0.01, 0.02, 0.0, 0.015, 0.005, 0.02}) == 9.0);
  EXPECT(CalmMedian(rate, {0.0, 0.2, 0.0, 0.3, 0.0, 0.0}) == 10.0);
  // A host that steals throughout: the calmest half.
  EXPECT(CalmMedian(rate, {0.05, 0.2, 0.06, 0.3, 0.07, 0.25}) == 11.0);
  EXPECT(CalmMedian({}, {}) == 0.0);
  // Rates read at zero steal from a line that falls with steal; never
  // further below the calmest round than the steal spans.
  const auto line = [](double x) { return 100.0 * (1.0 - 2.0 * x); };
  std::vector<double> steal = {0.05, 0.25, 0.1, 0.2, 0.15}, value;
  for (const double x : steal) value.push_back(line(x));
  EXPECT(std::fabs(AtZeroSteal(value, steal) - 100.0) < 1e-9);
  steal = {0.2, 0.3, 0.25, 0.22, 0.28};  // span 0.1: read at 0.1
  value.clear();
  for (const double x : steal) value.push_back(line(x));
  EXPECT(std::fabs(AtZeroSteal(value, steal) - line(0.1)) < 1e-9);
  // Steal too even to fit a line: the calm median.
  EXPECT(AtZeroSteal(rate, {0.0, 0.01, 0.0, 0.02, 0.0, 0.0}) ==
         CalmMedian(rate, {0.0, 0.01, 0.0, 0.02, 0.0, 0.0}));
  EXPECT(AtZeroSteal({}, {}) == 0.0);
  CpuTicks a{5.0, 100.0}, b{8.0, 200.0};
  EXPECT(std::fabs(StealShare(a, b) - 0.03) < 1e-12);
  EXPECT(StealShare(b, b) == 0.0);
}

void TestClosedLoopRate() {
  // Four requests sent at 1.0 s; three answered by 1.5 s, one lost.
  std::vector<WireOutcome> outcomes(4);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].sent_s = 1.0;
    outcomes[i].received = i != 2;
    outcomes[i].recv_s = outcomes[i].received ? 1.1 + 0.2 * i : 0.0;
  }
  outcomes[3].recv_s = 1.5;
  EXPECT(std::fabs(ClosedLoopRate(outcomes) - 3.0 / 0.5) < 1e-9);
  for (WireOutcome& o : outcomes) o.received = false;
  EXPECT(ClosedLoopRate(outcomes) == 0.0);
}

}  // namespace

int main() {
  TestSameSeedSameBytes();
  TestInputsOnTheCacheGrid();
  TestPercentilesCountFailuresAsMisses();
  TestCheckerFiresOnOneWrongEta();
  TestStealAwareEstimates();
  TestClosedLoopRate();
  if (g_failures != 0) {
    std::fprintf(stderr, "pb_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("pb_selftest: all tests passed\n");
  return 0;
}
