#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

// Answer checking. Every answer must be finite and positive. Where the
// serving state is the artifact's own (no live speed publish yet), a
// model-tagged answer must equal DeepOdModel::PredictBatch over the same
// artifact bit for bit, and an oracle- or link-mean-tagged answer must
// equal FleetShard::FallbackEstimate. After a publish, answers are held to
// the artifact's plausibility bound instead.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "inputs.h"
#include "wire_driver.h"

namespace deepod::serve {
class FleetRouter;
}
namespace deepod::util {
class ThreadPool;
}

namespace perfbench {

// Where the expected answers come from.
class ExpectedAnswers {
 public:
  virtual ~ExpectedAnswers() = default;
  // The model's answers for `ods` of one city, in order.
  virtual std::vector<double> Model(uint32_t network_id,
                                    const std::vector<deepod::traj::OdInput>& ods) = 0;
  struct Fallback {
    double eta = 0.0;
    uint8_t estimator = 0;
  };
  virtual std::optional<Fallback> FallbackFor(uint32_t network_id,
                                              const deepod::traj::OdInput& od) = 0;
  // Upper bound on a plausible ETA for the city, seconds.
  virtual double PlausibleBound(uint32_t network_id) = 0;
};

// Expected answers from a FleetRouter loaded from the same manifest the
// server serves (same artifacts, default kernel tier, no quantisation —
// the server's own settings).
class FleetExpectedAnswers : public ExpectedAnswers {
 public:
  // `pool` (optional) fans PredictBatch out; chunking never changes results.
  FleetExpectedAnswers(deepod::serve::FleetRouter& fleet,
                       deepod::util::ThreadPool* pool)
      : fleet_(fleet), pool_(pool) {}
  std::vector<double> Model(uint32_t network_id,
                            const std::vector<deepod::traj::OdInput>& ods) override;
  std::optional<Fallback> FallbackFor(uint32_t network_id,
                                      const deepod::traj::OdInput& od) override;
  double PlausibleBound(uint32_t network_id) override;

 private:
  deepod::serve::FleetRouter& fleet_;
  deepod::util::ThreadPool* pool_;
};

// The generator's view of every warm city of `fleet`: segment count, the
// artifact's frozen speed-field window, slot width and the oracle's
// in-distribution test.
std::vector<CityView> CityViewsOf(deepod::serve::FleetRouter& fleet);

struct CheckResult {
  size_t exact_checked = 0;
  size_t bound_checked = 0;
  size_t wrong = 0;    // Ok but not the expected / plausible answer
  size_t shed = 0;     // shed status
  size_t non_ok = 0;   // any other non-Ok status
  size_t lost = 0;     // never answered
  std::vector<std::string> errors;  // the first few mismatches, readable

  size_t failed() const { return wrong + shed + non_ok + lost; }
};

// `exact[i]`: outcome i must match bit for bit (else: plausibility bound).
// Returns per-outcome failure flags through *failed_out when non-null.
CheckResult CheckAnswers(const std::vector<Query>& queries,
                         const std::vector<WireOutcome>& outcomes,
                         const std::vector<bool>& exact,
                         ExpectedAnswers& expected,
                         std::vector<bool>* failed_out = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
