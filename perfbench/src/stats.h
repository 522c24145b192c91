#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Latency summaries and the serving runs' fixed settings. A failed request
// (shed, non-Ok, lost or wrong) carries an infinite latency, so it counts
// as an SLO miss in every percentile instead of silently dropping out of
// the sample.

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kFailed = std::numeric_limits<double>::infinity();

// The serving runs' fixed settings, the same on every commit. Per-workload
// values (rates, cities, write share, publish period) are in
// perfbench/workloads.json.
//
// A stretch of schedule whose send lateness p99 exceeds this is invalid:
// it measured the load generator, not the server. Host vCPU stalls of a
// few milliseconds hit generator and server alike and are part of the
// measured latency; lateness past this limit means the generator itself
// fell behind.
inline constexpr double kLateLimitMs = 5.0;
// An untraced run drives this many saturation bursts over its seconds.
inline constexpr size_t kBursts = 20;
// The traced pass drives the nominal rate for this share of its seconds,
// as this many consecutive slices.
inline constexpr double kNominalShare = 0.4;
inline constexpr size_t kSlices = 16;
// On a shared host the hypervisor takes CPU time from this machine's vCPUs
// ("steal" in /proc/stat); while it does, every thread of server and load
// generator runs slower, for seconds to minutes at a time. Every round of a
// run (a burst, a nominal slice, a window of training steps) records the
// steal share over its own drive, and the run reports its figures from
// that pairing rather than from whichever rounds the host happened to
// spare:
//  - Rates (AtZeroSteal): a rate falls about linearly with steal, so the
//    least-squares line of the rounds' rates against their steal is read at
//    zero steal, but no further below the calmest round's steal than the
//    rounds' steal spans: the line is trusted only as far out as the data
//    that fixed it. When the steal spans less than kMinStealSpan the line
//    is undetermined and the rate is their CalmMedian.
//  - Latencies (CalmMedian): a latency grows far faster than linearly with
//    steal, so it is the median over the calm rounds: every round with at
//    most kCalmSteal steal, or, when those are fewer than kCalmShare of the
//    rounds, the kCalmShare of the rounds with the least steal.
// Both use the host's counter, not the figures, to weigh the rounds, so a
// change to the program moves the reported figure as it moves every round.
inline constexpr double kCalmSteal = 0.02;
inline constexpr double kCalmShare = 0.5;
inline constexpr double kMinStealSpan = 0.03;
// Requests in flight during a saturation burst: the server's batch limit
// (--max-batch 32) on each of the two connections, so every executor can
// fill a batch while the queue stays far below --queue-capacity.
inline constexpr size_t kBurstWindow = 64;
// A burst draws from kBurstHeadroom x peak_rate x its seconds generated
// frames; a server that answers faster than that ends its bursts early.
inline constexpr double kBurstHeadroom = 1.25;
// Traced pass: stats-frame sampling period, and the length of the
// in-process replay as a share of the nominal phase.
inline constexpr double kStatsEverySeconds = 0.05;
inline constexpr double kReplayShare = 0.15;

// Nearest-rank percentile (q in [0, 1]) of `values`, infinities included.
// Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// Cumulative CPU ticks of all of this machine's CPUs: stolen, and in all
// states (/proc/stat's first line). Zero when it cannot be read.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks ReadCpuTicks();
// Share of the ticks from `before` to `after` that were stolen.
double StealShare(const CpuTicks& before, const CpuTicks& after);

// Median of values[i] over the calm rounds: those whose steal[i] is at most
// kCalmSteal or the kCalmShare quantile of steal, whichever is larger (so
// rounds tied with the last of the calmest kCalmShare are kept too). 0 for
// no values.
double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal);

// The least-squares line of values[i] against steal[i], read at zero steal
// or at the least steal minus the steal's span, whichever is higher;
// CalmMedian when the steal spans less than kMinStealSpan.
double AtZeroSteal(const std::vector<double>& values,
                   const std::vector<double>& steal);

struct LatencySummary {
  size_t samples = 0;  // every sent request, failures included
  size_t failed = 0;   // requests with infinite latency
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};
LatencySummary Summarize(const std::vector<double>& latency_ms);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
