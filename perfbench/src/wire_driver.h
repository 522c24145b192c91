#ifndef PERFBENCH_WIRE_DRIVER_H_
#define PERFBENCH_WIRE_DRIVER_H_

// Wire driver: one process, at most two connections. Drive() is open loop
// with two threads (a sender that follows the schedule and a receiver that
// polls every connection). Each request is timed from its *due* time, not
// from when it was actually sent, so a stalled sender or server cannot hide
// its own delay (no coordinated omission); how late the sender itself ran
// is reported separately so an overloaded client invalidates the run
// instead of reading as a slow server. DriveClosed() is closed loop on the
// calling thread alone: it keeps a fixed number of requests in flight and
// sends the next one as each answer arrives, which saturates the server at
// a bounded queue. Responses are read as soon as they arrive, so the
// server never blocks on a slow reader.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WireOutcome {
  bool received = false;
  uint8_t status = 0;
  uint8_t estimator = 0;
  double eta = 0.0;
  double due_s = 0.0;   // schedule offset
  double sent_s = 0.0;  // actual send, same clock
  double recv_s = 0.0;
};

struct DriveOptions {
  double stats_every_s = 0.0;  // > 0: sample the stats frame this often
};

struct DriveResult {
  std::vector<WireOutcome> outcomes;  // one per frame, in schedule order
  double late_ms_p99 = 0.0;           // sent - due, 99th percentile
  size_t outstanding_at_end = 0;      // unanswered when the schedule ended
  double queue_depth_max = 0.0;       // from sampled stats frames
  size_t stats_samples = 0;
};

class WireClient {
 public:
  WireClient(const std::string& host, uint16_t port, size_t connections);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // Sends frames[i] at due_s[i] (seconds from now), alternating
  // connections; frames[i] must carry request id first_id + i.
  DriveResult Drive(const std::vector<std::vector<uint8_t>>& frames,
                    uint64_t first_id, const std::vector<double>& due_s,
                    const DriveOptions& options);

  // Sends frames[i] (request id first_id + i) in order with at most
  // `window` unanswered at any time, alternating connections, until all
  // are sent or `seconds` have passed, then waits for the answers. Returns
  // one outcome per frame sent (due_s = sent_s); late_ms_p99 is 0.
  DriveResult DriveClosed(const std::vector<std::vector<uint8_t>>& frames,
                          uint64_t first_id, size_t window, double seconds);

  // Round-trips one stats frame on the first connection (call between
  // drives only) and returns the server's stats JSON.
  std::string FetchStats();

 private:
  std::vector<int> fds_;
};

// Answered requests per second of a closed-loop drive: answers over the
// time from the first send to the last answer; 0 when nothing was answered.
double ClosedLoopRate(const std::vector<WireOutcome>& outcomes);

// Reads `field` of the stats-JSON record named `name`; `fallback` when
// either is absent.
double StatsField(const std::string& json, const std::string& name,
                  const std::string& field, double fallback = 0.0);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_DRIVER_H_
