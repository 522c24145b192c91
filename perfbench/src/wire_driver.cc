#include "wire_driver.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "serve/server/frame.h"
#include "stats.h"

namespace perfbench {

namespace net = deepod::serve::net;
using Clock = std::chrono::steady_clock;

namespace {

// How long the receiver waits for stragglers after the last send; a
// response later than this counts as lost.
constexpr std::chrono::seconds kDrainTimeout{2};

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Consumes every complete frame at the front of `buf`. A stats response
// raises result->queue_depth_max; the first answer to a request id in
// [first_id, first_id + outcomes) fills its outcome at `now`. Returns the
// number of requests newly answered.
size_t ConsumeFrames(std::vector<uint8_t>& buf, uint64_t first_id, double now,
                     DriveResult* result) {
  const size_t n = result->outcomes.size();
  size_t answered = 0, off = 0;
  while (buf.size() - off >= 4) {
    const uint32_t len = ReadU32(buf.data() + off);
    if (buf.size() - off - 4 < len) break;
    const uint8_t* payload = buf.data() + off + 4;
    const uint32_t magic = net::PeekMagic(payload, len);
    if (magic == net::kStatsResponseMagic) {
      const std::string json(reinterpret_cast<const char*>(payload) + 4,
                             len - 4);
      result->queue_depth_max =
          std::max(result->queue_depth_max,
                   StatsField(json, "server/queue_depth", "value"));
      ++result->stats_samples;
    } else {
      net::ResponseFrame r;
      if (net::DecodeResponsePayload(payload, len, &r) &&
          r.request_id >= first_id && r.request_id - first_id < n) {
        WireOutcome& o = result->outcomes[r.request_id - first_id];
        if (!o.received) {
          o.received = true;
          o.status = static_cast<uint8_t>(r.status);
          o.estimator = static_cast<uint8_t>(r.estimator);
          o.eta = r.eta_seconds;
          o.recv_s = now;
          ++answered;
        }
      }
    }
    off += 4 + len;
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(off));
  return answered;
}

}  // namespace

WireClient::WireClient(const std::string& host, uint16_t port,
                       size_t connections) {
  for (size_t c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("cannot connect to " + host + ":" +
                               std::to_string(port));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fds_.push_back(fd);
  }
}

WireClient::~WireClient() {
  for (const int fd : fds_) ::close(fd);
}

DriveResult WireClient::Drive(const std::vector<std::vector<uint8_t>>& frames,
                              uint64_t first_id,
                              const std::vector<double>& due_s,
                              const DriveOptions& options) {
  const size_t n = frames.size();
  DriveResult result;
  result.outcomes.resize(n);
  for (size_t i = 0; i < n; ++i) result.outcomes[i].due_s = due_s[i];
  std::atomic<size_t> received{0};
  std::atomic<bool> sender_done{false};
  std::atomic<size_t> outstanding_at_end{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const std::vector<uint8_t> stats_frame = net::EncodeStatsRequestFrame();

  std::thread sender([&] {
    std::vector<std::vector<uint8_t>> out(fds_.size());
    double next_stats = options.stats_every_s;
    size_t i = 0;
    while (i < n) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due_s[i]));
      std::this_thread::sleep_until(due);
      const double now = SecondsBetween(t0, Clock::now());
      // Everything already due goes out now, one write per connection.
      size_t j = i;
      for (; j < n && due_s[j] <= now; ++j) {
        auto& buf = out[j % fds_.size()];
        buf.insert(buf.end(), frames[j].begin(), frames[j].end());
      }
      if (j == i) continue;  // woke early
      if (options.stats_every_s > 0.0 && now >= next_stats) {
        out[0].insert(out[0].end(), stats_frame.begin(), stats_frame.end());
        next_stats = now + options.stats_every_s;
      }
      const double sent = SecondsBetween(t0, Clock::now());
      for (size_t k = i; k < j; ++k) result.outcomes[k].sent_s = sent;
      for (size_t c = 0; c < fds_.size(); ++c) {
        if (!out[c].empty()) {
          net::WriteAll(fds_[c], out[c].data(), out[c].size());
          out[c].clear();
        }
      }
      i = j;
    }
    outstanding_at_end = n - received.load();
    sender_done = true;
  });

  std::vector<std::vector<uint8_t>> in(fds_.size());
  std::vector<pollfd> pfds(fds_.size());
  for (size_t c = 0; c < fds_.size(); ++c) pfds[c] = {fds_[c], POLLIN, 0};
  std::vector<uint8_t> chunk(1 << 16);
  Clock::time_point drain_deadline = Clock::time_point::max();
  while (received.load() < n) {
    if (sender_done.load() && drain_deadline == Clock::time_point::max()) {
      drain_deadline = Clock::now() + kDrainTimeout;
    }
    if (Clock::now() > drain_deadline) break;
    if (::poll(pfds.data(), pfds.size(), 10) <= 0) continue;
    const double now = SecondsBetween(t0, Clock::now());
    for (size_t c = 0; c < fds_.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::recv(fds_[c], chunk.data(), chunk.size(), 0);
      if (got <= 0) {
        pfds[c].fd = -1;  // closed: whatever is outstanding is lost
        continue;
      }
      auto& buf = in[c];
      buf.insert(buf.end(), chunk.begin(), chunk.begin() + got);
      received.fetch_add(ConsumeFrames(buf, first_id, now, &result));
    }
  }
  sender.join();
  std::vector<double> late_ms(n);
  for (size_t i = 0; i < n; ++i) {
    late_ms[i] = 1e3 * (result.outcomes[i].sent_s - result.outcomes[i].due_s);
  }
  result.late_ms_p99 = Percentile(std::move(late_ms), 0.99);
  result.outstanding_at_end = outstanding_at_end.load();
  return result;
}

DriveResult WireClient::DriveClosed(
    const std::vector<std::vector<uint8_t>>& frames, uint64_t first_id,
    size_t window, double seconds) {
  size_t n = frames.size();
  DriveResult result;
  result.outcomes.resize(n);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<uint8_t>> out(fds_.size()), in(fds_.size());
  std::vector<pollfd> pfds(fds_.size());
  for (size_t c = 0; c < fds_.size(); ++c) pfds[c] = {fds_[c], POLLIN, 0};
  std::vector<uint8_t> chunk(1 << 16);
  size_t next = 0, received = 0;
  Clock::time_point last_progress = t0;
  while (received < n) {
    // Top up to the window: one write per connection. Past `seconds` no
    // more frames go out; what was sent is drained.
    if (next < n && SecondsBetween(t0, Clock::now()) >= seconds) n = next;
    if (next < n && next - received < window) {
      const double sent = SecondsBetween(t0, Clock::now());
      for (; next < n && next - received < window; ++next) {
        auto& buf = out[next % fds_.size()];
        buf.insert(buf.end(), frames[next].begin(), frames[next].end());
        result.outcomes[next].due_s = result.outcomes[next].sent_s = sent;
      }
      for (size_t c = 0; c < fds_.size(); ++c) {
        if (!out[c].empty()) {
          net::WriteAll(fds_[c], out[c].data(), out[c].size());
          out[c].clear();
        }
      }
    }
    if (Clock::now() - last_progress > kDrainTimeout) break;  // rest is lost
    if (::poll(pfds.data(), pfds.size(), 10) <= 0) continue;
    const Clock::time_point now = Clock::now();
    for (size_t c = 0; c < fds_.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::recv(fds_[c], chunk.data(), chunk.size(), 0);
      if (got <= 0) {
        pfds[c].fd = -1;  // closed: whatever is outstanding is lost
        continue;
      }
      in[c].insert(in[c].end(), chunk.begin(), chunk.begin() + got);
      const size_t answered =
          ConsumeFrames(in[c], first_id, SecondsBetween(t0, now), &result);
      if (answered > 0) last_progress = now;
      received += answered;
    }
  }
  result.outstanding_at_end = n - received;
  result.outcomes.resize(n);
  return result;
}

double ClosedLoopRate(const std::vector<WireOutcome>& outcomes) {
  double first_sent = kFailed, last_recv = 0.0;
  size_t answered = 0;
  for (const WireOutcome& o : outcomes) {
    first_sent = std::min(first_sent, o.sent_s);
    if (!o.received) continue;
    ++answered;
    last_recv = std::max(last_recv, o.recv_s);
  }
  if (answered == 0 || last_recv <= first_sent) return 0.0;
  return static_cast<double>(answered) / (last_recv - first_sent);
}

std::string WireClient::FetchStats() {
  const std::vector<uint8_t> frame = net::EncodeStatsRequestFrame();
  if (!net::WriteAll(fds_[0], frame.data(), frame.size())) {
    throw std::runtime_error("stats request failed");
  }
  std::vector<uint8_t> payload;
  for (;;) {
    if (net::ReadFrame(fds_[0], &payload, 1u << 26) !=
        net::ReadFrameResult::kOk) {
      throw std::runtime_error("stats response failed");
    }
    if (net::PeekMagic(payload.data(), payload.size()) ==
        net::kStatsResponseMagic) {
      return std::string(payload.begin() + 4, payload.end());
    }
  }
}

double StatsField(const std::string& json, const std::string& name,
                  const std::string& field, double fallback) {
  const size_t at = json.find("\"name\": \"" + name + "\"");
  if (at == std::string::npos) return fallback;
  const size_t close = json.find('}', at);
  const size_t f = json.find("\"" + field + "\": ", at);
  if (f == std::string::npos || f > close) return fallback;
  return std::strtod(json.c_str() + f + field.size() + 4, nullptr);
}

}  // namespace perfbench
