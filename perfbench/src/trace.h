#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced replay. Each span records its
// name, start, end, parent span and request id; spans stay in a
// preallocated vector until the end of the run, when they are written as
// Chrome trace JSON (chrome://tracing, Perfetto) and folded into self time
// per layer. Disabled, a Scope costs one branch, which is how the replay
// measures its own tracing overhead.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span vector, -1 = root
  uint64_t request_id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // RAII span; nests under the innermost open Scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t request_id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int32_t index_ = -1;
  };

  // Records a span whose length was measured elsewhere, starting at
  // `start_ns`, under the innermost open Scope.
  void Add(const char* name, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Total and self (duration minus direct children) nanoseconds and call
  // count per span name.
  struct NameTotals {
    double total_ns = 0.0;
    double self_ns = 0.0;
    uint64_t calls = 0;
  };
  std::map<std::string, NameTotals> Totals() const;

  void WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

// The src/ module a span name belongs to ("frame.decode" -> "serve/server").
std::string LayerOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
