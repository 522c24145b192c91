#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t request_id)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int32_t>(tracer_.spans_.size());
  Span span;
  span.name = name;
  span.parent = tracer_.open_;
  span.request_id = request_id;
  tracer_.spans_.push_back(span);
  tracer_.open_ = index_;
  tracer_.spans_[static_cast<size_t>(index_)].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  tracer_.open_ = span.parent;
}

void Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_;
  spans_.push_back(span);
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, NameTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double d = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    NameTotals& t = out[spans_[i].name];
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
    ++t.calls;
  }
  return out;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"request_id\": "
                 "%llu}}",
                 i == 0 ? "" : ",\n", s.name, LayerOf(s.name).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.request_id));
  }
  std::fputs("\n], \"displayTimeUnit\": \"ns\"}\n", f);
  std::fclose(f);
}

std::string LayerOf(const std::string& span_name) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"frame.", "serve/server"},   {"admission.", "serve/server"},
      {"server.", "serve/server"},  {"fleet.", "serve"},
      {"eta_service.", "serve"},    {"model.", "core"},
      {"trainer.", "core"},         {"nn.", "nn"},
      {"oracle.", "baselines"},     {"speed_field.", "sim"},
      {"artifact.", "io"},          {"trip_store.", "io"},
      {"embed.", "embed"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (span_name.rfind(prefix, 0) == 0) return layer;
  }
  return "replay";
}

}  // namespace perfbench
