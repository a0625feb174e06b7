#pragma once

// In-memory spans recorded by the benchmark around its calls into each
// anonet layer (campaign, core, runtime, dynamics, wire, net) and around its
// own passes (bench). Spans nest per thread: a span's self time is its
// duration minus the time its child spans cover. Nothing is recorded unless
// the tracer is enabled, so untraced passes pay one branch per span site.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

void enable_tracing(bool on);

// RAII span. `layer` and `name` must be string literals (stored by
// pointer).
class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

// Self seconds summed per layer over every finished span.
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer();
[[nodiscard]] std::size_t span_count();

// Writes one JSON object per span (layer, name, thread, start/end in ns
// since program start, parent index, self ns). Returns false on I/O error.
bool write_spans(const std::string& path);

}  // namespace perfbench
