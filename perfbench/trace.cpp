#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

struct Record {
  const char* layer;
  const char* name;
  std::uint64_t thread;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;    // index of the enclosing span on this thread, -1
  std::int64_t child_ns;  // time covered by direct children
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<Record> g_records;  // guarded by g_mutex
const auto g_origin = std::chrono::steady_clock::now();

thread_local std::vector<std::int64_t> t_open;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

bool tracing_enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace

void enable_tracing(bool on) { g_enabled.store(on); }

Span::Span(const char* layer, const char* name) {
  if (!tracing_enabled()) return;
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(g_mutex);
  index_ = static_cast<std::int64_t>(g_records.size());
  g_records.push_back({layer, name, thread_tag(), start, -1, parent, 0});
  t_open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_mutex);
  Record& record = g_records[static_cast<std::size_t>(index_)];
  record.end_ns = end;
  if (record.parent >= 0) {
    g_records[static_cast<std::size_t>(record.parent)].child_ns +=
        end - record.start_ns;
  }
}

std::map<std::string, double> self_seconds_by_layer() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::map<std::string, double> self;
  for (const Record& record : g_records) {
    if (record.end_ns < 0) continue;
    self[record.layer] +=
        static_cast<double>(record.end_ns - record.start_ns - record.child_ns) *
        1e-9;
  }
  return self;
}

std::size_t span_count() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_records.size();
}

bool write_spans(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const Record& record : g_records) {
    out << "{\"layer\":\"" << record.layer << "\",\"name\":\"" << record.name
        << "\",\"thread\":" << record.thread
        << ",\"start_ns\":" << record.start_ns
        << ",\"end_ns\":" << record.end_ns << ",\"parent\":" << record.parent
        << ",\"self_ns\":"
        << (record.end_ns < 0
                ? 0
                : record.end_ns - record.start_ns - record.child_ns)
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
