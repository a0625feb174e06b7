#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail_percentile(std::size_t samples) {
  double best = 50.0;
  for (const double pct : {90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(samples) * (1.0 - pct / 100.0) >= 10.0) best = pct;
  }
  return best;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

double Metrics::value(const std::string& name) const {
  return values_.at(name).first;
}

const std::string& Metrics::unit(const std::string& name) const {
  return values_.at(name).second;
}

void Tally::fail(const std::string& problem, std::int64_t count) {
  failed += count;
  constexpr std::size_t kMaxProblems = 20;
  if (problems.size() < kMaxProblems) problems.push_back(problem);
}

PassClock::PassClock() : start_(Clock::now()), cpu_start_(cpu_seconds()) {}

void PassClock::setup_done() { setup_s_ = seconds_since(start_); }

PassSample PassClock::finish() const {
  PassSample sample;
  sample.makespan_s = seconds_since(start_);
  sample.cpu_s = cpu_seconds() - cpu_start_;
  sample.setup_s = setup_s_;
  return sample;
}

References::References(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  loaded_ = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string name;
    std::string digest;
    if (!(fields >> workload >> name >> digest)) {
      throw std::runtime_error("references: malformed line: " + line);
    }
    entries_[workload + " " + name] = digest;
  }
}

std::string References::find(const std::string& workload,
                             const std::string& name) const {
  const auto it = entries_.find(workload + " " + name);
  return it == entries_.end() ? std::string() : it->second;
}

}  // namespace perfbench
