#pragma once

// Shared pieces of the repository benchmark (BENCHMARK.json, perfbench/).
//
// One process runs one workload: it measures whole passes with tracing off
// for the requested number of seconds, checks every pass's outcome against
// the committed references (perfbench/references.txt), and prints the
// end-to-end metrics. With --trace 1 it then runs one traced pass plus the
// layer probes of its workload and prints the per-layer metrics instead.
// The last line of standard output is always one JSON object with the keys
// correct, attempted, failed and metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
// Process user + system CPU time (all threads).
[[nodiscard]] double cpu_seconds();
// Peak resident set of this process so far.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] int hardware_threads();

[[nodiscard]] double median(std::vector<double> values);
// A percentile (0..100) by linear interpolation between closest ranks.
[[nodiscard]] double percentile(std::vector<double> values, double pct);
// The highest of 50/90/95/99/99.9 that leaves at least ten samples beyond
// it; 50 when even that does not.
[[nodiscard]] double tail_percentile(std::size_t samples);

// 64-bit FNV-1a, rendered as 16 hex digits by hex64.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ull);
[[nodiscard]] std::string hex64(std::uint64_t value);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  // Print reference lines for this workload instead of measuring.
  bool record_references = false;
};

// Metrics in print order: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::string>& names() const {
    return order_;
  }
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] const std::string& unit(const std::string& name) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Outcome bookkeeping shared by every pass of a run. A run is correct when
// nothing failed; drift-guard and parity failures count as failures too.
struct Tally {
  std::int64_t attempted = 0;  // cells or simulations checked
  std::int64_t failed = 0;     // ... whose outcome was wrong
  std::vector<std::string> problems;

  [[nodiscard]] bool correct() const { return failed == 0; }

  void fail(const std::string& problem, std::int64_t count = 1);
};

// One measured pass. makespan_s runs from the pass's first call into the
// program until its last verdict or final round is in hand; setup_s is the
// part before the first cell or round; cpu_s covers the makespan.
struct PassSample {
  double makespan_s = 0.0;
  double setup_s = 0.0;
  double cpu_s = 0.0;
};

// Starts at construction; finish() stamps makespan and CPU time.
class PassClock {
 public:
  PassClock();
  void setup_done();
  [[nodiscard]] PassSample finish() const;

 private:
  Clock::time_point start_;
  double cpu_start_;
  double setup_s_ = 0.0;
};

// Committed references: lines "<workload> <name> <digest>", '#' comments.
class References {
 public:
  explicit References(const std::string& path);
  // Empty when the reference is absent.
  [[nodiscard]] std::string find(const std::string& workload,
                                 const std::string& name) const;
  [[nodiscard]] bool loaded() const { return loaded_; }

 private:
  std::map<std::string, std::string> entries_;
  bool loaded_ = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // The set-up calls of one pass alone, torn down again; returns seconds.
  virtual double setup_only() = 0;
  // One verified pass (outcome recorded into tally()).
  virtual PassSample pass() = 0;
  // The traced pass and layer probes; fills the per-layer metrics.
  virtual void traced(const std::vector<PassSample>& untraced,
                      Metrics& layers) = 0;
  // Reference lines for --record-references.
  virtual std::vector<std::string> reference_lines() = 0;

  [[nodiscard]] Tally& tally() { return tally_; }

 protected:
  Tally tally_;
};

[[nodiscard]] std::unique_ptr<Workload> make_tables(const Options& options,
                                                    const References& refs);
[[nodiscard]] std::unique_ptr<Workload> make_zoo(const Options& options,
                                                 const References& refs);
[[nodiscard]] std::unique_ptr<Workload> make_large_n(const Options& options,
                                                     const References& refs);

}  // namespace perfbench
