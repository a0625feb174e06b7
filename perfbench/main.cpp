// perfbench: the repository benchmark program (BENCHMARK.json). Launched by
// perfbench/run.py from the repository root, which builds it first:
//
//   perfbench --workload tables|zoo_loopback|large_n --seed N --seconds S
//             --trace 0|1 [--commit ID]
//   perfbench --workload W --seed N --record-references
//
// Every run states its stamp (hardware threads, build type, compiler,
// commit), measures whole passes with tracing off for S seconds after one
// warm-up pass, and prints each pass's makespan beside the medians. With
// --trace 0 the final JSON line carries the end-to-end metrics; with
// --trace 1 a traced pass and the workload's layer probes follow, and the
// JSON carries the per-layer metrics instead. Traced runs also write their
// spans and every layer metric they measured under .bench_out/.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

constexpr const char* kReferences = "perfbench/references.txt";
constexpr const char* kOutputDir = ".bench_out";
constexpr int kMinPasses = 3;
constexpr std::size_t kSetupSamples = 15;
constexpr std::size_t kMaxSetupSamples = 401;
constexpr double kSetupWindowS = 0.25;

// The per-layer metrics of BENCHMARK.json, in its order: those every
// workload measures, so no time in the result is a constant. A count or
// ratio of a layer the workload does not exercise reads 0. The traced run
// prints (and writes to its layers file) every metric it measured,
// workload-specific ones such as campaign.cell_ms_tail and net.overhead_s
// included.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"campaign.busy_frac", "ratio"},
    {"core.observe_s", "s"},
    {"core.observe_calls", "count"},
    {"core.observe_ms_p50", "ms"},
    {"core.observe_ms_tail", "ms"},
    {"core.observe_tail_pct", "pct"},
    {"core.observe_useful_frac", "ratio"},
    {"core.observe_share", "ratio"},
    {"views.registry_nodes_max", "count"},
    {"runtime.rounds", "count"},
    {"runtime.messages", "count"},
    {"runtime.validate_s", "s"},
    {"runtime.send_s", "s"},
    {"runtime.deliver_s", "s"},
    {"runtime.ns_per_msg", "ns"},
    {"dynamics.view_s", "s"},
    {"dynamics.edges_per_round", "count"},
    {"support.pool_speedup", "ratio"},
    {"support.pool_cpu_per_wall", "ratio"},
    {"wire.bits_sent", "count"},
    {"wire.bits_per_msg", "count"},
    {"wire.encode_ns_per_msg", "ns"},
    {"wire.decode_ns_per_msg", "ns"},
    {"wire.meter_overhead_frac", "ratio"},
    {"net.cells_assigned", "count"},
    {"net.cells_reassigned", "count"},
    {"net.duplicate_verdicts", "count"},
    {"self.bench_s", "s"},
    {"self.core_s", "s"},
    {"self.runtime_s", "s"},
    {"self.dynamics_s", "s"},
    {"self.wire_s", "s"},
    {"trace.makespan_s", "s"},
    {"trace.untraced_makespan_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload tables|zoo_loopback|large_n "
               "--seed N (--seconds S --trace 0|1 [--commit ID] | "
               "--record-references)\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record-references") {
      options.record_references = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        trace_given = true;
      } else if (arg == "--commit") {
        options.commit = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!trace_given && !options.record_references) usage("--trace is required");
  if (options.seconds <= 0) usage("--seconds must be positive");
  return options;
}

std::string json_number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

// Where a traced run writes its spans and its full layer metrics.
std::string output_prefix(const Options& options) {
  return std::string(kOutputDir) + "/" + options.workload + "-seed" +
         std::to_string(options.seed);
}

// The result object; `extra` is spliced in before "metrics".
void write_result(std::ostream& out, const Tally& tally,
                  const Metrics& metrics, const std::string& extra = "") {
  out << "{\"correct\": " << (tally.correct() ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", " << extra << "\"metrics\": {";
  bool first = true;
  for (const std::string& name : metrics.names()) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << json_number(metrics.value(name)) << ", \"unit\": \""
        << metrics.unit(name) << "\"}";
    first = false;
  }
  out << "}}" << std::endl;
}

std::unique_ptr<Workload> make_workload(const Options& options,
                                        const References& refs) {
  if (options.workload == "tables") return make_tables(options, refs);
  if (options.workload == "zoo_loopback") return make_zoo(options, refs);
  if (options.workload == "large_n") return make_large_n(options, refs);
  usage("unknown workload " + options.workload);
}

// Closed loop: one warm-up pass, then passes back to back until the
// measuring window is spent. Returns the end-to-end metrics.
Metrics measure(const Options& options, Workload& workload,
                std::vector<PassSample>& samples) {
  static_cast<void>(workload.pass());
  const auto window = Clock::now();
  while (static_cast<int>(samples.size()) < kMinPasses ||
         seconds_since(window) < options.seconds) {
    samples.push_back(workload.pass());
  }
  std::vector<double> makespan;
  std::vector<double> cpu;
  std::vector<double> setup;
  for (const PassSample& s : samples) {
    makespan.push_back(s.makespan_s);
    cpu.push_back(s.cpu_s);
    setup.push_back(s.setup_s);
  }
  // More set-up samples, torn down after each: at least kSetupSamples, and
  // for cheap set-ups as many as fit a quarter second.
  const auto setup_window = Clock::now();
  while (setup.size() < kSetupSamples ||
         (setup.size() < kMaxSetupSamples &&
          seconds_since(setup_window) < kSetupWindowS)) {
    setup.push_back(workload.setup_only());
  }
  std::cout << "workload " << options.workload << ": " << samples.size()
            << " passes, makespan_s per pass:";
  for (const double m : makespan) std::cout << " " << m;
  std::cout << "\n";

  Metrics end_to_end;
  end_to_end.set("makespan_s", median(makespan), "s");
  end_to_end.set("cpu_s", median(cpu), "s");
  end_to_end.set("setup_s", median(setup), "s");
  end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
  return end_to_end;
}

// The traced run: the workload's traced pass and layer probes, self time
// per layer, and the tracing overhead against the untraced median.
Metrics trace(const Options& options, Workload& workload,
              const std::vector<PassSample>& samples, double untraced_s) {
  Metrics layers;
  enable_tracing(true);
  workload.traced(samples, layers);
  enable_tracing(false);
  for (const auto& [layer, seconds] : self_seconds_by_layer()) {
    layers.set("self." + layer + "_s", seconds, "s");
  }
  const double traced = layers.value("trace.makespan_s");
  layers.set("trace.untraced_makespan_s", untraced_s, "s");
  layers.set("trace.overhead_frac", traced / untraced_s - 1.0, "ratio");
  layers.set("trace.spans", static_cast<double>(span_count()), "count");
  std::filesystem::create_directories(kOutputDir);
  const std::string path = output_prefix(options) + "-spans.jsonl";
  if (!write_spans(path)) throw std::runtime_error("cannot write " + path);
  std::cout << "spans written to " << path << "\n";
  std::cout << "traced pass makespan " << traced
            << " s beside the untraced median " << untraced_s << " s\n";
  return layers;
}

// The BENCHMARK.json per-layer subset of a traced run's metrics.
Metrics per_layer(const Options& options, const Metrics& layers) {
  Metrics reported;
  const auto& measured = layers.names();
  for (const auto& [name, unit] : kLayerMetrics) {
    if (std::find(measured.begin(), measured.end(), name) != measured.end()) {
      reported.set(name, layers.value(name), unit);
      continue;
    }
    if (unit == "s" || unit == "ms" || unit == "ns") {
      throw std::logic_error("traced run did not measure " + name);
    }
    reported.set(name, 0.0, unit);
    std::cout << "  [" << options.workload << "] " << name
              << " = 0 (layer not exercised)\n";
  }
  return reported;
}

int run(const Options& options) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "stamp: nproc=" << hardware_threads()
            << " build=" << build_type << " compiler=\"" << PERFBENCH_COMPILER
            << "\" commit=" << options.commit << "\n";
  if (build_type != "Release") {
    std::cout << "WARNING: not a Release build; timings are not comparable\n";
  }

  const References refs(kReferences);
  if (!refs.loaded() && !options.record_references) {
    throw std::runtime_error(std::string("cannot read ") + kReferences);
  }
  const std::unique_ptr<Workload> workload = make_workload(options, refs);
  if (options.record_references) {
    for (const std::string& line : workload->reference_lines()) {
      std::cout << line << "\n";
    }
    return 0;
  }

  std::vector<PassSample> samples;
  const Metrics end_to_end = measure(options, *workload, samples);
  Metrics layers;
  if (options.trace) {
    layers = trace(options, *workload, samples,
                   end_to_end.value("makespan_s"));
  }

  const Tally& tally = workload->tally();
  for (const std::string& name : end_to_end.names()) {
    std::cout << "  " << name << " = " << end_to_end.value(name) << " "
              << end_to_end.unit(name) << "\n";
  }
  std::cout << "  failed_frac = "
            << static_cast<double>(tally.failed) /
                   static_cast<double>(std::max<std::int64_t>(
                       1, tally.attempted))
            << " ratio (" << tally.failed << " of " << tally.attempted
            << " cells or simulations)\n";
  for (const std::string& problem : tally.problems) {
    std::cout << "  problem: " << problem << "\n";
  }
  if (!options.trace) {
    std::cout << "correct = " << (tally.correct() ? "true" : "false") << "\n";
    write_result(std::cout, tally, end_to_end);
    return 0;
  }

  for (const std::string& name : layers.names()) {
    std::cout << "  [" << options.workload << "] " << name << " = "
              << layers.value(name) << " " << layers.unit(name) << "\n";
  }
  const Metrics reported = per_layer(options, layers);
  std::ostringstream stamp;
  stamp << "\"stamp\": {\"nproc\": " << hardware_threads() << ", \"build\": \""
        << build_type << "\", \"compiler\": \"" << PERFBENCH_COMPILER
        << "\", \"commit\": \"" << options.commit << "\", \"workload\": \""
        << options.workload << "\", \"seed\": " << options.seed << "}, ";
  const std::string path = output_prefix(options) + "-layers.json";
  std::ofstream out(path, std::ios::trunc);
  write_result(out, tally, layers, stamp.str());
  if (!out) throw std::runtime_error("cannot write " + path);
  std::cout << "every measured layer metric written to " << path << "\n";
  std::cout << "correct = " << (tally.correct() ? "true" : "false") << "\n";
  write_result(std::cout, tally, reported);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
