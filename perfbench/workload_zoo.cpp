// Workload `zoo_loopback`: the scenario grids (adversarial, faults,
// bandwidth; 258 cells of gossip, Push-Sum and Metropolis at n = 6-9) run
// through net::Coordinator on 127.0.0.1, served by one in-process
// net::WorkerNode over one connection with hardware threads - 1 cell
// threads. A pass is the three grids, each with its own coordinator. The
// grids keep their preset seeds: they are coordinates of the verdicts
// being reproduced, so the workload seed does not enter.

#include <algorithm>
#include <exception>
#include <iostream>
#include <map>
#include <thread>

#include "campaign/runner.hpp"
#include "cells.hpp"
#include "net/coordinator.hpp"
#include "net/worker.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using anonet::campaign::Cell;
using anonet::campaign::CellRecord;
using anonet::campaign::Grid;
using anonet::campaign::MetricsSink;
using anonet::campaign::Runner;
using anonet::campaign::RunnerOptions;

constexpr const char* kWorkload = "zoo_loopback";
const std::vector<std::string> kGrids = {"adversarial", "faults",
                                         "bandwidth"};

// Runs one WorkerNode on its own thread; the destructor joins it, and the
// first exception it threw is rethrown by join().
class WorkerThread {
 public:
  WorkerThread(std::uint16_t port, int threads)
      : thread_([this, port, threads] {
          try {
            const Span span("net", "WorkerNode::run");
            anonet::net::WorkerOptions options;
            options.port = port;
            options.threads = threads;
            anonet::net::WorkerNode(options).run();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~WorkerThread() {
    if (thread_.joinable()) thread_.join();
  }
  WorkerThread(const WorkerThread&) = delete;
  WorkerThread& operator=(const WorkerThread&) = delete;

  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;
  std::thread thread_;
};

struct GridRun {
  std::vector<CellRecord> records;
  anonet::net::CoordinatorStats stats;
};

class Zoo final : public Workload {
 public:
  explicit Zoo(const References& refs)
      : refs_(refs), cell_threads_(std::max(1, hardware_threads() - 1)) {}

  double setup_only() override {
    const auto start = Clock::now();
    for (const std::string& name : kGrids) {
      const std::vector<Cell> cells = Grid::preset(name).expand();
      anonet::net::Coordinator coordinator(coordinator_options(name));
      static_cast<void>(coordinator.listen());
    }
    return seconds_since(start);
  }

  PassSample pass() override {
    std::vector<GridRun> runs;
    const PassSample sample = loopback_pass(runs);
    check(runs);
    return sample;
  }

  void traced(const std::vector<PassSample>& untraced,
              Metrics& layers) override {
    std::vector<GridRun> runs;
    const PassSample sample = loopback_pass(runs);
    check(runs);
    layers.set("trace.makespan_s", sample.makespan_s, "s");

    anonet::net::CoordinatorStats net;
    std::vector<CellRecord> loopback;
    for (const GridRun& run : runs) {
      net.cells_assigned += run.stats.cells_assigned;
      net.cells_reassigned += run.stats.cells_reassigned;
      net.duplicate_verdicts += run.stats.duplicate_verdicts;
      loopback.insert(loopback.end(), run.records.begin(), run.records.end());
    }
    layers.set("net.cells_assigned", static_cast<double>(net.cells_assigned),
               "count");
    layers.set("net.cells_reassigned",
               static_cast<double>(net.cells_reassigned), "count");
    layers.set("net.duplicate_verdicts",
               static_cast<double>(net.duplicate_verdicts), "count");

    // The in-process twin at the same cell-thread count: transport parity
    // on the canonical bytes, and the transport overhead from the medians.
    std::vector<double> in_process;
    std::vector<CellRecord> twin;
    const double cpu_start = cpu_seconds();
    for (int i = 0; i < 15; ++i) {
      in_process.push_back(runner_pass(false, twin));
    }
    double in_process_s = 0.0;
    for (const double s : in_process) in_process_s += s;
    const double cpu_per_wall = (cpu_seconds() - cpu_start) / in_process_s;
    check_parity(loopback, twin);
    std::vector<double> loopback_s;
    for (const PassSample& s : untraced) loopback_s.push_back(s.makespan_s);
    const double overhead = median(loopback_s) - median(in_process);
    layers.set("net.overhead_s", overhead, "s");
    layers.set("net.overhead_ms_per_cell",
               overhead * 1e3 / static_cast<double>(loopback.size()), "ms");

    // Cell timings from a timed in-process pass.
    std::vector<CellRecord> timed;
    const double timed_s = runner_pass(true, timed);
    std::vector<double> cell_ms;
    double cell_ms_sum = 0.0;
    for (const CellRecord& r : timed) {
      if (r.wall_ms < 0) continue;
      cell_ms.push_back(r.wall_ms);
      cell_ms_sum += r.wall_ms;
    }
    const double tail = tail_percentile(cell_ms.size());
    layers.set("campaign.expand_s", expand_seconds(), "s");
    layers.set("campaign.cells_timed", static_cast<double>(cell_ms.size()),
               "count");
    layers.set("campaign.cell_ms_p50", median(cell_ms), "ms");
    layers.set("campaign.cell_ms_tail", percentile(cell_ms, tail), "ms");
    layers.set("campaign.cell_ms_tail_pct", tail, "pct");
    layers.set("campaign.cell_ms_max", percentile(cell_ms, 100.0), "ms");
    layers.set("campaign.busy_frac",
               cell_ms_sum / 1e3 / (cell_threads_ * timed_s), "ratio");

    // Counts from the records; bits from the metered and bounded cells.
    std::int64_t rounds = 0;
    std::int64_t messages = 0;
    std::int64_t bits = 0;
    std::int64_t metered_messages = 0;
    for (const CellRecord& r : loopback) {
      rounds += r.rounds;
      messages += r.messages;
      if (r.bits >= 0) {
        bits += r.bits;
        metered_messages += r.messages;
      }
    }
    layers.set("runtime.rounds", static_cast<double>(rounds), "count");
    layers.set("runtime.messages", static_cast<double>(messages), "count");
    layers.set("wire.bits_sent", static_cast<double>(bits), "count");
    layers.set("wire.bits_per_msg",
               metered_messages > 0 ? static_cast<double>(bits) /
                                          static_cast<double>(metered_messages)
                                    : 0.0,
               "count");

    // Observe split: every explicit cell re-executed serially outside the
    // Runner, guarded against drift from its loopback record.
    std::map<std::string, const CellRecord*> by_key;
    for (const CellRecord& r : loopback) by_key[r.key] = &r;
    ObserveSamples observe;
    WireSamples wire;
    ViewProbe views;
    anonet::PhaseTimings timings;
    std::int64_t reexec_messages = 0;
    double serial_s = 0.0;
    std::vector<Cell> metered;
    for (const std::string& name : kGrids) {
      for (const Cell& cell : Grid::preset(name).expand()) {
        if (!is_explicit_cell(cell)) continue;
        const Reexec reexec = reexec_cell(cell, observe, wire);
        serial_s += reexec.wall_s;
        guard_drift(*by_key.at(cell.key()), reexec, tally_);
        timings.validate_seconds += reexec.timings.validate_seconds;
        timings.send_seconds += reexec.timings.send_seconds;
        timings.deliver_seconds += reexec.timings.deliver_seconds;
        reexec_messages += reexec.messages;
        probe_views(cell, reexec.rounds, views);
        if (cell.bandwidth_bits == -1) metered.push_back(cell);
      }
    }
    report_observe(observe, serial_s, layers);
    layers.set("support.pool_speedup", serial_s / median(in_process),
               "ratio");
    layers.set("support.pool_cpu_per_wall", cpu_per_wall, "ratio");
    layers.set("runtime.validate_s", timings.validate_seconds, "s");
    layers.set("runtime.send_s", timings.send_seconds, "s");
    layers.set("runtime.deliver_s", timings.deliver_seconds, "s");
    const double engine_s = timings.validate_seconds + timings.send_seconds +
                            timings.deliver_seconds;
    layers.set("runtime.ns_per_msg",
               reexec_messages > 0
                   ? engine_s * 1e9 / static_cast<double>(reexec_messages)
                   : 0.0,
               "ns");
    layers.set("dynamics.view_s", views.seconds, "s");
    layers.set("dynamics.edges_per_round",
               views.rounds > 0 ? static_cast<double>(views.edges) /
                                      static_cast<double>(views.rounds)
                                : 0.0,
               "count");
    time_codecs(wire, layers);
    layers.set("wire.meter_overhead_frac", meter_overhead(metered), "ratio");
  }

  std::vector<std::string> reference_lines() override {
    std::vector<GridRun> runs;
    loopback_pass(runs);
    std::vector<std::string> lines;
    for (std::size_t g = 0; g < kGrids.size(); ++g) {
      for (std::string& line : campaign_reference_lines(
               runs[g].records, std::string(kWorkload) + "." + kGrids[g])) {
        lines.push_back(std::move(line));
      }
    }
    return lines;
  }

 private:
  anonet::net::CoordinatorOptions coordinator_options(
      const std::string& grid) const {
    anonet::net::CoordinatorOptions options;
    options.grid = grid;
    options.workers = 1;
    options.port = 0;
    options.resume = false;
    return options;
  }

  PassSample loopback_pass(std::vector<GridRun>& runs) const {
    const Span pass_span("bench", "pass");
    PassClock clock;
    // Set-up of all three grids first: expansion, coordinator, listen().
    std::vector<std::unique_ptr<anonet::net::Coordinator>> coordinators;
    std::vector<std::uint16_t> ports;
    for (const std::string& name : kGrids) {
      {
        const Span span("campaign", "Grid::expand");
        const std::vector<Cell> cells = Grid::preset(name).expand();
      }
      coordinators.push_back(std::make_unique<anonet::net::Coordinator>(
          coordinator_options(name)));
      const Span span("net", "Coordinator::listen");
      ports.push_back(coordinators.back()->listen());
    }
    clock.setup_done();
    runs.assign(kGrids.size(), GridRun{});
    for (std::size_t g = 0; g < kGrids.size(); ++g) {
      WorkerThread worker(ports[g], cell_threads_);
      {
        const Span span("net", "Coordinator::run");
        runs[g].records = coordinators[g]->run();
      }
      runs[g].stats = coordinators[g]->stats();
      worker.join();
    }
    return clock.finish();
  }

  // One in-process Runner pass over the three grids; returns its wall time.
  double runner_pass(bool timings, std::vector<CellRecord>& records) const {
    RunnerOptions options;
    options.threads = cell_threads_;
    options.include_timings = timings;
    options.resume = false;
    const auto start = Clock::now();
    records.clear();
    for (const std::string& name : kGrids) {
      const Span span("campaign", "Runner::run");
      for (CellRecord& r : Runner(options).run(Grid::preset(name))) {
        records.push_back(std::move(r));
      }
    }
    return seconds_since(start);
  }

  void check(const std::vector<GridRun>& runs) {
    for (std::size_t g = 0; g < kGrids.size(); ++g) {
      check_campaign(runs[g].records, refs_,
                     std::string(kWorkload) + "." + kGrids[g], false, tally_);
    }
  }

  // Loopback records must be byte-identical to the in-process ones once
  // both are in canonical order (each grid is already canonical).
  void check_parity(const std::vector<CellRecord>& loopback,
                    const std::vector<CellRecord>& in_process) {
    bool same = loopback.size() == in_process.size();
    for (std::size_t i = 0; same && i < loopback.size(); ++i) {
      same = MetricsSink::to_json(loopback[i], false) ==
             MetricsSink::to_json(in_process[i], false);
    }
    std::cout << "zoo_loopback: transport parity "
              << (same ? "byte-identical" : "BROKEN") << " over "
              << loopback.size() << " records\n";
    if (!same) tally_.fail("loopback records differ from Runner::run");
  }

  static double expand_seconds() {
    std::vector<double> samples;
    for (int i = 0; i < 11; ++i) {
      const auto start = Clock::now();
      for (const std::string& name : kGrids) {
        const Span span("campaign", "Grid::expand");
        const std::vector<Cell> cells = Grid::preset(name).expand();
      }
      samples.push_back(seconds_since(start));
    }
    return median(samples);
  }

  // Metered bandwidth cells against the same cells with the channel off.
  static double meter_overhead(const std::vector<Cell>& metered) {
    if (metered.empty()) return 0.0;
    std::vector<double> on;
    std::vector<double> off;
    for (int i = 0; i < 5; ++i) {
      double on_s = 0.0;
      double off_s = 0.0;
      for (Cell cell : metered) {
        on_s += Runner::run_cell(cell, true).wall_ms;
        cell.bandwidth_bits = 0;
        off_s += Runner::run_cell(cell, true).wall_ms;
      }
      on.push_back(on_s);
      off.push_back(off_s);
    }
    return median(on) / median(off) - 1.0;
  }

  const References& refs_;
  int cell_threads_;
};

}  // namespace

std::unique_ptr<Workload> make_zoo(const Options& /*options*/,
                                   const References& refs) {
  return std::make_unique<Zoo>(refs);
}

}  // namespace perfbench
