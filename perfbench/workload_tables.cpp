// Workload `tables`: the paper reproduction. Grid::preset("tables") (Table 1
// on static panels, Table 2 on random dynamic schedules; 252 cells) runs
// through an in-process campaign::Runner with one worker thread per
// hardware thread. The grid keeps its preset seeds: they are coordinates of
// the verdicts being reproduced, so the workload seed does not enter.

#include <iostream>
#include <map>

#include "campaign/runner.hpp"
#include "cells.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using anonet::campaign::Cell;
using anonet::campaign::CellRecord;
using anonet::campaign::Grid;
using anonet::campaign::Runner;
using anonet::campaign::RunnerOptions;

constexpr const char* kWorkload = "tables";

class Tables final : public Workload {
 public:
  explicit Tables(const References& refs)
      : refs_(refs), threads_(hardware_threads()) {}

  double setup_only() override {
    const auto start = Clock::now();
    const Grid grid = Grid::preset("tables");
    const std::vector<Cell> cells = grid.expand();
    const Runner runner(options(false));
    return seconds_since(start);
  }

  PassSample pass() override {
    std::vector<CellRecord> records;
    const PassSample sample = run_pass(false, records);
    check(records);
    return sample;
  }

  void traced(const std::vector<PassSample>& /*untraced*/,
              Metrics& layers) override {
    // The traced pass: the same calls, spans on, wall_ms recorded per cell.
    std::vector<CellRecord> records;
    const PassSample sample = run_pass(true, records);
    check(records);
    layers.set("trace.makespan_s", sample.makespan_s, "s");

    std::vector<double> cell_ms;
    double cell_ms_sum = 0.0;
    std::int64_t rounds = 0;
    std::int64_t messages = 0;
    for (const CellRecord& r : records) {
      rounds += r.rounds;
      messages += r.messages;
      if (r.wall_ms < 0) continue;
      cell_ms.push_back(r.wall_ms);
      cell_ms_sum += r.wall_ms;
    }
    const double run_s = sample.makespan_s - sample.setup_s;
    const double tail = tail_percentile(cell_ms.size());
    layers.set("campaign.expand_s", expand_seconds(), "s");
    layers.set("campaign.cells_timed", static_cast<double>(cell_ms.size()),
               "count");
    layers.set("campaign.cell_ms_p50", median(cell_ms), "ms");
    layers.set("campaign.cell_ms_tail", percentile(cell_ms, tail), "ms");
    layers.set("campaign.cell_ms_tail_pct", tail, "pct");
    layers.set("campaign.cell_ms_max", percentile(cell_ms, 100.0), "ms");
    layers.set("campaign.busy_frac",
               cell_ms_sum / 1e3 / (threads_ * run_s), "ratio");

    // Observe split: every cell once more, serially. History cells are
    // re-executed outside the Runner with the output calls timed; the rest
    // go through Runner::run_cell. The summed serial cell time is the base
    // of core.observe_share.
    std::map<std::string, const CellRecord*> by_key;
    for (const CellRecord& r : records) by_key[r.key] = &r;
    ObserveSamples observe;
    WireSamples wire;
    ViewProbe views;
    anonet::PhaseTimings timings;
    std::int64_t reexec_messages = 0;
    std::size_t registry_max = 0;
    double serial_s = 0.0;
    for (const Cell& cell : Grid::preset("tables").expand()) {
      if (!is_history_cell(cell)) {
        const Span span("campaign", "Runner::run_cell");
        serial_s += Runner::run_cell(cell, true).wall_ms / 1e3;
        continue;
      }
      const Reexec reexec = reexec_cell(cell, observe, wire);
      serial_s += reexec.wall_s;
      guard_drift(*by_key.at(cell.key()), reexec, tally_);
      timings.validate_seconds += reexec.timings.validate_seconds;
      timings.send_seconds += reexec.timings.send_seconds;
      timings.deliver_seconds += reexec.timings.deliver_seconds;
      reexec_messages += reexec.messages;
      registry_max = std::max(registry_max, reexec.registry_nodes);
      probe_views(cell, reexec.rounds, views);
    }
    report_observe(observe, serial_s, layers);
    layers.set("support.pool_speedup", serial_s / run_s, "ratio");
    layers.set("support.pool_cpu_per_wall", sample.cpu_s / sample.makespan_s,
               "ratio");
    layers.set("views.registry_nodes_max", static_cast<double>(registry_max),
               "count");
    layers.set("runtime.rounds", static_cast<double>(rounds), "count");
    layers.set("runtime.messages", static_cast<double>(messages), "count");
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
    std::cout << "tables: observe split over " << observe.call_ms.size()
              << " history-tree solves, serial cell time " << serial_s
              << " s\n";
  }

  std::vector<std::string> reference_lines() override {
    std::vector<CellRecord> records;
    run_pass(false, records);
    return campaign_reference_lines(records, kWorkload);
  }

 private:
  RunnerOptions options(bool timings) const {
    RunnerOptions options;
    options.threads = threads_;
    options.include_timings = timings;
    options.resume = false;
    return options;
  }

  PassSample run_pass(bool traced, std::vector<CellRecord>& records) const {
    const Span pass_span("bench", "pass");
    PassClock clock;
    const Grid grid = Grid::preset("tables");
    {
      const Span span("campaign", "Grid::expand");
      const std::vector<Cell> cells = grid.expand();
    }
    const Runner runner(options(traced));
    clock.setup_done();
    {
      const Span span("campaign", "Runner::run");
      records = runner.run(grid);
    }
    return clock.finish();
  }

  void check(const std::vector<CellRecord>& records) {
    const CampaignCheck result =
        check_campaign(records, refs_, kWorkload, true, tally_);
    table1_ = result.table1_matches;
    table2_ = result.table2_matches;
    if (!reported_) {
      std::cout << "tables: table1 " << (table1_ ? "(=paper)" : "(MISMATCH)")
                << ", table2 " << (table2_ ? "(=paper)" : "(MISMATCH)")
                << "\n";
      reported_ = true;
    }
  }

  static double expand_seconds() {
    std::vector<double> samples;
    const Grid grid = Grid::preset("tables");
    for (int i = 0; i < 11; ++i) {
      const Span span("campaign", "Grid::expand");
      const auto start = Clock::now();
      const std::vector<Cell> cells = grid.expand();
      samples.push_back(seconds_since(start));
    }
    return median(samples);
  }

  const References& refs_;
  int threads_;
  bool table1_ = false;
  bool table2_ = false;
  bool reported_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_tables(const Options& /*options*/,
                                      const References& refs) {
  return std::make_unique<Tables>(refs);
}

}  // namespace perfbench
