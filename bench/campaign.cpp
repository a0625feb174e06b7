// End-to-end campaign benchmark — emits BENCH_campaign.json.
//
// Runs the "tables" grid (both verdict tables of the paper), the
// "adversarial" grid (explicit agents pinned against the worst-case
// schedules) and the "faults" grid (the perturbation scenario zoo —
// asynchronous starts, crash-stop, message drops over churning
// topologies) through campaign::Runner, and summarizes the outcome: per
// suite the cell counts by verdict, the paper comparison for the table
// suites, and aggregate round/message totals from the arena. Cells
// are timed individually (in memory only — no JSONL is written, so the
// record-level determinism guarantee is untouched) to report each suite's
// summed cell time (`cell_ms`, the input of scripts/perf_smoke.py's
// table2/table1 ratio gate). Table2's history-tree and set-gossip cells
// (the history/gossip gate) are timed again in a separate serial pass,
// best of several runs per cell: each side sums under 0.1 s, too little to
// read while pool neighbors run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/metrics.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "support/jsonl.hpp"
#include "support/thread_pool.hpp"

using namespace anonet;
using namespace anonet::campaign;

namespace {

struct SuiteSummary {
  std::string suite;
  int cells = 0;
  int ok = 0;
  int skipped = 0;
  int failed = 0;
  int timeouts = 0;
  int expected_failures = 0;
  int prediction_mismatches = 0;  // predicted to break, succeeded anyway
  int exact = 0;
  int approximate = 0;  // success without exact stabilization
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  double cell_ms = 0.0;  // summed per-cell wall time
};

void fold(const std::vector<CellRecord>& records,
          std::vector<SuiteSummary>& suites) {
  for (const CellRecord& record : records) {
    SuiteSummary* summary = nullptr;
    for (SuiteSummary& s : suites) {
      if (s.suite == record.suite) summary = &s;
    }
    if (summary == nullptr) {
      suites.push_back({});
      summary = &suites.back();
      summary->suite = record.suite;
    }
    ++summary->cells;
    if (record.verdict == "ok") ++summary->ok;
    if (record.verdict == "skipped") ++summary->skipped;
    if (record.verdict == "failed") ++summary->failed;
    if (record.verdict == "timeout") ++summary->timeouts;
    if (record.verdict == "expected_failure") ++summary->expected_failures;
    if (record.predicted && record.verdict == "ok" && record.success) {
      ++summary->prediction_mismatches;
    }
    if (record.exact) ++summary->exact;
    if (record.success && !record.exact) ++summary->approximate;
    summary->rounds += record.rounds;
    summary->messages += record.messages;
    if (record.wall_ms >= 0.0) summary->cell_ms += record.wall_ms;
  }
}

// Summed serial wall time of the table2 cells whose mechanism starts with
// each of `prefixes`, one sum per prefix, each cell the best of kRepeats
// runs alone: every repetition is the same deterministic cell, so the
// fastest isolates its cost from host noise, as bench/executor_scaling does
// for its rows. Each repetition sweeps every matching cell in turn, so all
// sums see the same stretch of host load.
std::vector<double> table2_serial_cell_ms(
    const std::vector<CellRecord>& records, const std::vector<Cell>& cells,
    const std::vector<std::string_view>& prefixes) {
  constexpr int kRepeats = 7;
  std::vector<std::pair<std::size_t, const Cell*>> timed;  // (prefix, cell)
  for (const CellRecord& record : records) {
    for (std::size_t p = 0; p < prefixes.size(); ++p) {
      if (record.suite == "table2" &&
          record.mechanism.starts_with(prefixes[p])) {
        timed.emplace_back(p, &cells[static_cast<std::size_t>(record.cell)]);
      }
    }
  }
  std::vector<double> best(timed.size(),
                           std::numeric_limits<double>::infinity());
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t i = 0; i < timed.size(); ++i) {
      const CellRecord run =
          Runner::run_cell(*timed[i].second, /*record_wall_time=*/true);
      best[i] = std::min(best[i], run.wall_ms);
    }
  }
  std::vector<double> sums(prefixes.size(), 0.0);
  for (std::size_t i = 0; i < timed.size(); ++i) {
    sums[timed[i].first] += best[i];
  }
  return sums;
}

}  // namespace

int main() {
  const auto started = std::chrono::steady_clock::now();

  RunnerOptions options;
  options.threads = ThreadPool::hardware_threads();
  options.resume = false;
  options.include_timings = true;  // in-memory wall_ms feeds cell_ms
  const Runner runner(options);

  std::printf("campaign bench: running 'tables' grid...\n");
  const std::vector<CellRecord> tables = runner.run(Grid::preset("tables"));
  std::printf("campaign bench: running 'adversarial' grid...\n");
  const std::vector<CellRecord> adversarial =
      runner.run(Grid::preset("adversarial"));
  std::printf("campaign bench: running 'faults' grid...\n");
  const std::vector<CellRecord> faults = runner.run(Grid::preset("faults"));

  std::vector<SuiteSummary> suites;
  fold(tables, suites);
  fold(adversarial, suites);
  fold(faults, suites);

  const TableComparison table1 = compare_table(tables, "table1");
  const TableComparison table2 = compare_table(tables, "table2");
  std::printf("\n%s\n%s\n", render_table(table1).c_str(),
              render_table(table2).c_str());

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  std::printf("campaign bench: timing table2 history-tree and set-gossip "
              "cells serially...\n");
  const std::vector<Cell> table_cells = Grid::preset("tables").expand();
  const std::vector<double> serial_ms =
      table2_serial_cell_ms(tables, table_cells, {"history-tree", "gossip"});

  FILE* out = std::fopen("BENCH_campaign.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_campaign.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"hardware_threads\": %d,\n",
               ThreadPool::hardware_threads());
  std::fprintf(out, "  \"wall_seconds\": %.3f,\n", wall_seconds);
  std::fprintf(out, "  \"table1_matches_paper\": %s,\n",
               table1.all_match ? "true" : "false");
  std::fprintf(out, "  \"table2_matches_paper\": %s,\n",
               table2.all_match ? "true" : "false");
  // Both sums come from the one serial pass above, so their ratio does not
  // depend on the host's speed.
  std::fprintf(out, "  \"table2_history_cell_ms\": %lld,\n",
               std::llround(serial_ms[0]));
  std::fprintf(out, "  \"table2_gossip_cell_ms\": %lld,\n",
               std::llround(serial_ms[1]));
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < suites.size(); ++i) {
    const SuiteSummary& s = suites[i];
    JsonObject o;
    o.field("suite", s.suite)
        .field("cells", s.cells)
        .field("ok", s.ok)
        .field("skipped", s.skipped)
        .field("failed", s.failed)
        .field("timeouts", s.timeouts)
        .field("expected_failures", s.expected_failures)
        .field("prediction_mismatches", s.prediction_mismatches)
        .field("exact", s.exact)
        .field("approximate", s.approximate)
        .field("rounds", s.rounds)
        .field("messages", s.messages)
        .field("cell_ms", static_cast<std::int64_t>(std::llround(s.cell_ms)));
    std::fprintf(out, "    %s%s\n", o.str().c_str(),
                 i + 1 < suites.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  // The three grids ran whole, so the tables gate the run.
  std::vector<CellRecord> all = tables;
  all.insert(all.end(), adversarial.begin(), adversarial.end());
  all.insert(all.end(), faults.begin(), faults.end());
  const RunVerdict verdict = judge_run(all, /*complete=*/true);
  std::printf("wrote BENCH_campaign.json (%zu suites, %.1fs)\n",
              suites.size(), wall_seconds);
  if (!verdict.passed) {
    std::printf("MISMATCH, failed cells, or predicted breakdowns that "
                "succeeded — see above.\n");
    return 1;
  }
  return 0;
}
