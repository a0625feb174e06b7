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
// table2/table1 ratio gate), the summed time of table2's history-tree and
// set-gossip cells (its history/gossip gate), and to score the sharding
// policies: the shard-imbalance block reports max/mean shard wall time for
// the 4-way cost (LPT) and index splits over the measured costs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/cost_model.hpp"
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

// Summed wall time of the table2 cells whose mechanism starts with
// `prefix`.
double table2_cell_ms(const std::vector<CellRecord>& records,
                      std::string_view prefix) {
  double ms = 0.0;
  for (const CellRecord& record : records) {
    if (record.suite == "table2" && record.wall_ms >= 0.0 &&
        record.mechanism.starts_with(prefix)) {
      ms += record.wall_ms;
    }
  }
  return ms;
}

// max/mean shard wall time of `assignment` over the measured costs — 1.0
// is a perfect split, `shards` the degenerate everything-on-one-shard one.
double imbalance(const std::vector<Cell>& cells, const CostModel& model,
                 const std::vector<int>& assignment, int shards) {
  std::vector<double> load(static_cast<std::size_t>(shards), 0.0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    load[static_cast<std::size_t>(assignment[i])] += model.cost(cells[i]);
  }
  double total = 0.0;
  double max_load = 0.0;
  for (double l : load) {
    total += l;
    max_load = std::max(max_load, l);
  }
  return total > 0.0 ? max_load / (total / shards) : 1.0;
}

}  // namespace

int main() {
  const auto started = std::chrono::steady_clock::now();

  RunnerOptions options;
  options.threads = ThreadPool::hardware_threads();
  options.resume = false;
  options.include_timings = true;  // in-memory wall_ms feeds the cost model
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

  // Score the sharding policies on the measured per-cell wall times: how
  // uneven a 4-way split of this campaign would be under each policy.
  CostModel measured;
  for (const CellRecord& record : tables) {
    if (record.wall_ms >= 0.0) measured.set_measured(record.key, record.wall_ms);
  }
  for (const CellRecord& record : adversarial) {
    if (record.wall_ms >= 0.0) measured.set_measured(record.key, record.wall_ms);
  }
  for (const CellRecord& record : faults) {
    if (record.wall_ms >= 0.0) measured.set_measured(record.key, record.wall_ms);
  }
  std::vector<Cell> cells = Grid::preset("tables").expand();
  for (const char* extra_grid : {"adversarial", "faults"}) {
    const std::vector<Cell> extra = Grid::preset(extra_grid).expand();
    cells.insert(cells.end(), extra.begin(), extra.end());
  }
  constexpr int kShards = 4;
  const std::vector<int> by_cost =
      assign_shards_by_cost(cells, measured, kShards);
  std::vector<int> by_index(cells.size(), 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    by_index[i] = static_cast<int>(i % kShards);
  }
  const double cost_imbalance = imbalance(cells, measured, by_cost, kShards);
  const double index_imbalance = imbalance(cells, measured, by_index, kShards);
  std::printf("shard imbalance (max/mean over %d shards): cost %.3f, "
              "index %.3f\n",
              kShards, cost_imbalance, index_imbalance);

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
  // Both sums come from this one run, so their ratio does not depend on
  // the host's speed.
  std::fprintf(out, "  \"table2_history_cell_ms\": %lld,\n",
               std::llround(table2_cell_ms(tables, "history-tree")));
  std::fprintf(out, "  \"table2_gossip_cell_ms\": %lld,\n",
               std::llround(table2_cell_ms(tables, "gossip")));
  std::fprintf(out, "  \"shard_imbalance\": {\"shards\": %d, "
               "\"cost_max_over_mean\": %.4f, "
               "\"index_max_over_mean\": %.4f},\n",
               kShards, cost_imbalance, index_imbalance);
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
