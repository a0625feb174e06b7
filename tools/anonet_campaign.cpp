// anonet_campaign — sharded campaign driver (docs/campaign.md).
//
//   anonet_campaign --grid tables --out out.jsonl
//   anonet_campaign --grid tables --shards 4 --shard-index 2 --out s2.jsonl
//
// Expands a named grid, runs this process's shard, and appends one JSONL
// record per cell to --out (resuming past completed cells on rerun). For
// the table suites it then folds the records into the Table 1 / Table 2
// verdict grids and compares them against the paper. The exit status is
// campaign::judge_run's rule: 0 iff no cell "failed", no predicted
// breakdown succeeded, and (on a single shard) every non-open table cell
// matches the paper and every open one was skipped.
//
// Records are byte-reproducible by default (no wall-clock fields), so the
// canonical output of N shards concatenated equals the 1-shard output.
// --timings opts into wall_ms per cell and gives up that guarantee.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/metrics.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "cli.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --grid NAME [options]\n"
      "\n"
      "options:\n"
      "  --grid NAME         grid preset: table1, table2, tables, open,\n"
      "                      adversarial, bandwidth, faults, smoke\n"
      "                      (required)\n"
      "  --out PATH          JSONL output file (resumable; omit to only\n"
      "                      print the aggregate)\n"
      "  --shards N          total shard count (default 1)\n"
      "  --shard-index I     this process's shard in [0, N): the cells\n"
      "                      whose index mod N is I (default 0)\n"
      "  --cost-file PATH    timings JSONL from a previous --timings run;\n"
      "                      cells start most expensive first, by its\n"
      "                      measured wall_ms in place of the static cost\n"
      "                      estimates\n"
      "  --cell-timeout-ms M wall-clock deadline per cell; a tripped\n"
      "                      deadline records verdict \"timeout\" instead\n"
      "                      of hanging the shard (default: none)\n"
      "  --bandwidth-bits B  channel policy for cells that do not set their\n"
      "                      own: -1 meters wire bits, B > 0 bounds every\n"
      "                      message to B bits (an over-budget message\n"
      "                      records verdict \"bandwidth_exceeded\"). This\n"
      "                      changes the affected cells' keys, so metered\n"
      "                      and unmetered runs resume separately\n"
      "                      (default: 0, channel off)\n"
      "  --threads T         worker threads for this shard (default 1;\n"
      "                      cells always run serially inside)\n"
      "  --timings           record wall_ms per cell (breaks byte-for-byte\n"
      "                      reproducibility across runs)\n"
      "  --fresh             ignore an existing --out file instead of\n"
      "                      resuming from it\n"
      "  --quiet             suppress the per-suite aggregate tables\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anonet::campaign;
  using anonet::tools::parse_number;
  using anonet::tools::print_verdict;

  std::string grid_name;
  RunnerOptions options;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "anonet_campaign: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--grid") {
      grid_name = value();
    } else if (arg == "--out") {
      options.out_path = value();
    } else if (arg == "--shards") {
      if (!parse_number(value(), options.shards)) {
        std::fprintf(stderr, "anonet_campaign: bad --shards value\n");
        return 2;
      }
    } else if (arg == "--shard-index") {
      if (!parse_number(value(), options.shard_index)) {
        std::fprintf(stderr, "anonet_campaign: bad --shard-index value\n");
        return 2;
      }
    } else if (arg == "--cost-file") {
      options.cost_path = value();
    } else if (arg == "--cell-timeout-ms") {
      if (!parse_number(value(), options.cell_timeout_ms)) {
        std::fprintf(stderr, "anonet_campaign: bad --cell-timeout-ms value\n");
        return 2;
      }
    } else if (arg == "--bandwidth-bits") {
      if (!parse_number(value(), options.bandwidth_bits)) {
        std::fprintf(stderr, "anonet_campaign: bad --bandwidth-bits value\n");
        return 2;
      }
    } else if (arg == "--threads") {
      if (!parse_number(value(), options.threads)) {
        std::fprintf(stderr, "anonet_campaign: bad --threads value\n");
        return 2;
      }
    } else if (arg == "--timings") {
      options.include_timings = true;
    } else if (arg == "--fresh") {
      options.resume = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "anonet_campaign: unknown option '%s'\n",
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (grid_name.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    const Grid grid = Grid::preset(grid_name);
    const Runner runner(options);
    const std::vector<CellRecord> records = runner.run(grid);

    // A single shard covers the whole grid; partial shards report their
    // tables but do not gate on them.
    const RunVerdict verdict = judge_run(records, options.shards == 1);
    int skipped = 0;
    int timeouts = 0;
    int over_budget = 0;
    int expected_failures = 0;
    for (const CellRecord& record : records) {
      if (record.verdict == "skipped") ++skipped;
      if (record.verdict == "timeout") ++timeouts;
      if (record.verdict == "bandwidth_exceeded") ++over_budget;
      if (record.verdict == "expected_failure") ++expected_failures;
    }
    std::printf("campaign '%s': shard %d/%d ran %zu cells (%d skipped, %d "
                "failed, %d timed out, %d over bandwidth, %d expected "
                "failures)\n",
                grid_name.c_str(), options.shard_index, options.shards,
                records.size(), skipped, verdict.failed, timeouts, over_budget,
                expected_failures);
    if (!options.out_path.empty()) {
      std::printf("records: %s\n", options.out_path.c_str());
    }
    print_verdict(verdict, "anonet_campaign", quiet);
    return verdict.passed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anonet_campaign: %s\n", e.what());
    return 2;
  }
}
