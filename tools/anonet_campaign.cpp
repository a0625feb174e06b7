// anonet_campaign — campaign driver (docs/campaign.md, docs/transport.md).
//
// One binary, three roles:
//
//   # in-process: run the shard on a local thread pool
//   anonet_campaign --grid tables --out out.jsonl
//   anonet_campaign --grid tables --shards 4 --shard-index 2 --out s2.jsonl
//
//   # coordinator: listen, wait for 2 workers, dispatch the smoke grid
//   anonet_campaign --listen 127.0.0.1:0 --port-file port.txt
//                   --workers 2 --grid smoke --out out.jsonl
//
//   # worker: connect and serve cells until SHUTDOWN
//   anonet_campaign --connect 127.0.0.1:$(cat port.txt)
//
// Both campaign roles expand a named grid, take this process's shard,
// resume past completed cells in --out, and append one JSONL record per
// cell; they differ only in who runs a cell (the local pool, or workers
// fed over TCP). For the table suites they then fold the records into the
// Table 1 / Table 2 verdict grids and compare them against the paper. The
// exit status is campaign::judge_run's rule: 0 iff no cell "failed", no
// predicted breakdown succeeded, and (on a single shard) every non-open
// table cell matches the paper and every open one was skipped. A worker
// takes the grid and the overrides from its coordinator's WELCOME, so it
// accepts only --threads, --connect-timeout-ms and --abandon-after.
//
// Records are byte-reproducible by default (no wall-clock fields), so the
// canonical output of N shards concatenated equals the 1-shard output,
// whatever the thread or worker counts. --timings opts into wall_ms per
// cell and gives up that guarantee.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "campaign/metrics.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "cli.hpp"
#include "net/coordinator.hpp"
#include "net/worker.hpp"

namespace {

using namespace anonet::campaign;
using anonet::tools::parse_number;

void usage(const char* argv0) {
  std::printf(
      "usage: %s --grid NAME [options]                     (in-process)\n"
      "       %s --listen HOST:PORT --grid NAME [options]  (coordinator)\n"
      "       %s --connect HOST:PORT [worker options]      (worker)\n"
      "\n"
      "campaign options (in-process and coordinator):\n"
      "  --grid NAME         grid preset: table1, table2, tables, open,\n"
      "                      adversarial, bandwidth, faults, smoke\n"
      "                      (required)\n"
      "  --out PATH          JSONL output file (resumable; omit to only\n"
      "                      print the aggregate)\n"
      "  --shards N          total shard count (default 1)\n"
      "  --shard-index I     this process's shard in [0, N): the cells\n"
      "                      whose index mod N is I (default 0)\n"
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
      "  --timings           record wall_ms per cell (breaks byte-for-byte\n"
      "                      reproducibility across runs)\n"
      "  --fresh             ignore an existing --out file instead of\n"
      "                      resuming from it\n"
      "  --quiet             suppress the per-suite aggregate tables\n"
      "\n"
      "in-process options:\n"
      "  --threads T         worker threads for this shard (default 1;\n"
      "                      cells always run serially inside)\n"
      "\n"
      "coordinator options:\n"
      "  --listen HOST:PORT  bind address; port 0 picks an ephemeral port\n"
      "  --workers N         wait for N workers before assigning (default 1)\n"
      "  --port-file PATH    write the bound port here once listening\n"
      "\n"
      "worker options:\n"
      "  --connect HOST:PORT coordinator address\n"
      "  --threads T         cells run concurrently (default 1)\n"
      "  --connect-timeout-ms M  retry budget for the initial connect\n"
      "                      (default 10000)\n"
      "  --abandon-after K   fault injection: complete K cells, then drop\n"
      "                      the connection on the next assignment\n",
      argv0, argv0, argv0);
}

// "HOST:PORT" -> (host, port); the last ':' splits, so a bare ":0" keeps
// the default host.
bool parse_endpoint(const std::string& text, std::string& host,
                    std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) return false;
  if (colon > 0) host = text.substr(0, colon);
  return parse_number(text.c_str() + colon + 1, port);
}

// The roles an option applies to, as a bit set.
enum Role : unsigned {
  kInProcess = 1,
  kCoordinator = 2,
  kWorker = 4,
};

const char* role_name(Role role) {
  switch (role) {
    case kInProcess:
      return "an in-process run";
    case kCoordinator:
      return "a coordinator (--listen)";
    case kWorker:
      return "a worker (--connect)";
  }
  return "?";
}

// Reports judge_run's verdict: the keys of predicted breakdowns that
// succeeded (stderr), each table suite's comparison unless `quiet`, and the
// paper line when the tables gate the run.
void print_verdict(const RunVerdict& verdict, bool quiet) {
  for (const std::string& key : verdict.predicted_successes) {
    std::fprintf(stderr,
                 "anonet_campaign: predicted breakdown succeeded: %s\n",
                 key.c_str());
  }
  if (!quiet) {
    for (const TableComparison& table : verdict.tables) {
      std::printf("\n%s", render_table(table).c_str());
    }
  }
  if (verdict.tables_gate) {
    std::printf("\n%s\n", verdict.tables_match
                              ? "All non-open cells match the paper; open "
                                "'?' cells recorded as skipped."
                              : "MISMATCH against the paper's tables — see "
                                "above.");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anonet::net;

  CoordinatorOptions options;  // the runner's options plus the dispatch
  WorkerOptions worker_options;
  bool listen_mode = false;
  bool connect_mode = false;
  std::string port_file;
  bool quiet = false;
  // Every option given, with the roles it applies to; checked against the
  // role once all are read, so a misplaced option fails before any socket.
  std::vector<std::pair<std::string, unsigned>> given;
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
    const auto number = [&](auto& out) {
      if (!parse_number(value(), out)) {
        std::fprintf(stderr, "anonet_campaign: bad %s value\n", arg.c_str());
        std::exit(2);
      }
    };
    const auto endpoint = [&](std::string& host, std::uint16_t& port) {
      if (!parse_endpoint(value(), host, port)) {
        std::fprintf(stderr, "anonet_campaign: bad %s endpoint\n",
                     arg.c_str());
        std::exit(2);
      }
    };
    unsigned roles = kInProcess | kCoordinator;  // the campaign options
    if (arg == "--grid") {
      options.grid = value();
    } else if (arg == "--out") {
      options.out_path = value();
    } else if (arg == "--shards") {
      number(options.shards);
    } else if (arg == "--shard-index") {
      number(options.shard_index);
    } else if (arg == "--cell-timeout-ms") {
      number(options.cell_timeout_ms);
    } else if (arg == "--bandwidth-bits") {
      number(options.bandwidth_bits);
    } else if (arg == "--timings") {
      options.include_timings = true;
    } else if (arg == "--fresh") {
      options.resume = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--threads") {
      roles = kInProcess | kWorker;
      number(options.threads);
      worker_options.threads = options.threads;
    } else if (arg == "--listen") {
      roles = kCoordinator;
      listen_mode = true;
      endpoint(options.host, options.port);
    } else if (arg == "--workers") {
      roles = kCoordinator;
      number(options.workers);
    } else if (arg == "--port-file") {
      roles = kCoordinator;
      port_file = value();
    } else if (arg == "--connect") {
      roles = kWorker;
      connect_mode = true;
      endpoint(worker_options.host, worker_options.port);
    } else if (arg == "--connect-timeout-ms") {
      roles = kWorker;
      number(worker_options.connect_timeout_ms);
    } else if (arg == "--abandon-after") {
      roles = kWorker;
      number(worker_options.abandon_after);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "anonet_campaign: unknown option '%s'\n",
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
    given.emplace_back(arg, roles);
  }
  if (listen_mode && connect_mode) {
    std::fprintf(stderr,
                 "anonet_campaign: at most one of --listen / --connect\n");
    return 2;
  }
  const Role role =
      listen_mode ? kCoordinator : connect_mode ? kWorker : kInProcess;
  for (const auto& [arg, roles] : given) {
    if ((roles & role) == 0) {
      std::fprintf(stderr, "anonet_campaign: %s does not apply to %s\n",
                   arg.c_str(), role_name(role));
      return 2;
    }
  }
  if (role != kWorker && options.grid.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    if (role == kWorker) {
      WorkerNode worker(worker_options);
      const bool clean = worker.run();
      std::printf("worker: ran %lld cell(s), %s\n",
                  static_cast<long long>(worker.stats().cells_run),
                  clean ? "clean shutdown" : "abandoned (fault injection)");
      return 0;
    }

    std::vector<CellRecord> records;
    CoordinatorStats stats;
    if (role == kCoordinator) {
      Coordinator coordinator(options);
      const std::uint16_t port = coordinator.listen();
      std::printf("anonet_campaign: listening on %s:%u for %d worker(s)\n",
                  options.host.c_str(), port, options.workers);
      std::fflush(stdout);
      if (!port_file.empty()) {
        std::FILE* out = std::fopen(port_file.c_str(), "w");
        if (out == nullptr) {
          std::fprintf(stderr, "anonet_campaign: cannot write %s\n",
                       port_file.c_str());
          return 2;
        }
        std::fprintf(out, "%u\n", port);
        std::fclose(out);
      }
      records = coordinator.run();
      stats = coordinator.stats();
    } else {
      records = Runner(options).run(Grid::preset(options.grid));
    }

    // A single shard covers the whole grid; partial shards report their
    // tables but do not gate on them.
    const RunVerdict verdict = judge_run(records, options.shards == 1);
    if (role == kCoordinator) {
      std::printf(
          "campaign '%s': %zu cells over %d worker(s) (%lld assigned, "
          "%lld reassigned after %d loss(es), %d failed)\n",
          options.grid.c_str(), records.size(), stats.workers_joined,
          static_cast<long long>(stats.cells_assigned),
          static_cast<long long>(stats.cells_reassigned), stats.workers_lost,
          verdict.failed);
    } else {
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
                  options.grid.c_str(), options.shard_index, options.shards,
                  records.size(), skipped, verdict.failed, timeouts,
                  over_budget, expected_failures);
    }
    if (!options.out_path.empty()) {
      std::printf("records: %s\n", options.out_path.c_str());
    }
    print_verdict(verdict, quiet);
    return verdict.passed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anonet_campaign: %s\n", e.what());
    return 2;
  }
}
