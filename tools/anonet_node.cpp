// anonet_node — distributed campaign node (docs/transport.md).
//
// One binary, two roles:
//
//   # coordinator (one command): listen, wait for 2 workers, run the
//   # smoke grid
//   anonet_node --listen 127.0.0.1:0 --port-file port.txt
//               --workers 2 --grid smoke --out out.jsonl
//
//   # worker: connect and serve cells until SHUTDOWN
//   anonet_node --connect 127.0.0.1:$(cat port.txt)
//
// The coordinator expands the grid, resumes from --out, and feeds cells to
// workers demand-driven, most expensive first; workers re-expand
// the same grid locally and run each assigned cell through the same
// campaign::Runner::run_cell the in-process runner uses. The canonical
// output file is byte-identical to `anonet_campaign --grid NAME --out ...`
// whatever the worker count, and a worker lost mid-campaign only costs its
// in-flight cells a reassignment.
//
// --port-file writes the bound port (resolving --listen HOST:0) after the
// listener is up, so scripts can start workers without racing the bind.
//
// The coordinator owns every cell of the grid, so its run is complete and
// passes or fails by the same rule as a single-shard anonet_campaign run
// (campaign::judge_run): it exits 1 on a failed cell, a predicted
// breakdown that succeeded, or a table suite that differs from the paper.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/metrics.hpp"
#include "cli.hpp"
#include "net/coordinator.hpp"
#include "net/worker.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --listen HOST:PORT --grid NAME [options]   (coordinator)\n"
      "       %s --connect HOST:PORT [options]              (worker)\n"
      "\n"
      "coordinator options:\n"
      "  --listen HOST:PORT  bind address; port 0 picks an ephemeral port\n"
      "  --grid NAME         grid preset to run (see anonet_campaign)\n"
      "  --workers N         wait for N workers before assigning (default 1)\n"
      "  --out PATH          JSONL output file (resumable)\n"
      "  --port-file PATH    write the bound port here once listening\n"
      "  --cost-file PATH    timings JSONL whose wall_ms orders the cells\n"
      "  --cell-timeout-ms M per-cell wall deadline (shipped to workers)\n"
      "  --bandwidth-bits B  channel policy override (shipped to workers)\n"
      "  --timings           record wall_ms (breaks byte-reproducibility)\n"
      "  --fresh             ignore an existing --out file\n"
      "\n"
      "worker options:\n"
      "  --connect HOST:PORT coordinator address\n"
      "  --threads T         cells run concurrently (default 1)\n"
      "  --connect-timeout-ms M  retry budget for the initial connect\n"
      "                      (default 10000)\n"
      "  --abandon-after K   fault injection: complete K cells, then drop\n"
      "                      the connection on the next assignment\n",
      argv0, argv0);
}

// "HOST:PORT" -> (host, port); the last ':' splits, so a bare ":0" keeps
// the default host.
bool parse_endpoint(const std::string& text, std::string& host,
                    std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) return false;
  if (colon > 0) host = text.substr(0, colon);
  return anonet::tools::parse_number(text.c_str() + colon + 1, port);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anonet::net;
  using anonet::tools::parse_number;

  CoordinatorOptions coordinator_options;
  WorkerOptions worker_options;
  bool listen_mode = false;
  bool connect_mode = false;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "anonet_node: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      listen_mode = true;
      if (!parse_endpoint(value(), coordinator_options.host,
                          coordinator_options.port)) {
        std::fprintf(stderr, "anonet_node: bad --listen endpoint\n");
        return 2;
      }
    } else if (arg == "--connect") {
      connect_mode = true;
      if (!parse_endpoint(value(), worker_options.host,
                          worker_options.port)) {
        std::fprintf(stderr, "anonet_node: bad --connect endpoint\n");
        return 2;
      }
    } else if (arg == "--grid") {
      coordinator_options.grid = value();
    } else if (arg == "--workers") {
      if (!parse_number(value(), coordinator_options.workers)) {
        std::fprintf(stderr, "anonet_node: bad --workers value\n");
        return 2;
      }
    } else if (arg == "--out") {
      coordinator_options.out_path = value();
    } else if (arg == "--port-file") {
      port_file = value();
    } else if (arg == "--cost-file") {
      coordinator_options.cost_path = value();
    } else if (arg == "--cell-timeout-ms") {
      if (!parse_number(value(), coordinator_options.cell_timeout_ms)) {
        std::fprintf(stderr, "anonet_node: bad --cell-timeout-ms value\n");
        return 2;
      }
    } else if (arg == "--bandwidth-bits") {
      if (!parse_number(value(), coordinator_options.bandwidth_bits)) {
        std::fprintf(stderr, "anonet_node: bad --bandwidth-bits value\n");
        return 2;
      }
    } else if (arg == "--timings") {
      coordinator_options.include_timings = true;
    } else if (arg == "--fresh") {
      coordinator_options.resume = false;
    } else if (arg == "--threads") {
      if (!parse_number(value(), worker_options.threads)) {
        std::fprintf(stderr, "anonet_node: bad --threads value\n");
        return 2;
      }
    } else if (arg == "--connect-timeout-ms") {
      if (!parse_number(value(), worker_options.connect_timeout_ms)) {
        std::fprintf(stderr, "anonet_node: bad --connect-timeout-ms value\n");
        return 2;
      }
    } else if (arg == "--abandon-after") {
      if (!parse_number(value(), worker_options.abandon_after)) {
        std::fprintf(stderr, "anonet_node: bad --abandon-after value\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "anonet_node: unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (listen_mode == connect_mode) {
    std::fprintf(stderr,
                 "anonet_node: exactly one of --listen / --connect\n");
    usage(argv[0]);
    return 2;
  }

  try {
    if (listen_mode) {
      Coordinator coordinator(coordinator_options);
      const std::uint16_t port = coordinator.listen();
      std::printf("anonet_node: listening on %s:%u for %d worker(s)\n",
                  coordinator_options.host.c_str(), port,
                  coordinator_options.workers);
      std::fflush(stdout);
      if (!port_file.empty()) {
        std::FILE* out = std::fopen(port_file.c_str(), "w");
        if (out == nullptr) {
          std::fprintf(stderr, "anonet_node: cannot write %s\n",
                       port_file.c_str());
          return 2;
        }
        std::fprintf(out, "%u\n", port);
        std::fclose(out);
      }
      const auto records = coordinator.run();
      const CoordinatorStats& stats = coordinator.stats();
      const anonet::campaign::RunVerdict verdict =
          anonet::campaign::judge_run(records, /*complete=*/true);
      std::printf(
          "campaign '%s': %zu cells over %d worker(s) (%lld assigned, "
          "%lld reassigned after %d loss(es), %d failed)\n",
          coordinator_options.grid.c_str(), records.size(),
          stats.workers_joined,
          static_cast<long long>(stats.cells_assigned),
          static_cast<long long>(stats.cells_reassigned), stats.workers_lost,
          verdict.failed);
      if (!coordinator_options.out_path.empty()) {
        std::printf("records: %s\n", coordinator_options.out_path.c_str());
      }
      anonet::tools::print_verdict(verdict, "anonet_node", /*quiet=*/false);
      return verdict.passed ? 0 : 1;
    }
    WorkerNode worker(worker_options);
    const bool clean = worker.run();
    const WorkerStats& stats = worker.stats();
    std::printf("worker: ran %lld cell(s), %s\n",
                static_cast<long long>(stats.cells_run),
                clean ? "clean shutdown" : "abandoned (fault injection)");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anonet_node: %s\n", e.what());
    return 2;
  }
}
