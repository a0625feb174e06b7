#pragma once

// Campaign coordinator for distributed runs (docs/transport.md).
//
// The coordinator is the distributed twin of campaign::Runner::run(): it
// takes the runner's options and shares its lifecycle
// (campaign::start_campaign and finish_campaign: expansion, sharding,
// resume, sink, canonical rewrite) and owns only the dispatch — instead of
// a thread pool it feeds cells to worker *processes* over TCP
// (net/protocol.hpp), demand-driven in the work order start_campaign
// returns, the one the in-process pool steals in. A worker with window W
// holds at most W cells in flight; finishing one (VERDICT) pulls the next,
// so fast workers naturally take more of the queue.
//
// Fault model: a worker disconnect (EOF, reset, corrupt frame) returns its
// in-flight cells to the *front* of the queue — each such cell is
// reassigned exactly once per loss. Verdicts are deduplicated by cell and
// the sink flushes every verdict-bearing record (campaign/metrics.hpp), so
// a crash on either side never loses an acknowledged cell and the final
// canonical file is byte-identical to a fault-free single-process run.

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/metrics.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "net/socket.hpp"

namespace anonet::net {

// The runner's options (shard, resume, output, overrides; `threads` is
// unused, workers bring their own) plus the dispatch. include_timings,
// bandwidth_bits and cell_timeout_ms are shipped in WELCOME so worker keys
// agree.
struct CoordinatorOptions : campaign::RunnerOptions {
  std::string grid;                // Grid::preset name (shipped in WELCOME)
  int workers = 1;                 // HELLOs to wait for before assigning
  std::string host = "127.0.0.1";  // listen address
  std::uint16_t port = 0;          // 0 = ephemeral (read back via listen())
};

struct CoordinatorStats {
  int workers_joined = 0;      // HELLOs accepted over the whole run
  int workers_rejected = 0;    // bad magic/version handshakes dropped
  int workers_lost = 0;        // accepted workers that disconnected
  std::int64_t cells_assigned = 0;    // ASSIGN frames sent (incl. re-sends)
  std::int64_t cells_reassigned = 0;  // cells returned by a lost worker
  std::int64_t verdicts = 0;          // fresh verdicts recorded
  std::int64_t duplicate_verdicts = 0;
};

class Coordinator {
 public:
  // Resolves the grid preset and checks the options, so a bad campaign
  // fails before any socket exists. Throws std::invalid_argument on
  // workers < 1, a grid name that is not a preset, a shard spec that fails
  // campaign::check_shard or a bandwidth override that fails
  // campaign::check_bandwidth_override.
  explicit Coordinator(CoordinatorOptions options);

  // Binds and listens; returns the bound port (resolves port 0). Separate
  // from run() so a caller can publish the ephemeral port before workers
  // race to connect.
  std::uint16_t listen();

  // Runs the campaign to completion and returns this run's records (reused
  // and fresh) in canonical order, exactly as Runner::run() would. Calls
  // listen() if it has not happened yet. With no cell pending (every one
  // resumed) it closes the listener and returns without waiting for a
  // worker. Throws SocketError/FrameError on unrecoverable transport
  // failure and std::runtime_error when every worker is gone with cells
  // still outstanding.
  std::vector<campaign::CellRecord> run();

  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }

 private:
  CoordinatorOptions options_;
  campaign::Grid grid_;  // Grid::preset(options_.grid)
  TcpListener listener_;
  CoordinatorStats stats_;
};

}  // namespace anonet::net
