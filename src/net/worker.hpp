#pragma once

// Worker side of the distributed campaign (docs/transport.md).
//
// A WorkerNode connects to a Coordinator, introduces itself (HELLO with a
// window equal to its thread count), re-expands the campaign grid named in
// the WELCOME — Grid::expand() is deterministic, so both ends agree on
// every (index, key) pair without cells ever crossing the wire — and then
// serves ASSIGN frames until SHUTDOWN: each assigned cell runs through the
// exact same campaign::Runner::run_cell the in-process runner uses, and its
// record goes back as a VERDICT carrying the MetricsSink::to_json line.
// Rendering on the worker and parse→re-render on the coordinator is
// byte-exact (support/jsonl.hpp), which is what makes a distributed run's
// canonical output identical to a single-process one.
//
// With threads > 1 the frame loop stays on the calling thread and cells run
// on an internal pool; VERDICT writes are serialized by a mutex so frames
// never interleave. Cells are serial *internally* (Executor threads = 1),
// exactly like the in-process runner's pool — parallelism between cells
// only, so per-cell results stay bit-identical.

#include <cstdint>
#include <string>

#include "net/socket.hpp"

namespace anonet::net {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int threads = 1;  // concurrent cells; advertised as the HELLO window
  // Retry budget for the initial connect (covers the coordinator still
  // binding when the worker launches first).
  double connect_timeout_ms = 10000.0;
  // Fault-injection hook for disconnect tests: after completing this many
  // cells, the worker reacts to its next ASSIGN by closing the socket
  // abruptly — leaving exactly that one cell in flight for the coordinator
  // to reassign. Negative = never (the normal mode).
  int abandon_after = -1;
};

struct WorkerStats {
  std::int64_t cells_run = 0;
  bool clean_shutdown = false;
};

class WorkerNode {
 public:
  explicit WorkerNode(WorkerOptions options);

  // Connects, handshakes, and serves until SHUTDOWN (returns true) or until
  // the abandon_after hook fires (returns false). Throws SocketError when
  // the coordinator is unreachable or vanishes, FrameError on a protocol
  // violation (version mismatch, key skew, corrupt frame).
  bool run();

  [[nodiscard]] const WorkerStats& stats() const { return stats_; }

 private:
  WorkerOptions options_;
  WorkerStats stats_;
};

}  // namespace anonet::net
