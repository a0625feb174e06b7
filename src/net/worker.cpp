#include "net/worker.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/metrics.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "net/protocol.hpp"

namespace anonet::net {

namespace {

using campaign::Cell;
using campaign::CellRecord;
using campaign::MetricsSink;

TcpSocket connect_with_retry(const std::string& host, std::uint16_t port,
                             double timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(timeout_ms);
  while (true) {
    try {
      return connect_tcp(host, port);
    } catch (const SocketError&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

}  // namespace

WorkerNode::WorkerNode(WorkerOptions options) : options_(std::move(options)) {
  if (options_.threads < 1) options_.threads = 1;
}

bool WorkerNode::run() {
  stats_ = WorkerStats{};
  TcpSocket socket = connect_with_retry(options_.host, options_.port,
                                        options_.connect_timeout_ms);
  FrameDecoder decoder;

  HelloPayload hello;
  hello.window = static_cast<std::uint32_t>(options_.threads);
  write_frame(socket, encode_hello(hello));

  std::optional<Frame> first = read_frame(socket, decoder);
  if (!first.has_value()) {
    throw SocketError("WorkerNode: coordinator closed during handshake");
  }
  const WelcomePayload welcome = decode_welcome(*first);
  if (welcome.version != kProtocolVersion) {
    throw FrameError("WorkerNode: protocol version mismatch (coordinator " +
                     std::to_string(welcome.version) + ", worker " +
                     std::to_string(kProtocolVersion) + ")");
  }

  // Local re-expansion: the same deterministic cell list the coordinator
  // holds, with the same overrides, hence the same keys.
  std::vector<Cell> cells = campaign::Grid::preset(welcome.grid).expand();
  campaign::apply_cell_overrides(cells, welcome.cell_timeout_ms,
                                 welcome.bandwidth_bits);
  const bool timings = welcome.include_timings;

  // Cell pool: the frame loop enqueues, pool threads run cells and send
  // VERDICTs under a write mutex so frames never interleave on the socket.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<AssignPayload> tasks;
  bool closing = false;
  std::mutex write_mutex;
  std::atomic<std::int64_t> cells_run{0};
  std::mutex error_mutex;
  std::string pool_error;  // first send failure; frame loop surfaces it

  const auto pool_main = [&] {
    while (true) {
      AssignPayload task;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return closing || !tasks.empty(); });
        if (tasks.empty()) return;  // closing with nothing left
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      const CellRecord record =
          campaign::Runner::run_cell(cells[task.cell_index], timings);
      VerdictPayload verdict;
      verdict.cell_index = task.cell_index;
      verdict.key = std::move(task.key);
      verdict.line = MetricsSink::to_json(record, timings);
      try {
        const std::lock_guard<std::mutex> lock(write_mutex);
        write_frame(socket, encode_verdict(verdict));
      } catch (const std::exception& error) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (pool_error.empty()) pool_error = error.what();
        return;  // the frame loop will see the broken socket too
      }
      cells_run.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) pool.emplace_back(pool_main);

  const auto stop_pool = [&] {
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      closing = true;
    }
    queue_cv.notify_all();
    for (std::thread& thread : pool) thread.join();
  };

  bool clean = false;
  bool abandoned = false;
  std::int64_t accepted = 0;
  try {
    while (std::optional<Frame> frame = read_frame(socket, decoder)) {
      switch (frame->type) {
        case FrameType::kAssign: {
          AssignPayload assign = decode_assign(*frame);
          if (assign.cell_index >= cells.size() ||
              cells[assign.cell_index].key() != assign.key) {
            throw FrameError(
                "WorkerNode: assignment key skew for cell index " +
                std::to_string(assign.cell_index) +
                " (grid or option mismatch with the coordinator)");
          }
          if (options_.abandon_after >= 0 &&
              accepted >= options_.abandon_after) {
            // Fault injection: die with exactly this cell unacknowledged
            // (plus anything still queued). The socket is closed after the
            // pool joins — never concurrently with a pool-thread write —
            // and the coordinator sees EOF and reassigns.
            {
              const std::lock_guard<std::mutex> lock(queue_mutex);
              tasks.clear();
            }
            abandoned = true;
            break;
          }
          ++accepted;
          {
            const std::lock_guard<std::mutex> lock(queue_mutex);
            tasks.push_back(std::move(assign));
          }
          queue_cv.notify_one();
          break;
        }
        case FrameType::kShutdown:
          decode_shutdown(*frame);
          clean = true;
          break;
        default:
          throw FrameError(std::string("WorkerNode: unexpected ") +
                           std::string(to_string(frame->type)) +
                           " from the coordinator");
      }
      if (clean || abandoned) break;
    }
  } catch (...) {
    stop_pool();
    throw;
  }
  stop_pool();

  stats_.cells_run = cells_run.load(std::memory_order_relaxed);
  stats_.clean_shutdown = clean;
  if (abandoned) {
    socket.close();
    return false;
  }
  {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!pool_error.empty()) {
      throw SocketError("WorkerNode: verdict send failed: " + pool_error);
    }
  }
  if (!clean) {
    throw SocketError("WorkerNode: coordinator vanished before SHUTDOWN");
  }
  socket.close();
  return true;
}

}  // namespace anonet::net
