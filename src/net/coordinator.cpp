#include "net/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "net/protocol.hpp"

namespace anonet::net {

namespace {

using campaign::Cell;
using campaign::CellRecord;
using campaign::MetricsSink;

// One connected worker. `inflight` holds positions into the pending-cell
// vector, so a disconnect can return exactly those cells to the queue.
struct Peer {
  TcpSocket socket;
  FrameDecoder decoder;
  bool greeted = false;
  std::uint32_t window = 1;
  std::vector<std::size_t> inflight;
};

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  if (options_.workers < 1) {
    throw std::invalid_argument("Coordinator: workers must be >= 1");
  }
  campaign::check_shard(options_);
  campaign::check_bandwidth_override(options_.bandwidth_bits);
  grid_ = campaign::Grid::preset(options_.grid);
}

std::uint16_t Coordinator::listen() {
  if (!listener_.valid()) {
    listener_ = TcpListener::bind(options_.host, options_.port);
  }
  return listener_.port();
}

std::vector<CellRecord> Coordinator::run() {
  listen();
  stats_ = CoordinatorStats{};

  // The coordinator owns every cell of its shard. Workers re-expand the
  // same grid with the same overrides from the WELCOME parameters, so
  // (index, key) pairs agree on both ends of every socket.
  campaign::CampaignRun run = campaign::start_campaign(grid_, options_);
  if (run.pending.empty()) {
    // Nothing to dispatch: a worker would only be greeted and shut down,
    // so none is waited for.
    listener_.close();
    return campaign::finish_campaign(std::move(run), {}, options_);
  }
  const std::vector<Cell>& pending = run.pending;
  MetricsSink* const sink = run.sink.get();

  std::vector<std::string> pending_keys;  // computed once, reused per frame
  pending_keys.reserve(pending.size());
  for (const Cell& cell : pending) pending_keys.push_back(cell.key());
  std::unordered_map<std::uint32_t, std::size_t> pos_by_index;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    pos_by_index.emplace(static_cast<std::uint32_t>(pending[i].index), i);
  }

  // Demand queue in start_campaign's work order, the one the in-process
  // pool steals in; reassigned cells go to the *front* (they blocked a
  // worker already — they should not wait out the whole queue again).
  std::deque<std::size_t> queue(pending.size());
  std::iota(queue.begin(), queue.end(), std::size_t{0});
  std::vector<std::optional<CellRecord>> fresh(pending.size());
  std::size_t outstanding = 0;  // cells assigned but not yet recorded

  std::vector<std::unique_ptr<Peer>> peers;
  int joined_now = 0;  // currently-connected greeted workers
  bool started = false;

  WelcomePayload welcome;
  welcome.grid = options_.grid;
  welcome.include_timings = options_.include_timings;
  welcome.bandwidth_bits = options_.bandwidth_bits;
  welcome.cell_timeout_ms = options_.cell_timeout_ms;

  // --- event-loop helpers -------------------------------------------------

  const auto send_frame = [](Peer& peer, const Frame& frame) -> bool {
    try {
      write_frame(peer.socket, frame);
      return true;
    } catch (const SocketError&) {
      return false;  // caller drops the peer; its cells are reassigned
    }
  };

  // Fills a peer's window from the queue. Returns false when a write failed
  // (peer must be dropped; the cell just queued to it is in `inflight`, so
  // the normal reassignment path recovers it).
  const auto assign_work = [&](Peer& peer) -> bool {
    while (peer.inflight.size() < peer.window && !queue.empty()) {
      const std::size_t pos = queue.front();
      queue.pop_front();
      peer.inflight.push_back(pos);
      ++outstanding;
      ++stats_.cells_assigned;
      AssignPayload assign;
      assign.cell_index = static_cast<std::uint32_t>(pending[pos].index);
      assign.key = pending_keys[pos];
      if (!send_frame(peer, encode_assign(assign))) return false;
    }
    return true;
  };

  // Disconnect handling: return in-flight cells to the queue front, in
  // their original relative order. Idempotent — a peer closed mid-dispatch
  // is swept through here again.
  const auto drop_peer = [&](Peer& peer) {
    peer.socket.close();
    if (peer.greeted) {
      ++stats_.workers_lost;
      --joined_now;
      peer.greeted = false;
    }
    for (auto it = peer.inflight.rbegin(); it != peer.inflight.rend(); ++it) {
      queue.push_front(*it);
      --outstanding;
      ++stats_.cells_reassigned;
    }
    peer.inflight.clear();
  };

  // Frame dispatch for one peer. Returns false when the peer violated the
  // protocol and must be dropped.
  const auto handle_frame = [&](Peer& peer, const Frame& frame) -> bool {
    if (!peer.greeted) {
      const HelloPayload hello = decode_hello(frame);  // throws on non-HELLO
      if (hello.version != kProtocolVersion) {
        ++stats_.workers_rejected;
        return false;
      }
      peer.greeted = true;
      peer.window = std::max<std::uint32_t>(1, hello.window);
      ++stats_.workers_joined;
      ++joined_now;
      if (!send_frame(peer, encode_welcome(welcome))) return false;
      if (!started && joined_now >= options_.workers) {
        started = true;
        for (const std::unique_ptr<Peer>& other : peers) {
          if (other->greeted && other->socket.valid() &&
              !assign_work(*other)) {
            // A failed kickoff write is indistinguishable from a dead
            // worker: let the poll loop reap it via EOF.
            other->socket.close();
          }
        }
        return peer.socket.valid();
      }
      // A late joiner (or a replacement) goes to work immediately.
      return !started || assign_work(peer);
    }
    if (frame.type != FrameType::kVerdict) {
      throw FrameError(std::string("coordinator: unexpected ") +
                       std::string(to_string(frame.type)) +
                       " from a greeted worker");
    }
    const VerdictPayload verdict = decode_verdict(frame);
    const auto pos_it = pos_by_index.find(verdict.cell_index);
    if (pos_it == pos_by_index.end() ||
        pending_keys[pos_it->second] != verdict.key) {
      throw FrameError("coordinator: verdict for unknown cell " +
                       verdict.key);
    }
    const std::size_t pos = pos_it->second;
    const auto inflight_it =
        std::find(peer.inflight.begin(), peer.inflight.end(), pos);
    if (inflight_it != peer.inflight.end()) {
      peer.inflight.erase(inflight_it);
      --outstanding;
    }
    if (fresh[pos].has_value()) {
      ++stats_.duplicate_verdicts;  // a reassigned cell, already recorded
    } else {
      std::optional<CellRecord> record = MetricsSink::parse_line(verdict.line);
      if (!record.has_value() || record->key != verdict.key) {
        throw FrameError("coordinator: unparseable verdict line for " +
                         verdict.key);
      }
      record->cell = pending[pos].index;  // re-anchor, as resume does
      if (sink != nullptr) sink->append(*record);  // durable before ack
      fresh[pos] = std::move(record);
      ++stats_.verdicts;
    }
    return assign_work(peer);
  };

  // Drains the peer's decoder after a read. Returns false to drop.
  const auto handle_input = [&](Peer& peer) -> bool {
    std::uint8_t chunk[64 * 1024];
    std::size_t got = 0;
    try {
      got = peer.socket.read_some(chunk, sizeof(chunk));
    } catch (const SocketError&) {
      return false;
    }
    if (got == 0) return false;  // EOF (mid-frame or not: cells come back)
    try {
      peer.decoder.feed(chunk, got);
      while (std::optional<Frame> frame = peer.decoder.next()) {
        if (!handle_frame(peer, *frame)) return false;
      }
    } catch (const FrameError&) {
      return false;  // poisoned stream: drop, reassign
    }
    return true;
  };

  // --- event loop ---------------------------------------------------------

  while (!(started && outstanding == 0 && queue.empty())) {
    if (started && joined_now == 0 && (outstanding > 0 || !queue.empty())) {
      throw std::runtime_error(
          "Coordinator: all workers disconnected with " +
          std::to_string(outstanding + queue.size()) + " cells outstanding");
    }
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    std::vector<Peer*> polled;
    for (const std::unique_ptr<Peer>& peer : peers) {
      if (peer->socket.valid()) {
        fds.push_back(pollfd{peer->socket.fd(), POLLIN, 0});
        polled.push_back(peer.get());
      }
    }
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw SocketError("Coordinator: poll failed");
    }
    if ((fds[0].revents & POLLIN) != 0) {
      auto peer = std::make_unique<Peer>();
      peer->socket = listener_.accept();
      peers.push_back(std::move(peer));
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short events = fds[i + 1].revents;
      if (events == 0) continue;
      if (!handle_input(*polled[i])) drop_peer(*polled[i]);
    }
    // Sweep peers closed mid-dispatch (e.g. a failed kickoff write) through
    // the same reassignment path, then reap them.
    for (const std::unique_ptr<Peer>& peer : peers) {
      if (!peer->socket.valid()) drop_peer(*peer);
    }
    // Demand-feed after the sweep. Assignment is otherwise driven only by
    // verdict and HELLO frames, but a reap can refill the queue when every
    // surviving (or replacement) worker has already drained its window —
    // those workers have no verdict left to send, so nothing would ever
    // hand them the returned cells and the campaign would hang with work
    // queued and every worker idle.
    for (const std::unique_ptr<Peer>& peer : peers) {
      if (queue.empty()) break;
      if (started && peer->greeted && peer->socket.valid() &&
          !assign_work(*peer)) {
        drop_peer(*peer);
      }
    }
    std::erase_if(peers, [](const std::unique_ptr<Peer>& peer) {
      return !peer->socket.valid();
    });
  }

  // Orderly teardown: every worker gets a SHUTDOWN, failures ignored.
  const Frame shutdown = encode_shutdown();
  for (const std::unique_ptr<Peer>& peer : peers) {
    if (peer->greeted && peer->socket.valid()) {
      (void)send_frame(*peer, shutdown);
    }
    peer->socket.close();
  }
  peers.clear();
  listener_.close();

  std::vector<CellRecord> fresh_records;
  fresh_records.reserve(fresh.size());
  for (std::optional<CellRecord>& record : fresh) {
    if (!record.has_value()) {
      throw std::runtime_error("Coordinator: campaign ended with a hole");
    }
    fresh_records.push_back(std::move(*record));
  }
  return campaign::finish_campaign(std::move(run), std::move(fresh_records),
                                   options_);
}

}  // namespace anonet::net
