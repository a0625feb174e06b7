// Socket transport tests (src/net/, docs/transport.md): frame integrity
// under corruption and truncation, protocol payload round-trips, handshake
// rejection, and — through real loopback sockets — coordinator/worker
// campaign parity with the in-process Runner, including a worker killed
// mid-campaign.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/metrics.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "net/coordinator.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "wire/wire.hpp"

namespace {

using namespace anonet;
using namespace anonet::net;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "anonet_net_" + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Frame sample_frame() {
  Frame frame;
  frame.type = FrameType::kVerdict;
  frame.payload = {0x01, 0x02, 0xFF, 0x00, 0x7E, 0x41};
  return frame;
}

// --- frame layer ----------------------------------------------------------

TEST(NetFrame, RoundTripsEveryTypeThroughTheDecoder) {
  for (const FrameType type :
       {FrameType::kHello, FrameType::kWelcome, FrameType::kAssign,
        FrameType::kVerdict, FrameType::kShutdown}) {
    Frame frame;
    frame.type = type;
    if (type != FrameType::kShutdown) {
      frame.payload = {0xAB, 0xCD, static_cast<std::uint8_t>(type)};
    }
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    const auto decoded = decoder.next();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
    EXPECT_EQ(decoder.buffered(), 0u);
    EXPECT_FALSE(decoder.next().has_value());
  }

  // Raw type 6, one past SHUTDOWN, is unknown even under a valid CRC.
  std::vector<std::uint8_t> unknown = encode_frame(Frame{});
  unknown[4] = 6;
  const std::uint32_t crc = crc32(&unknown[4], 1);
  for (int i = 0; i < 4; ++i) {
    unknown[5 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  FrameDecoder decoder;
  decoder.feed(unknown.data(), unknown.size());
  EXPECT_THROW((void)decoder.next(), FrameError);
}

TEST(NetFrame, ReassemblesFramesFedOneByteAtATime) {
  const Frame first = sample_frame();
  Frame second;
  second.type = FrameType::kAssign;
  second.payload = std::vector<std::uint8_t>(100, 0x5A);
  std::vector<std::uint8_t> stream = encode_frame(first);
  const std::vector<std::uint8_t> tail = encode_frame(second);
  stream.insert(stream.end(), tail.begin(), tail.end());

  FrameDecoder decoder;
  std::vector<Frame> seen;
  for (const std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    while (auto frame = decoder.next()) seen.push_back(std::move(*frame));
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], first);
  EXPECT_EQ(seen[1], second);
}

// Every truncated prefix is "incomplete", never a frame and never UB.
TEST(NetFrame, TruncatedPrefixesYieldNoFrame) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(bytes.data(), cut);
    EXPECT_FALSE(decoder.next().has_value()) << "prefix " << cut;
    EXPECT_EQ(decoder.buffered(), cut);
  }
}

// Every single-byte corruption is caught: the decoder either throws
// FrameError (CRC/length/type damage) or keeps waiting (length grew) — it
// never hands back a frame.
TEST(NetFrame, EveryByteFlipIsCaughtNeverDecoded) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[i] ^= static_cast<std::uint8_t>(1u << bit);
      FrameDecoder decoder;
      decoder.feed(corrupt.data(), corrupt.size());
      try {
        const auto frame = decoder.next();
        EXPECT_FALSE(frame.has_value())
            << "byte " << i << " bit " << bit << " decoded a corrupt frame";
      } catch (const FrameError&) {
        // the loud, correct outcome
      }
    }
  }
}

TEST(NetFrame, RejectsOversizedDeclaredLengthBeforeBuffering) {
  // Hand-build a header declaring a payload far over the cap; the decoder
  // must throw on the header alone, without waiting for (or allocating)
  // the declared gigabytes.
  const std::uint32_t huge = (1u << 28);
  const std::vector<std::uint8_t> header = {
      static_cast<std::uint8_t>(huge), static_cast<std::uint8_t>(huge >> 8),
      static_cast<std::uint8_t>(huge >> 16),
      static_cast<std::uint8_t>(huge >> 24)};
  FrameDecoder decoder;
  decoder.feed(header.data(), header.size());
  EXPECT_THROW((void)decoder.next(), FrameError);
}

TEST(NetFrame, RejectsPayloadOverCapOnEncode) {
  Frame frame;
  frame.type = FrameType::kVerdict;
  frame.payload.resize(kMaxFramePayload + 1);
  EXPECT_THROW((void)encode_frame(frame), FrameError);
}

// --- protocol payloads ----------------------------------------------------

TEST(NetProtocol, ControlPayloadsRoundTrip) {
  HelloPayload hello;
  hello.window = 7;
  EXPECT_EQ(decode_hello(encode_hello(hello)), hello);

  WelcomePayload welcome;
  welcome.grid = "smoke";
  welcome.include_timings = true;
  welcome.bandwidth_bits = -1;
  welcome.cell_timeout_ms = 1500.5;
  EXPECT_EQ(decode_welcome(encode_welcome(welcome)), welcome);

  AssignPayload assign;
  assign.cell_index = 41;
  assign.key = "smoke/auto/SB/none/max/static_panel/n5/v0/s1";
  EXPECT_EQ(decode_assign(encode_assign(assign)), assign);

  VerdictPayload verdict;
  verdict.cell_index = 5;
  verdict.key = "k";
  verdict.line = R"({"cell":5,"verdict":"ok"})";
  EXPECT_EQ(decode_verdict(encode_verdict(verdict)), verdict);

  EXPECT_NO_THROW(decode_shutdown(encode_shutdown()));
}

TEST(NetProtocol, DecodersRejectTypeMismatchAndTrailingBytes) {
  EXPECT_THROW((void)decode_hello(encode_shutdown()), FrameError);
  EXPECT_THROW((void)decode_assign(encode_verdict(VerdictPayload{})),
               FrameError);
  Frame hello = encode_hello(HelloPayload{});
  hello.payload.push_back(0x00);  // a whole trailing byte = skewed peer
  EXPECT_THROW((void)decode_hello(hello), FrameError);
  Frame truncated = encode_welcome(WelcomePayload{});
  truncated.payload.pop_back();
  EXPECT_THROW((void)decode_welcome(truncated), FrameError);
}

TEST(NetProtocol, HelloWithWrongMagicIsRejected) {
  wire::BitWriter writer;
  writer.write_uvarint(0xBADC0DE);
  writer.write_uvarint(kProtocolVersion);
  writer.write_uvarint(1);
  const Frame impostor{FrameType::kHello, writer.bytes()};
  EXPECT_THROW((void)decode_hello(impostor), FrameError);
}

// Crafted payloads that decoded at one point: narrowed out-of-range
// integers, a redundant zero varint group, a timings byte other than 0/1.
TEST(NetProtocol, OutOfRangeAndNonCanonicalFieldsAreRejected) {
  const auto hello = [](std::uint64_t version, std::uint64_t window) {
    wire::BitWriter w;
    w.write_uvarint(kMagic);
    w.write_uvarint(version);
    w.write_uvarint(window);
    return Frame{FrameType::kHello, w.bytes()};
  };
  EXPECT_THROW((void)decode_hello(hello((1ull << 32) + 2, (1ull << 32) + 1)),
               FrameError);
  EXPECT_THROW((void)decode_hello(hello(kProtocolVersion, (1ull << 32) + 1)),
               FrameError);

  // WELCOME with version 2 spelled 0x82 0x00 and/or a timings byte of 2.
  const auto welcome = [](bool two_byte_version, std::uint8_t timings) {
    wire::BitWriter w;
    if (two_byte_version) {
      w.write_bits(0x82, 8);
      w.write_bits(0x00, 8);
    } else {
      w.write_uvarint(2);
    }
    w.write_uvarint(5);
    for (const char c : std::string("smoke")) w.write_bits(c, 8);
    w.write_bits(timings, 8);
    w.write_svarint(0);
    w.write_double(0.0);
    return Frame{FrameType::kWelcome, w.bytes()};
  };
  EXPECT_EQ(decode_welcome(welcome(false, 1)).version, 2u);
  EXPECT_THROW((void)decode_welcome(welcome(true, 2)), FrameError);
  EXPECT_THROW((void)decode_welcome(welcome(true, 1)), FrameError);
  EXPECT_THROW((void)decode_welcome(welcome(false, 2)), FrameError);

  wire::BitWriter assign;
  assign.write_uvarint(1ull << 32);
  assign.write_uvarint(0);
  EXPECT_THROW((void)decode_assign(Frame{FrameType::kAssign, assign.bytes()}),
               FrameError);
  wire::BitWriter verdict;
  verdict.write_uvarint((1ull << 32) + 5);
  verdict.write_uvarint(0);
  verdict.write_uvarint(0);
  EXPECT_THROW(
      (void)decode_verdict(Frame{FrameType::kVerdict, verdict.bytes()}),
      FrameError);
}

// Every single-bit flip and every truncation of a valid payload either
// throws FrameError or decodes to a payload that re-encodes to exactly the
// mutated bytes: no field has a second spelling, so nothing a peer sends
// can mean something other than what it says.
template <typename Payload>
void expect_mutants_rejected_or_canonical(const Payload& valid,
                                          Frame (*encode)(const Payload&),
                                          Payload (*decode)(const Frame&)) {
  const Frame frame = encode(valid);
  const auto check = [&](const std::vector<std::uint8_t>& bytes) {
    try {
      const Payload payload = decode(Frame{frame.type, bytes});
      EXPECT_EQ(encode(payload).payload, bytes) << to_string(frame.type);
    } catch (const FrameError&) {
      // rejected: fine
    }
  };
  const std::vector<std::uint8_t>& bytes = frame.payload;
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    check({bytes.begin(),
           bytes.begin() + static_cast<std::ptrdiff_t>(size)});
  }
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    check(flipped);
  }
}

TEST(NetProtocol, EveryBitFlipAndTruncationIsRejectedOrCanonical) {
  HelloPayload hello;
  hello.window = 300;
  expect_mutants_rejected_or_canonical(hello, encode_hello, decode_hello);

  WelcomePayload welcome;
  welcome.grid = "faults";
  welcome.include_timings = true;
  welcome.bandwidth_bits = -1;
  welcome.cell_timeout_ms = 250.0;
  expect_mutants_rejected_or_canonical(welcome, encode_welcome,
                                       decode_welcome);

  AssignPayload assign;
  assign.cell_index = 200;
  assign.key = "faults/set-gossip/b-1";
  expect_mutants_rejected_or_canonical(assign, encode_assign, decode_assign);

  VerdictPayload verdict;
  verdict.cell_index = 130;
  verdict.key = "faults/k";
  verdict.line = R"({"cell":130,"exact":true})";
  expect_mutants_rejected_or_canonical(verdict, encode_verdict,
                                       decode_verdict);
}

// --- sockets --------------------------------------------------------------

TEST(NetSocket, FramesCrossALoopbackSocketIntact) {
  TcpListener listener = TcpListener::bind("127.0.0.1", 0);
  const Frame sent = sample_frame();
  std::thread client([port = listener.port(), &sent] {
    TcpSocket socket = connect_tcp("127.0.0.1", port);
    write_frame(socket, sent);
  });
  TcpSocket accepted = listener.accept();
  FrameDecoder decoder;
  const auto received = read_frame(accepted, decoder);
  client.join();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, sent);
  // After the client exits, the stream ends cleanly at a frame boundary.
  EXPECT_FALSE(read_frame(accepted, decoder).has_value());
}

TEST(NetSocket, PeerDyingMidFrameIsAFrameError) {
  TcpListener listener = TcpListener::bind("127.0.0.1", 0);
  std::thread client([port = listener.port()] {
    TcpSocket socket = connect_tcp("127.0.0.1", port);
    const std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
    socket.write_all(bytes.data(), bytes.size() / 2);  // half a frame, die
  });
  TcpSocket accepted = listener.accept();
  FrameDecoder decoder;
  EXPECT_THROW((void)read_frame(accepted, decoder), FrameError);
  client.join();
}

// --- distributed campaign parity ------------------------------------------

std::vector<campaign::CellRecord> reference_records(
    const std::string& out_path) {
  campaign::RunnerOptions options;
  options.out_path = out_path;
  const campaign::Runner runner(options);
  return runner.run(campaign::Grid::preset("smoke"));
}

void expect_same_records(const std::vector<campaign::CellRecord>& got,
                         const std::vector<campaign::CellRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(campaign::MetricsSink::to_json(got[i], false),
              campaign::MetricsSink::to_json(want[i], false))
        << "record " << i;
  }
}

// "Determin" in the suite name opts these multi-threaded socket tests into
// the TSan CI shard (see .github/workflows/ci.yml).
TEST(NetDeterminism, DistributedSmokeRunMatchesInProcessRunByteForByte) {
  const std::string ref_path = temp_path("parity_ref.jsonl");
  std::remove(ref_path.c_str());
  const std::vector<campaign::CellRecord> want = reference_records(ref_path);
  const std::string ref_bytes = read_bytes(ref_path);
  ASSERT_FALSE(ref_bytes.empty());

  for (const int workers : {1, 2, 4}) {
    const std::string out_path =
        temp_path("parity_w" + std::to_string(workers) + ".jsonl");
    std::remove(out_path.c_str());
    CoordinatorOptions options;
    options.grid = "smoke";
    options.workers = workers;
    options.out_path = out_path;
    Coordinator coordinator(options);
    const std::uint16_t port = coordinator.listen();

    std::vector<std::thread> nodes;
    nodes.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      nodes.emplace_back([port] {
        WorkerOptions worker_options;
        worker_options.port = port;
        WorkerNode worker(worker_options);
        EXPECT_TRUE(worker.run());
      });
    }
    const std::vector<campaign::CellRecord> got = coordinator.run();
    for (std::thread& node : nodes) node.join();

    expect_same_records(got, want);
    EXPECT_EQ(read_bytes(out_path), ref_bytes) << workers << " workers";
    EXPECT_EQ(coordinator.stats().workers_joined, workers);
    EXPECT_EQ(coordinator.stats().cells_reassigned, 0);
    std::remove(out_path.c_str());
  }
  std::remove(ref_path.c_str());
}

TEST(NetDeterminism, WorkerDisconnectReassignsItsCellExactlyOnce) {
  const std::string ref_path = temp_path("kill_ref.jsonl");
  std::remove(ref_path.c_str());
  const std::vector<campaign::CellRecord> want = reference_records(ref_path);
  const std::string ref_bytes = read_bytes(ref_path);

  const std::string out_path = temp_path("kill_out.jsonl");
  std::remove(out_path.c_str());
  CoordinatorOptions options;
  options.grid = "smoke";
  options.workers = 2;
  options.out_path = out_path;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.listen();

  std::thread deserter([port] {
    WorkerOptions worker_options;
    worker_options.port = port;
    worker_options.abandon_after = 1;  // one verdict, then die on assign #2
    WorkerNode worker(worker_options);
    EXPECT_FALSE(worker.run());
    EXPECT_EQ(worker.stats().cells_run, 1);
  });
  std::thread survivor([port] {
    WorkerOptions worker_options;
    worker_options.port = port;
    WorkerNode worker(worker_options);
    EXPECT_TRUE(worker.run());
  });
  const std::vector<campaign::CellRecord> got = coordinator.run();
  deserter.join();
  survivor.join();

  const CoordinatorStats& stats = coordinator.stats();
  EXPECT_EQ(stats.workers_joined, 2);
  EXPECT_EQ(stats.workers_lost, 1);
  EXPECT_EQ(stats.cells_reassigned, 1);  // exactly the abandoned cell
  EXPECT_EQ(stats.duplicate_verdicts, 0);
  EXPECT_EQ(stats.verdicts, static_cast<std::int64_t>(want.size()));

  expect_same_records(got, want);
  EXPECT_EQ(read_bytes(out_path), ref_bytes);
  std::remove(out_path.c_str());
  std::remove(ref_path.c_str());
}

TEST(NetDeterminism, ReplacementJoinerIsFedAfterAReapWithoutAVerdict) {
  // Regression: assignment used to be driven only by verdict and HELLO
  // frames. A worker that grabbed the whole queue into its window and then
  // died left the reclaimed cells stranded — a replacement that had greeted
  // while the queue was empty had no verdict to send, so nothing ever
  // assigned it the returned work and the campaign hung with cells queued
  // and every worker idle. The coordinator now demand-feeds idle workers
  // after each reap; under the old behavior this test hangs.
  const std::string ref_path = temp_path("replacement_ref.jsonl");
  std::remove(ref_path.c_str());
  const std::vector<campaign::CellRecord> want = reference_records(ref_path);
  const std::string ref_bytes = read_bytes(ref_path);

  const std::string out_path = temp_path("replacement_out.jsonl");
  std::remove(out_path.c_str());
  CoordinatorOptions options;
  options.grid = "smoke";
  options.workers = 2;
  options.out_path = out_path;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.listen();

  // The victim: a scripted peer whose window swallows the entire smoke
  // grid and which dies without producing a single verdict.
  TcpSocket victim = connect_tcp("127.0.0.1", port);
  FrameDecoder victim_decoder;
  std::thread victim_script([&victim, &victim_decoder, port] {
    wire::BitWriter writer;
    writer.write_uvarint(kMagic);
    writer.write_uvarint(kProtocolVersion);
    writer.write_uvarint(16);  // window >= the whole smoke grid
    write_frame(victim, Frame{FrameType::kHello, writer.bytes()});
    // Greeted first: the WELCOME comes back before anyone else can join,
    // so the kickoff pass reaches this peer (and its giant window) first.
    std::optional<Frame> frame = read_frame(victim, victim_decoder);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kWelcome);

    std::thread replacement([port] {
      WorkerOptions worker_options;
      worker_options.port = port;
      WorkerNode worker(worker_options);
      EXPECT_TRUE(worker.run());
      // Greeted with an empty queue, then fed every reclaimed cell.
      EXPECT_EQ(worker.stats().cells_run, 8);
    });

    // Absorb the kickoff (the 8 ASSIGNs aimed at our window), then die
    // without a verdict.
    int assigns = 0;
    while (assigns < 8) {
      std::optional<Frame> f = read_frame(victim, victim_decoder);
      ASSERT_TRUE(f.has_value());
      if (f->type == FrameType::kAssign) ++assigns;
    }
    victim.close();
    replacement.join();
  });

  const std::vector<campaign::CellRecord> got = coordinator.run();
  victim_script.join();

  const CoordinatorStats& stats = coordinator.stats();
  EXPECT_EQ(stats.workers_joined, 2);
  EXPECT_EQ(stats.workers_lost, 1);
  EXPECT_EQ(stats.cells_reassigned, 8);
  EXPECT_EQ(stats.verdicts, 8);
  EXPECT_EQ(stats.duplicate_verdicts, 0);
  expect_same_records(got, want);
  EXPECT_EQ(read_bytes(out_path), ref_bytes);
  std::remove(out_path.c_str());
  std::remove(ref_path.c_str());
}

TEST(NetDeterminism, CoordinatorAssignsInStartCampaignsWorkOrder) {
  // The coordinator queues start_campaign's pending cells front to back,
  // the order the in-process pool claims them in. A scripted peer whose
  // window covers the smoke grid receives the whole queue at kickoff and
  // records the order of its ASSIGNs.
  const campaign::Grid grid = campaign::Grid::preset("smoke");
  const std::vector<campaign::Cell> cells = grid.expand();
  std::vector<std::uint32_t> want;
  for (const campaign::Cell& cell :
       campaign::start_campaign(grid, {}).pending) {
    want.push_back(static_cast<std::uint32_t>(cell.index));
  }

  CoordinatorOptions options;
  options.grid = "smoke";
  options.workers = 1;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.listen();

  std::vector<AssignPayload> got;
  std::thread peer([&got, &want, &cells, port] {
    TcpSocket socket = connect_tcp("127.0.0.1", port);
    FrameDecoder decoder;
    HelloPayload hello;
    hello.window = static_cast<std::uint32_t>(want.size());
    write_frame(socket, encode_hello(hello));
    std::optional<Frame> frame = read_frame(socket, decoder);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kWelcome);
    while (got.size() < want.size()) {
      frame = read_frame(socket, decoder);
      ASSERT_TRUE(frame.has_value());
      got.push_back(decode_assign(*frame));
    }
    // Answer every cell so the campaign finishes.
    for (const AssignPayload& assign : got) {
      VerdictPayload verdict;
      verdict.cell_index = assign.cell_index;
      verdict.key = assign.key;
      verdict.line = campaign::MetricsSink::to_json(
          campaign::Runner::run_cell(cells.at(assign.cell_index)), false);
      write_frame(socket, encode_verdict(verdict));
    }
    frame = read_frame(socket, decoder);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kShutdown);
  });
  const std::vector<campaign::CellRecord> records = coordinator.run();
  peer.join();

  std::vector<std::uint32_t> order;
  for (const AssignPayload& assign : got) order.push_back(assign.cell_index);
  EXPECT_EQ(order, want);
  EXPECT_EQ(records.size(), cells.size());
  EXPECT_EQ(coordinator.stats().cells_assigned,
            static_cast<std::int64_t>(cells.size()));
}

TEST(NetDeterminism, CoordinatorResumesFinishedCellsWithoutWorkersRedoing) {
  const std::string out_path = temp_path("resume_out.jsonl");
  std::remove(out_path.c_str());
  // First pass: complete the whole grid distributed.
  {
    CoordinatorOptions options;
    options.grid = "smoke";
    options.workers = 1;
    options.out_path = out_path;
    Coordinator coordinator(options);
    const std::uint16_t port = coordinator.listen();
    std::thread node([port] {
      WorkerOptions worker_options;
      worker_options.port = port;
      WorkerNode worker(worker_options);
      EXPECT_TRUE(worker.run());
    });
    (void)coordinator.run();
    node.join();
  }
  const std::string first_bytes = read_bytes(out_path);
  // Second pass resumes from the first three records: the worker runs only
  // the other five cells, and the canonical rewrite restores every byte.
  std::size_t cut = 0;
  for (int line = 0; line < 3; ++line) cut = first_bytes.find('\n', cut) + 1;
  std::ofstream(out_path, std::ios::binary) << first_bytes.substr(0, cut);
  CoordinatorOptions options;
  options.grid = "smoke";
  options.workers = 1;
  options.out_path = out_path;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.listen();
  std::thread node([port] {
    WorkerOptions worker_options;
    worker_options.port = port;
    WorkerNode worker(worker_options);
    EXPECT_TRUE(worker.run());
    EXPECT_EQ(worker.stats().cells_run, 5);
  });
  (void)coordinator.run();
  node.join();
  EXPECT_EQ(coordinator.stats().cells_assigned, 5);
  EXPECT_EQ(read_bytes(out_path), first_bytes);
  std::remove(out_path.c_str());
}

TEST(NetDeterminism, CoordinatorWithNothingPendingReturnsWithoutAWorker) {
  // Every cell of a complete file resumes, so nothing is dispatched and
  // run() returns at once instead of waiting for a worker to join.
  const std::string out_path = temp_path("complete_out.jsonl");
  std::remove(out_path.c_str());
  const std::vector<campaign::CellRecord> want = reference_records(out_path);
  const std::string bytes = read_bytes(out_path);

  CoordinatorOptions options;
  options.grid = "smoke";
  options.out_path = out_path;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.listen();
  std::future<std::vector<campaign::CellRecord>> run = std::async(
      std::launch::async, [&coordinator] { return coordinator.run(); });
  const bool returned =
      run.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (!returned) {
    // A coordinator that waits for a worker: give it one so the test ends.
    WorkerOptions worker_options;
    worker_options.port = port;
    (void)WorkerNode(worker_options).run();
  }
  const std::vector<campaign::CellRecord> got = run.get();
  EXPECT_TRUE(returned) << "run() waited for a worker with nothing pending";
  expect_same_records(got, want);
  EXPECT_EQ(coordinator.stats().cells_assigned, 0);
  EXPECT_EQ(read_bytes(out_path), bytes);
  std::remove(out_path.c_str());
}

TEST(NetCoordinator, BadGridOrBandwidthThrowsBeforeAnySocket) {
  // The constructor resolves the preset and checks the bandwidth override,
  // so neither error waits for listen(): the CLI must not print its
  // "listening on" line or write --port-file for a campaign it cannot run.
  const auto error_of = [](const CoordinatorOptions& options) -> std::string {
    try {
      Coordinator coordinator(options);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  CoordinatorOptions options;
  for (const char* grid : {"nosuch", ""}) {
    options.grid = grid;
    EXPECT_NE(error_of(options).find("unknown grid '" + std::string(grid)),
              std::string::npos)
        << grid;
  }
  options.grid = "smoke";
  options.bandwidth_bits = -2;
  EXPECT_NE(error_of(options).find("campaign bandwidth -2 (expected"),
            std::string::npos);
  for (const std::int64_t bits : {-1, 0, 128}) {
    options.bandwidth_bits = bits;
    EXPECT_EQ(error_of(options), "") << bits;
  }
}

TEST(NetDeterminism, CoordinatorOfOneShardAssignsOnlyItsCells) {
  // The coordinator takes the runner's shard options: shard 1 of 2 owns
  // the odd cell indices, dispatches nothing else, and returns the records
  // the in-process runner returns for that shard.
  campaign::RunnerOptions shard;
  shard.shards = 2;
  shard.shard_index = 1;
  const std::vector<campaign::CellRecord> want =
      campaign::Runner(shard).run(campaign::Grid::preset("smoke"));
  ASSERT_EQ(want.size(), 4u);

  CoordinatorOptions options;
  options.grid = "smoke";
  options.shards = 2;
  options.shard_index = 1;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.listen();
  std::thread node([port] {
    WorkerOptions worker_options;
    worker_options.port = port;
    WorkerNode worker(worker_options);
    EXPECT_TRUE(worker.run());
  });
  const std::vector<campaign::CellRecord> got = coordinator.run();
  node.join();
  for (const campaign::CellRecord& record : got) {
    EXPECT_EQ(record.cell % 2, 1) << record.key;
  }
  expect_same_records(got, want);
  EXPECT_EQ(coordinator.stats().cells_assigned, 4);
}

TEST(NetDeterminism, VersionSkewedWorkerIsRejectedAtTheHandshake) {
  CoordinatorOptions options;
  options.grid = "smoke";
  options.workers = 1;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.listen();

  std::thread impostor([port] {
    // Speak the frame layer but a future protocol version: the coordinator
    // must drop us without a WELCOME.
    TcpSocket socket = connect_tcp("127.0.0.1", port);
    wire::BitWriter writer;
    writer.write_uvarint(kMagic);
    writer.write_uvarint(kProtocolVersion + 1);
    writer.write_uvarint(1);
    write_frame(socket, Frame{FrameType::kHello, writer.bytes()});
    FrameDecoder decoder;
    EXPECT_FALSE(read_frame(socket, decoder).has_value());  // dropped: EOF
  });
  std::thread genuine([port] {
    WorkerOptions worker_options;
    worker_options.port = port;
    WorkerNode worker(worker_options);
    EXPECT_TRUE(worker.run());
  });
  (void)coordinator.run();
  impostor.join();
  genuine.join();
  EXPECT_EQ(coordinator.stats().workers_rejected, 1);
  EXPECT_EQ(coordinator.stats().workers_joined, 1);
}

TEST(NetDeterminism, ParallelWorkerThreadsKeepCellRecordsSerial) {
  // One worker process, four internal threads: between-cell parallelism
  // only, so records still match the serial reference bit for bit.
  const std::string ref_path = temp_path("threads_ref.jsonl");
  std::remove(ref_path.c_str());
  const std::vector<campaign::CellRecord> want = reference_records(ref_path);

  CoordinatorOptions options;
  options.grid = "smoke";
  options.workers = 1;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.listen();
  std::thread node([port] {
    WorkerOptions worker_options;
    worker_options.port = port;
    worker_options.threads = 4;
    WorkerNode worker(worker_options);
    EXPECT_TRUE(worker.run());
    EXPECT_EQ(worker.stats().cells_run, 8);
  });
  const std::vector<campaign::CellRecord> got = coordinator.run();
  node.join();
  expect_same_records(got, want);
  std::remove(ref_path.c_str());
}

}  // namespace
