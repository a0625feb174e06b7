// Tests for the synchronous executor: round structure, communication-model
// enforcement, multiset delivery semantics.

#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <span>

#include "core/exact_pushsum.hpp"
#include "core/gossip.hpp"
#include "core/pushsum.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/convergence.hpp"

namespace anonet {
namespace {

// Probe agent recording everything the executor tells it.
struct ProbeAgent {
  struct Message {
    int payload = 0;
    int port = 0;
  };

  int id = 0;
  mutable int last_outdegree = -1;
  mutable std::vector<int> ports_seen;
  std::vector<Message> last_inbox;

  Message send(int outdegree, int port) const {
    last_outdegree = outdegree;
    ports_seen.push_back(port);
    return Message{id, port};
  }
  void receive(Inbox<Message> messages) {
    last_inbox.assign(messages.begin(), messages.end());
  }
};

// The Inbox is the only receive form: an agent that takes an owned vector,
// or a span over copies, is not an AnonymousAgent, whichever arena form its
// Message would take.
struct VectorReceiveAgent {
  struct Message {};
  Message send(int, int) const { return {}; }
  void receive(std::vector<Message> /*messages*/) {}
};
struct SpanReceiveAgent {
  struct Message {
    int payload = 0;
  };
  Message send(int, int) const { return {}; }
  void receive(std::span<const Message> /*messages*/) {}
};
struct SpanReceiveVectorAgent {
  struct Message {
    std::vector<int> payload;
  };
  Message send(int, int) const { return {}; }
  void receive(std::span<const Message> /*messages*/) {}
};
static_assert(AnonymousAgent<ProbeAgent>);
static_assert(!AnonymousAgent<VectorReceiveAgent>);
static_assert(!kDeliveredBySlot<SpanReceiveAgent::Message>);
static_assert(!AnonymousAgent<SpanReceiveAgent>);
static_assert(kDeliveredBySlot<SpanReceiveVectorAgent::Message>);
static_assert(!AnonymousAgent<SpanReceiveVectorAgent>);
static_assert(std::random_access_iterator<Inbox<ProbeAgent::Message>::iterator>);
static_assert(std::random_access_iterator<
              Inbox<SpanReceiveVectorAgent::Message>::iterator>);

// Hands `messages` to agent.receive in whichever Inbox form its Message
// takes: a view of the vector itself, or identity slots into it.
template <typename Alg>
void receive_all(Alg& agent,
                 const std::vector<typename Alg::Message>& messages) {
  using Message = typename Alg::Message;
  if constexpr (kDeliveredBySlot<Message>) {
    std::vector<std::uint32_t> slots(messages.size());
    std::iota(slots.begin(), slots.end(), 0u);
    agent.receive(Inbox<Message>(slots, messages.data()));
  } else {
    agent.receive(Inbox<Message>(std::span<const Message>(messages)));
  }
}

TEST(Inbox, BothFormsReadTheSameMessages) {
  const std::vector<ProbeAgent::Message> copies = {{7, 1}, {8, 2}, {9, 3}};
  const Inbox<ProbeAgent::Message> copied{
      std::span<const ProbeAgent::Message>(copies)};
  ASSERT_EQ(copied.size(), 3u);
  EXPECT_EQ(copied.front().payload, 7);
  EXPECT_EQ(copied[2].port, 3);
  EXPECT_EQ(copied.end() - copied.begin(), 3);

  using Heavy = SpanReceiveVectorAgent::Message;
  const std::vector<Heavy> outbox = {{{1}}, {{2, 2}}, {{3, 3, 3}}};
  const std::vector<std::uint32_t> slots = {2, 0, 2, 1};
  const Inbox<Heavy> slotted(slots, outbox.data());
  ASSERT_EQ(slotted.size(), 4u);
  EXPECT_FALSE(slotted.empty());
  EXPECT_EQ(&slotted.front(), &outbox[2]);  // read in place, not copied
  EXPECT_EQ(slotted[3].payload, (std::vector<int>{2, 2}));
  std::vector<std::size_t> sizes;
  for (const Heavy& m : slotted) sizes.push_back(m.payload.size());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 1, 3, 2}));
  EXPECT_EQ(slotted.end() - slotted.begin(), 4);
  EXPECT_EQ((slotted.begin() + 3)->payload.size(), 2u);
  EXPECT_TRUE(Inbox<Heavy>({}, outbox.data()).empty());
}

TEST(Executor, RequiresOneAgentPerVertex) {
  auto net = std::make_shared<StaticSchedule>(directed_ring(3));
  EXPECT_THROW(Executor<ProbeAgent>(net, std::vector<ProbeAgent>(2),
                                    CommModel::kSimpleBroadcast),
               std::invalid_argument);
  EXPECT_THROW(Executor<ProbeAgent>(nullptr, std::vector<ProbeAgent>(0),
                                    CommModel::kSimpleBroadcast),
               std::invalid_argument);
}

TEST(Executor, RejectsThreadsWithoutParallelSafeOptIn) {
  // ProbeAgent does not declare kParallelSafe, so a parallel executor must
  // be refused at construction instead of racing silently.
  auto net = std::make_shared<StaticSchedule>(directed_ring(3));
  EXPECT_THROW(Executor<ProbeAgent>(net, std::vector<ProbeAgent>(3),
                                    CommModel::kSimpleBroadcast, 0x5eedull,
                                    /*threads=*/2),
               std::invalid_argument);
  // threads == 1 stays available to any agent type.
  EXPECT_NO_THROW(Executor<ProbeAgent>(net, std::vector<ProbeAgent>(3),
                                       CommModel::kSimpleBroadcast, 0x5eedull,
                                       /*threads=*/1));
}

TEST(Executor, SimpleBroadcastHidesOutdegree) {
  auto net = std::make_shared<StaticSchedule>(complete_graph(3));
  std::vector<ProbeAgent> agents(3);
  Executor<ProbeAgent> exec(net, std::move(agents),
                            CommModel::kSimpleBroadcast);
  exec.step();
  for (Vertex v = 0; v < 3; ++v) {
    EXPECT_EQ(exec.agent(v).last_outdegree, 0);  // hidden
  }
}

TEST(Executor, OutdegreeAwareSeesDegreeOnceIsotropically) {
  auto net = std::make_shared<StaticSchedule>(complete_graph(3));
  std::vector<ProbeAgent> agents(3);
  Executor<ProbeAgent> exec(net, std::move(agents), CommModel::kOutdegreeAware);
  exec.step();
  for (Vertex v = 0; v < 3; ++v) {
    EXPECT_EQ(exec.agent(v).last_outdegree, 3);
    // One send per round: communications are isotropic by construction.
    EXPECT_EQ(exec.agent(v).ports_seen.size(), 1u);
    EXPECT_EQ(exec.agent(v).ports_seen[0], 0);
  }
}

TEST(Executor, OutputPortAwareSendsPerPort) {
  Digraph g = complete_graph(3);
  g.assign_output_ports();
  auto net = std::make_shared<StaticSchedule>(g);
  std::vector<ProbeAgent> agents(3);
  for (int i = 0; i < 3; ++i) agents[static_cast<std::size_t>(i)].id = i;
  Executor<ProbeAgent> exec(net, std::move(agents),
                            CommModel::kOutputPortAware);
  exec.step();
  for (Vertex v = 0; v < 3; ++v) {
    std::vector<int> ports = exec.agent(v).ports_seen;
    std::sort(ports.begin(), ports.end());
    EXPECT_EQ(ports, (std::vector<int>{1, 2, 3}));
    // Each agent received one message per in-edge, each carrying the port
    // it was sent through.
    EXPECT_EQ(exec.agent(v).last_inbox.size(), 3u);
  }
}

TEST(Executor, OutputPortAwareRejectsUnlabeledGraph) {
  auto net = std::make_shared<StaticSchedule>(complete_graph(3));  // no ports
  std::vector<ProbeAgent> agents(3);
  Executor<ProbeAgent> exec(net, std::move(agents),
                            CommModel::kOutputPortAware);
  EXPECT_THROW(exec.step(), std::invalid_argument);
}

TEST(Executor, SymmetricModelRejectsAsymmetricRound) {
  auto net = std::make_shared<StaticSchedule>(directed_ring(3));
  std::vector<ProbeAgent> agents(3);
  Executor<ProbeAgent> exec(net, std::move(agents),
                            CommModel::kSymmetricBroadcast);
  EXPECT_THROW(exec.step(), std::logic_error);
}

TEST(Executor, SymmetricModelAcceptsSymmetricRound) {
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  std::vector<ProbeAgent> agents(4);
  Executor<ProbeAgent> exec(net, std::move(agents),
                            CommModel::kSymmetricBroadcast);
  EXPECT_NO_THROW(exec.run(3));
  EXPECT_EQ(exec.round(), 3);
}

TEST(Executor, DeliveryFollowsRoundGraph) {
  auto net = std::make_shared<StaticSchedule>(directed_ring(3));
  std::vector<ProbeAgent> agents(3);
  for (int i = 0; i < 3; ++i) agents[static_cast<std::size_t>(i)].id = i;
  Executor<ProbeAgent> exec(net, std::move(agents),
                            CommModel::kSimpleBroadcast);
  exec.step();
  // Vertex 1 hears from 0 (ring edge) and itself (self-loop).
  std::vector<int> senders;
  for (const auto& m : exec.agent(1).last_inbox) senders.push_back(m.payload);
  std::sort(senders.begin(), senders.end());
  EXPECT_EQ(senders, (std::vector<int>{0, 1}));
}

TEST(Executor, StatsCountRoundsAndMessages) {
  auto net = std::make_shared<StaticSchedule>(complete_graph(4));
  std::vector<ProbeAgent> agents(4);
  Executor<ProbeAgent> exec(net, std::move(agents),
                            CommModel::kSimpleBroadcast);
  exec.run(5);
  EXPECT_EQ(exec.stats().rounds, 5);
  EXPECT_EQ(exec.stats().messages_delivered, 5 * 16);
}

TEST(Executor, ShuffleSeedChangesDeliveryOrderNotContent) {
  auto run_with_seed = [](std::uint64_t seed) {
    auto net = std::make_shared<StaticSchedule>(complete_graph(5));
    std::vector<ProbeAgent> agents(5);
    for (int i = 0; i < 5; ++i) agents[static_cast<std::size_t>(i)].id = i;
    Executor<ProbeAgent> exec(net, std::move(agents),
                              CommModel::kSimpleBroadcast, seed);
    exec.step();
    std::vector<int> order;
    for (const auto& m : exec.agent(0).last_inbox) order.push_back(m.payload);
    return order;
  };
  const std::vector<int> order_a = run_with_seed(1);
  const std::vector<int> order_b = run_with_seed(2);
  std::vector<int> sorted_a = order_a, sorted_b = order_b;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  EXPECT_EQ(sorted_a, sorted_b);  // same multiset...
  EXPECT_EQ(sorted_a, (std::vector<int>{0, 1, 2, 3, 4}));
  // ...orders differ for at least some seeds (can coincide, so try a few).
  bool any_difference = order_a != order_b;
  for (std::uint64_t seed = 3; !any_difference && seed < 10; ++seed) {
    any_difference = run_with_seed(seed) != order_a;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Executor, MissingSelfLoopIsRejected) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  // Bypass StaticSchedule's ensure_self_loops with a custom schedule.
  class RawSchedule final : public DynamicGraph {
   public:
    explicit RawSchedule(Digraph g) : g_(std::move(g)) {}
    [[nodiscard]] Vertex vertex_count() const override {
      return g_.vertex_count();
    }
    [[nodiscard]] Digraph at(int) const override { return g_; }

   private:
    Digraph g_;
  };
  auto net = std::make_shared<RawSchedule>(g);
  std::vector<ProbeAgent> agents(2);
  Executor<ProbeAgent> exec(net, std::move(agents),
                            CommModel::kSimpleBroadcast);
  EXPECT_THROW(exec.step(), std::logic_error);
}

TEST(Executor, DeadlineBeyondTheClockRangeNeverExpires) {
  // 1e13 ms is about 317 years, more than the steady clock's int64
  // nanoseconds can count from now.
  for (const double budget_ms :
       {1e13, 1e30, std::numeric_limits<double>::infinity()}) {
    auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
    Executor<ProbeAgent> exec(net, std::vector<ProbeAgent>(4),
                              CommModel::kSimpleBroadcast);
    exec.set_deadline(budget_ms);
    EXPECT_NO_THROW(exec.run(3)) << budget_ms;
    EXPECT_EQ(exec.round(), 3) << budget_ms;
  }
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  Executor<ProbeAgent> exec(net, std::vector<ProbeAgent>(4),
                            CommModel::kSimpleBroadcast);
  EXPECT_THROW(exec.set_deadline(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// Order-*sensitive* agent: its state folds the exact arrival
// sequence, so two runs end in identical states only if every inbox was
// delivered in the identical order. This is the strongest possible probe for
// the thread-count invariance of the round engine.
struct OrderHashAgent {
  struct Message {
    std::uint64_t tag = 0;
  };

  static constexpr bool kParallelSafe = true;

  std::uint64_t state = 1;

  Message send(int outdegree, int port) const {
    return Message{state ^ (static_cast<std::uint64_t>(outdegree) << 32) ^
                   static_cast<std::uint64_t>(port)};
  }
  void receive(Inbox<Message> messages) {
    for (const Message& m : messages) {
      state = state * 1099511628211ull + m.tag;  // FNV-style, order-sensitive
    }
  }
};

std::vector<std::uint64_t> run_order_hash(const DynamicGraphPtr& net,
                                          CommModel model, int threads,
                                          int rounds,
                                          ExecutorStats* stats_out = nullptr) {
  std::vector<OrderHashAgent> agents(
      static_cast<std::size_t>(net->vertex_count()));
  for (std::size_t i = 0; i < agents.size(); ++i) {
    agents[i].state = 0x1234 + i;
  }
  Executor<OrderHashAgent> exec(net, std::move(agents), model, 0x5eedull,
                                threads);
  exec.run(rounds);
  if (stats_out != nullptr) *stats_out = exec.stats();
  std::vector<std::uint64_t> states;
  for (const auto& a : exec.agents()) states.push_back(a.state);
  return states;
}

TEST(ExecutorDeterminism, ThreadCountInvariantForAllModels) {
  struct Case {
    const char* name;
    DynamicGraphPtr net;
    CommModel model;
  };
  Digraph ported = random_strongly_connected(23, 30, 99);
  ported.assign_output_ports();
  const std::vector<Case> cases = {
      {"simple/dynamic",
       std::make_shared<RandomStronglyConnectedSchedule>(23, 15, 7),
       CommModel::kSimpleBroadcast},
      {"outdegree/dynamic",
       std::make_shared<RandomStronglyConnectedSchedule>(23, 15, 8),
       CommModel::kOutdegreeAware},
      {"symmetric/dynamic", std::make_shared<RandomSymmetricSchedule>(23, 9, 9),
       CommModel::kSymmetricBroadcast},
      {"ports/static", std::make_shared<StaticSchedule>(ported),
       CommModel::kOutputPortAware},
  };
  for (const Case& c : cases) {
    ExecutorStats serial_stats;
    const auto serial = run_order_hash(c.net, c.model, 1, 20, &serial_stats);
    for (int threads : {2, 4, 8}) {
      ExecutorStats parallel_stats;
      const auto parallel =
          run_order_hash(c.net, c.model, threads, 20, &parallel_stats);
      EXPECT_EQ(serial, parallel) << c.name << " threads=" << threads;
      EXPECT_EQ(serial_stats.rounds, parallel_stats.rounds) << c.name;
      EXPECT_EQ(serial_stats.messages_delivered,
                parallel_stats.messages_delivered)
          << c.name;
    }
  }
}

// OrderHashAgent with a heap-backed Message of varying length: not
// trivially copyable, so the executor delivers it by outbox slot.
struct VectorOrderHashAgent {
  struct Message {
    std::vector<std::uint64_t> tags;
  };

  static constexpr bool kParallelSafe = true;

  std::uint64_t state = 1;

  Message send(int outdegree, int port) const {
    Message m{{state, (static_cast<std::uint64_t>(outdegree) << 32) ^
                          static_cast<std::uint64_t>(port)}};
    if (state % 3 == 0) m.tags.push_back(state >> 7);
    return m;
  }
  void receive(Inbox<Message> messages) {
    for (const Message& m : messages) {
      for (std::uint64_t tag : m.tags) state = state * 1099511628211ull + tag;
      state = state * 1099511628211ull + m.tags.size();
    }
  }
};
static_assert(kDeliveredBySlot<VectorOrderHashAgent::Message>);

// The copy-then-shuffle deliver loop the executor runs for trivially
// copyable Messages, replayed outside it for any Message: each receiver
// copies its surviving deliveries in in-edge order (pre-wake and crashed
// senders and receivers skipped, dropped edges skipped, self-loops never
// dropped), shuffles the copies with the Fisher–Yates draws of
// CounterRng(seed, t, v), and receives them.
template <typename Alg>
std::vector<Alg> run_copy_reference(const DynamicGraphPtr& net,
                                    std::vector<Alg> agents, CommModel model,
                                    std::uint64_t seed,
                                    const StartSchedule& starts,
                                    const FaultPlan& faults, int rounds) {
  using Message = typename Alg::Message;
  const bool port_aware = model == CommModel::kOutputPortAware;
  const std::uint64_t threshold = drop_threshold(faults.drop_rate);
  for (int t = 1; t <= rounds; ++t) {
    const Digraph g = net->at(t);
    const auto n = static_cast<std::size_t>(g.vertex_count());
    std::vector<bool> active(n);
    std::vector<Message> outbox(
        port_aware ? static_cast<std::size_t>(g.edge_count()) : n);
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      active[i] = starts.awake(v, t) && !faults.crashed(v, t);
      if (!active[i]) continue;
      const auto out = g.out_edges(v);
      const int d = static_cast<int>(out.size());
      if (port_aware) {
        for (EdgeId id : out) {
          outbox[static_cast<std::size_t>(id)] =
              agents[i].send(d, static_cast<int>(g.edge(id).color));
        }
      } else {
        outbox[i] = agents[i].send(sees_outdegree(model) ? d : 0, 0);
      }
    }
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (!active[static_cast<std::size_t>(v)]) continue;
      std::vector<Message> inbox;
      for (EdgeId id : g.in_edges(v)) {
        const Vertex src = g.edge(id).source;
        if (!active[static_cast<std::size_t>(src)]) continue;
        if (src != v && drops_message(faults.drop_seed, t, id, threshold)) {
          continue;
        }
        inbox.push_back(outbox[static_cast<std::size_t>(port_aware ? id : src)]);
      }
      if (inbox.size() > 1) {
        CounterRng rng(seed, static_cast<std::uint64_t>(t),
                       static_cast<std::uint64_t>(v));
        for (std::size_t k = inbox.size() - 1; k > 0; --k) {
          std::swap(inbox[k], inbox[rng.bounded(k + 1)]);
        }
      }
      receive_all(agents[static_cast<std::size_t>(v)], inbox);
    }
  }
  return agents;
}

TEST(ExecutorDeterminism, SlotDeliveryMatchesCopyReference) {
  constexpr Vertex kN = 23;
  constexpr int kRounds = 12;
  constexpr std::uint64_t kSeed = 0x5eedull;
  struct Case {
    const char* name;
    DynamicGraphPtr net;
    CommModel model;
  };
  Digraph ported = random_strongly_connected(kN, 30, 99);
  ported.assign_output_ports();
  const std::vector<Case> cases = {
      {"simple/dynamic",
       std::make_shared<RandomStronglyConnectedSchedule>(kN, 15, 7),
       CommModel::kSimpleBroadcast},
      {"outdegree/dynamic",
       std::make_shared<RandomStronglyConnectedSchedule>(kN, 15, 8),
       CommModel::kOutdegreeAware},
      {"symmetric/dynamic", std::make_shared<RandomSymmetricSchedule>(kN, 9, 9),
       CommModel::kSymmetricBroadcast},
      {"ports/static", std::make_shared<StaticSchedule>(ported),
       CommModel::kOutputPortAware},
  };
  struct Perturbation {
    const char* name;
    StartSchedule starts;
    FaultPlan faults;
  };
  const std::vector<Perturbation> perturbations = {
      {"none", {}, {}},
      {"async", StartSchedule::staggered(kN, 1), {}},
      {"crash", {}, FaultPlan::crash_first_agent(kN, 4)},
      {"drop", {}, FaultPlan::drop(0.3, 17)},
  };
  std::vector<VectorOrderHashAgent> init(static_cast<std::size_t>(kN));
  for (std::size_t i = 0; i < init.size(); ++i) init[i].state = 0x1234 + i;
  for (const Case& c : cases) {
    for (const Perturbation& p : perturbations) {
      const auto reference = run_copy_reference(c.net, init, c.model, kSeed,
                                                p.starts, p.faults, kRounds);
      for (int threads : {1, 4}) {
        Executor<VectorOrderHashAgent> exec(c.net, init, c.model, kSeed,
                                            threads);
        exec.set_start_schedule(p.starts);
        exec.set_fault_plan(p.faults);
        exec.run(kRounds);
        for (std::size_t i = 0; i < init.size(); ++i) {
          EXPECT_EQ(exec.agents()[i].state, reference[i].state)
              << c.name << "/" << p.name << " threads=" << threads
              << " agent " << i;
        }
      }
    }
  }
}

TEST(ExecutorDeterminism, PushSumBitwiseIdenticalAcrossThreadCounts) {
  // Double addition is not associative, so this only passes because the
  // delivery *order* into every inbox is thread-count invariant.
  auto run = [](int threads) {
    auto net = std::make_shared<RandomStronglyConnectedSchedule>(31, 20, 5);
    std::vector<PushSumAgent> agents;
    for (Vertex v = 0; v < 31; ++v) {
      agents.emplace_back(std::sin(static_cast<double>(v)), 1.0);
    }
    Executor<PushSumAgent> exec(net, std::move(agents),
                                CommModel::kOutdegreeAware, 0x5eedull,
                                threads);
    exec.run(30);
    std::vector<std::pair<double, double>> state;
    for (const auto& a : exec.agents()) state.emplace_back(a.y(), a.z());
    return state;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, parallel[i].first) << i;   // bitwise
    EXPECT_EQ(serial[i].second, parallel[i].second) << i; // bitwise
  }
}

// Steps a 20-round outdegree-aware run on RandomStronglyConnectedSchedule
// (50, 3, 7). With `interleave`, view(1000 + t) is asked of the same
// schedule after every step, so the round cache lends round t + 1 from the
// slot round t used: same address, same edge count, different edges.
template <typename Alg, typename Make>
std::vector<Alg> run_with_interleaved_views(Make make, int threads,
                                            bool interleave) {
  constexpr Vertex kN = 50;
  auto net = std::make_shared<RandomStronglyConnectedSchedule>(kN, 3, 7);
  std::vector<Alg> agents;
  for (Vertex v = 0; v < kN; ++v) agents.push_back(make(v));
  Executor<Alg> exec(net, std::move(agents), CommModel::kOutdegreeAware,
                     0x5eedull, threads);
  for (int t = 1; t <= 20; ++t) {
    exec.step();
    if (interleave) static_cast<void>(net->view(1000 + t));
  }
  return exec.agents();
}

TEST(ExecutorDeterminism, InterleavedViewsDoNotChangeDelivery) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    // Copy arena: scalar Push-Sum, whose mass Σz = n is conserved only if
    // every message travels along an edge of the round graph.
    const auto scalar = [](Vertex v) {
      return PushSumAgent(std::sin(static_cast<double>(v)), 1.0);
    };
    const auto interleaved =
        run_with_interleaved_views<PushSumAgent>(scalar, threads, true);
    const auto uninterrupted =
        run_with_interleaved_views<PushSumAgent>(scalar, threads, false);
    double mass = 0.0;
    for (std::size_t v = 0; v < interleaved.size(); ++v) {
      EXPECT_EQ(interleaved[v].y(), uninterrupted[v].y()) << v;  // bitwise
      EXPECT_EQ(interleaved[v].z(), uninterrupted[v].z()) << v;
      mass += interleaved[v].z();
    }
    EXPECT_NEAR(mass, 50.0, 1e-9);

    // Slot arena: frequency Push-Sum's vector messages.
    const auto frequency = [](Vertex v) {
      return FrequencyPushSumAgent(v % 4);
    };
    const auto freq_interleaved = run_with_interleaved_views<
        FrequencyPushSumAgent>(frequency, threads, true);
    const auto freq_uninterrupted = run_with_interleaved_views<
        FrequencyPushSumAgent>(frequency, threads, false);
    for (std::size_t v = 0; v < freq_interleaved.size(); ++v) {
      EXPECT_EQ(freq_interleaved[v].estimates(),
                freq_uninterrupted[v].estimates())
          << v;
    }
  }
}

// A faithful copy of the seed executor's round loop (nested per-round inbox,
// shared sequential mt19937_64 shuffle, graph copy via at(t)): the reference
// for multiset-semantics preservation. Message *orders* differ from the new
// engine (different RNG), so agents compared through it must be
// order-independent — which Push-Sum over exact rationals and set-gossip
// are.
template <typename Alg>
std::vector<Alg> run_seed_reference(const DynamicGraphPtr& net,
                                    std::vector<Alg> agents, CommModel model,
                                    int rounds) {
  using Message = typename Alg::Message;
  std::mt19937_64 rng(0x5eedull);
  for (int t = 1; t <= rounds; ++t) {
    const Digraph g = net->at(t);
    const auto n = static_cast<std::size_t>(g.vertex_count());
    std::vector<std::vector<Message>> inbox(n);
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      const auto out = g.out_edges(v);
      const int d = static_cast<int>(out.size());
      const Alg& agent = agents[static_cast<std::size_t>(v)];
      const int visible = sees_outdegree(model) ? d : 0;
      const Message message = agent.send(visible, 0);
      for (EdgeId id : out) {
        inbox[static_cast<std::size_t>(g.edge(id).target)].push_back(message);
      }
    }
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      auto& messages = inbox[static_cast<std::size_t>(v)];
      std::shuffle(messages.begin(), messages.end(), rng);
      receive_all(agents[static_cast<std::size_t>(v)], messages);
    }
  }
  return agents;
}

TEST(ExecutorDeterminism, ExactPushSumMatchesSeedSemantics) {
  auto net = std::make_shared<RandomStronglyConnectedSchedule>(9, 6, 11);
  std::vector<ExactPushSumAgent> init;
  for (Vertex v = 0; v < 9; ++v) init.emplace_back(Rational(v), Rational(1));
  const auto reference =
      run_seed_reference(net, init, CommModel::kOutdegreeAware, 12);

  std::vector<ExactPushSumAgent> agents = init;
  Executor<ExactPushSumAgent> exec(net, std::move(agents),
                                   CommModel::kOutdegreeAware);
  exec.run(12);
  for (Vertex v = 0; v < 9; ++v) {
    EXPECT_EQ(exec.agent(v).y(), reference[static_cast<std::size_t>(v)].y());
    EXPECT_EQ(exec.agent(v).z(), reference[static_cast<std::size_t>(v)].z());
  }
}

TEST(ExecutorDeterminism, GossipMatchesSeedSemantics) {
  auto net = std::make_shared<RandomStronglyConnectedSchedule>(13, 4, 3);
  std::vector<SetGossipAgent> init;
  for (Vertex v = 0; v < 13; ++v) init.emplace_back(100 + v % 5);
  const auto reference =
      run_seed_reference(net, init, CommModel::kSimpleBroadcast, 6);

  std::vector<SetGossipAgent> agents = init;
  Executor<SetGossipAgent> exec(net, std::move(agents),
                                CommModel::kSimpleBroadcast, 0x5eedull, 4);
  exec.run(6);
  for (Vertex v = 0; v < 13; ++v) {
    EXPECT_EQ(exec.agent(v).known(),
              reference[static_cast<std::size_t>(v)].known());
  }
}

TEST(ExecutorDeterminism, PhaseTimingsAccumulate) {
  auto net = std::make_shared<StaticSchedule>(complete_graph(8));
  Executor<ProbeAgent> exec(net, std::vector<ProbeAgent>(8),
                            CommModel::kSimpleBroadcast);
  exec.run(10);
  const PhaseTimings& t = exec.stats().timings;
  EXPECT_GE(t.validate_seconds, 0.0);
  EXPECT_GE(t.send_seconds, 0.0);
  EXPECT_GT(t.deliver_seconds, 0.0);
}

TEST(Convergence, Helpers) {
  const std::vector<double> outputs{1.0, 1.5, 0.5};
  EXPECT_DOUBLE_EQ(max_abs_error(outputs, 1.0), 0.5);
  // A non-finite estimate is an infinite error, never a zero one.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(max_abs_error(std::vector<double>{1.0, std::nan("")}, 1.0), inf);
  EXPECT_EQ(max_abs_error(std::vector<double>{1.0, inf}, 1.0), inf);
  EXPECT_DOUBLE_EQ(spread(outputs), 1.0);
  EXPECT_TRUE(all_equal_to<int>(std::vector<int>{2, 2}, 2));
  EXPECT_FALSE(all_equal_to<int>(std::vector<int>{2, 3}, 2));
}

// Counts the rounds it received in; the observation-loop tests script each
// agent's output on (id, rounds).
struct RoundCounter {
  struct Message {};
  int id = 0;
  int rounds = 0;
  Message send(int /*outdegree*/, int /*port*/) const { return {}; }
  void receive(Inbox<Message> /*messages*/) { ++rounds; }
};

Executor<RoundCounter> counters(int n) {
  std::vector<RoundCounter> agents(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) agents[static_cast<std::size_t>(i)].id = i;
  return Executor<RoundCounter>(
      std::make_shared<StaticSchedule>(complete_graph(n)), std::move(agents),
      CommModel::kSimpleBroadcast);
}

TEST(Convergence, ObserveHorizonReportsTheFinalStableStreak) {
  // Exact in round 1, inexact in round 2, exact from round 3 on: after the
  // whole horizon the verdict dates from the start of the final streak.
  const auto output = [](const RoundCounter& agent) -> std::optional<Rational> {
    return Rational(agent.rounds == 2 ? 0 : 7);
  };
  auto exec = counters(3);
  const AttemptResult result =
      observe(exec, 6, Rational(7), 0.0, output, StopRule::kHorizon);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.stabilization_round, 3);
  EXPECT_EQ(result.final_error, 0.0);
  EXPECT_EQ(result.rounds_run, 6);
  EXPECT_GT(result.messages_delivered, 0);
  EXPECT_EQ(result.messages_delivered, exec.stats().messages_delivered);
  EXPECT_EQ(result.bits_total, -1);  // channel off
  EXPECT_TRUE(result.mechanism.empty());

  // Inexact at the last round: no verdict, and the error of those outputs.
  auto cut = counters(3);
  const AttemptResult late =
      observe(cut, 2, Rational(7), 0.0, output, StopRule::kHorizon);
  EXPECT_FALSE(late.success);
  EXPECT_EQ(late.stabilization_round, -1);
  EXPECT_EQ(late.final_error, 7.0);

  // An agent without an output leaves the δ0 error NaN.
  auto silent = counters(3);
  const AttemptResult none = observe(
      silent, 3, Rational(7), 0.0,
      [](const RoundCounter& agent) -> std::optional<Rational> {
        if (agent.id == 1) return std::nullopt;
        return Rational(7);
      },
      StopRule::kHorizon);
  EXPECT_FALSE(none.success);
  EXPECT_TRUE(std::isnan(none.final_error));
}

TEST(Convergence, ObserveFirstSuccessStopsAtTheFirstSuccessfulRound) {
  // δ0: every agent is exact first in round 3, so the loop stops there.
  auto exact = counters(3);
  const AttemptResult first = observe(
      exact, 10, Rational(7), 0.0,
      [](const RoundCounter& agent) -> std::optional<Rational> {
        return Rational(agent.rounds >= 3 ? 7 : 0);
      },
      StopRule::kFirstSuccess);
  EXPECT_TRUE(first.success);
  EXPECT_EQ(first.stabilization_round, 3);
  EXPECT_EQ(first.rounds_run, 3);
  EXPECT_EQ(exact.stats().rounds, 3);

  // δ2: the estimate 1 + 1/t is within 0.3 of 1 from round 4 on.
  const auto estimate = [](const RoundCounter& agent) {
    return 1.0 + 1.0 / agent.rounds;
  };
  auto early = counters(3);
  const AttemptResult stopped =
      observe(early, 10, Rational(1), 0.3, estimate, StopRule::kFirstSuccess);
  EXPECT_TRUE(stopped.success);
  EXPECT_EQ(stopped.stabilization_round, -1);
  EXPECT_EQ(stopped.rounds_run, 4);
  EXPECT_EQ(stopped.final_error, 0.25);
  auto whole = counters(3);
  const AttemptResult horizon =
      observe(whole, 10, Rational(1), 0.3, estimate, StopRule::kHorizon);
  EXPECT_TRUE(horizon.success);
  EXPECT_EQ(horizon.rounds_run, 10);
  EXPECT_NEAR(horizon.final_error, 0.1, 1e-12);
}

TEST(Convergence, ObserveNeverPassesANaNEstimate) {
  // Agent 0 never has a finite estimate while the others are exact: under
  // either stop rule the run fails with an infinite error.
  const auto estimate = [](const RoundCounter& agent) {
    return agent.id == 0 ? std::nan("") : 1.0;
  };
  for (const StopRule stop : {StopRule::kHorizon, StopRule::kFirstSuccess}) {
    auto exec = counters(3);
    const AttemptResult result =
        observe(exec, 5, Rational(1), 0.5, estimate, stop);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.final_error, std::numeric_limits<double>::infinity());
    EXPECT_EQ(result.rounds_run, 5);
  }
}

}  // namespace
}  // namespace anonet
