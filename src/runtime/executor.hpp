#pragma once

// The synchronous anonymous-network executor (Section 2.2).
//
// A round t consists of: every agent generates its message(s) from its
// current state via the model's sending function; messages travel along the
// edges of G(t); every agent then transitions on the *multiset* of messages
// it received. The executor is the model police:
//  - under simple broadcast, send() is called once with the outdegree hidden;
//  - under outdegree awareness, send() is called once with the outdegree,
//    so communications are isotropic by construction;
//  - under output port awareness, send() is called once per port and the
//    round graph must carry a valid local output labelling;
//  - under symmetric broadcast, the round graph must be bidirectional.
// Delivered messages are shuffled with a seeded RNG so an algorithm cannot
// extract information from arrival order (it receives a multiset, not a
// sequence); tests exploit this to verify order independence.
//
// Round engine (docs/round_engine.md): rounds run over a flat delivery arena
// addressed by the round graph's own receiver CSR — no per-round inbox
// allocation — with the send and deliver phases optionally parallelized
// over vertex blocks on a persistent ThreadPool. The arena holds message
// copies for trivially copyable Messages and 4-byte outbox slots for all
// others (runtime/inbox.hpp). Each inbox is shuffled by a counter-based
// RNG keyed on (seed, round, vertex), so execution is bitwise-identical
// across thread counts. Every schedule lends its round graphs through
// DynamicGraph::view(t); the graph caches its CSR and validation verdicts,
// and the executor keeps nothing tied to the previous round's graph. A
// pooled executor builds round t + 1's graph, CSR and verdicts on its
// calling thread while round t delivers, so step t + 1 finds them cached.
// Under slot delivery the deliver loop prefetches the outbox messages a few
// receivers ahead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dynamics/dynamic_graph.hpp"
#include "dynamics/perturbation.hpp"
#include "runtime/capabilities.hpp"
#include "runtime/comm_model.hpp"
#include "runtime/inbox.hpp"
#include "support/counter_rng.hpp"
#include "support/thread_pool.hpp"
#include "wire/meter.hpp"
#include "wire/wire.hpp"

namespace anonet {

// An agent exposes a message type, a sending function, and a transition on
// the received multiset (shuffled by the executor):
//   Message send(int outdegree, int port) const;
//     outdegree: 0 when the model hides it, else the round outdegree
//       (self-loop included);
//     port: 0 for isotropic models, else the output port in [1, outdegree].
//   void receive(Inbox<Message> messages);
//     `messages` (runtime/inbox.hpp) aliases the executor's buffers and is
//     only valid during the call.
template <typename A>
concept AnonymousAgent = requires(A agent, const A const_agent,
                                  Inbox<typename A::Message> m) {
  typename A::Message;
  requires std::default_initializable<typename A::Message>;
  { const_agent.send(0, 0) } -> std::same_as<typename A::Message>;
  { agent.receive(m) };
};

// An agent opts into thread-parallel execution by declaring
//     static constexpr bool kParallelSafe = true;
// promising that send()/receive() touch no state shared between agents.
// Agents that mutate shared structures (MinBaseAgent and
// HistoryFrequencyAgent intern into a shared ViewRegistry) must not
// declare it; the Executor constructor rejects threads > 1 for them
// instead of racing silently.
template <typename A>
inline constexpr bool kParallelSafeAgent = requires {
  requires static_cast<bool>(A::kParallelSafe);
};

// Wall-clock spent in each phase of step(), cumulative over rounds. Timings
// are *measurements*, not semantics: they differ between otherwise identical
// runs and are excluded from determinism comparisons.
struct PhaseTimings {
  double validate_seconds = 0.0;  // round graph, model checks, its CSR
  // Sending-function evaluation, and the growth of the executor's buffers
  // (outbox, arena, per-slot bits, activity map, block partials) that
  // precedes it, all of it in round 1 once capacities fit the schedule.
  double send_seconds = 0.0;
  double deliver_seconds = 0.0;   // arena fill, shuffle, receive transitions
  // Next round's graph, CSR and verdicts, built during deliver (pooled
  // executors only, and not in the last round of run()). Already inside
  // deliver_seconds' wall time: not a fourth phase to add to the three
  // above.
  double lookahead_seconds = 0.0;
};

struct ExecutorStats {
  std::int64_t rounds = 0;
  std::int64_t messages_delivered = 0;  // self-loop deliveries included
  PhaseTimings timings;
};

// Throws std::invalid_argument unless every vertex's out-edges are colored
// with exactly the ports 1..outdegree. The verdict is cached on the graph
// object (Digraph::has_valid_output_ports), so repeated validation of the
// same round graph is O(1).
void validate_output_ports(const Digraph& g);

// Thrown by Executor::step() when a cooperative wall-clock deadline set via
// set_deadline() has passed. The check runs between rounds only (never
// mid-round), so a round that started before the deadline always completes
// and the executor is left in a consistent state: stats(), agents() and the
// round counter reflect exactly the rounds that ran. Campaign runners catch
// this type specifically to record a "timeout" verdict distinguishable from
// ordinary failures.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded(std::int64_t rounds_run, double budget_ms)
      : std::runtime_error("wall-clock deadline of " +
                           std::to_string(budget_ms) + " ms exceeded after " +
                           std::to_string(rounds_run) + " rounds"),
        rounds_run_(rounds_run) {}

  [[nodiscard]] std::int64_t rounds_run() const { return rounds_run_; }

 private:
  std::int64_t rounds_run_;
};

template <AnonymousAgent Alg>
class Executor {
 public:
  using Message = typename Alg::Message;

  // Capability set declared by the agent (runtime/capabilities.hpp);
  // undeclared agents are treated as model-polymorphic.
  static constexpr ModelCapabilities kAgentCapabilities =
      agent_capabilities<Alg>();

  // `threads` is the worker count for the send and deliver phases
  // (1 = serial, no pool is created). Agent states, delivery orders, and
  // the counting fields of ExecutorStats are identical for every value.
  // threads > 1 throws unless Alg declares kParallelSafe (see above).
  // A model that does not provide the agent's declared capabilities
  // (e.g. an outdegree-consuming agent under kSimpleBroadcast) throws
  // std::invalid_argument; use the ModelTag overload below to turn that
  // into a compile error.
  Executor(DynamicGraphPtr network, std::vector<Alg> agents, CommModel model,
           std::uint64_t shuffle_seed = 0x5eedull, int threads = 1)
      : network_(std::move(network)),
        agents_(std::move(agents)),
        model_(model),
        seed_(shuffle_seed),
        threads_(threads < 1 ? 1 : threads) {
    if (network_ == nullptr) {
      throw std::invalid_argument("Executor: null network");
    }
    if (!model_provides(model_, kAgentCapabilities)) {
      throw std::invalid_argument(
          "Executor: " + describe_model_mismatch(model_, kAgentCapabilities));
    }
    if (agents_.size() != static_cast<std::size_t>(network_->vertex_count())) {
      throw std::invalid_argument("Executor: one agent per vertex required");
    }
    if (threads_ > 1) {
      if constexpr (!kParallelSafeAgent<Alg>) {
        throw std::invalid_argument(
            "Executor: threads > 1 requires the agent type to declare "
            "static constexpr bool kParallelSafe = true (its send/receive "
            "must not touch state shared between agents)");
      } else {
        pool_ = std::make_unique<ThreadPool>(threads_);
      }
    }
  }

  // Compile-time-checked model selection: pass `under<CommModel::k...>`
  // instead of the enum and a pairing forbidden by Table 1 fails to compile
  // with an explanation instead of throwing at construction.
  template <CommModel M>
  Executor(DynamicGraphPtr network, std::vector<Alg> agents,
           ModelTag<M> /*model*/, std::uint64_t shuffle_seed = 0x5eedull,
           int threads = 1)
      : Executor(std::move(network), std::move(agents), M, shuffle_seed,
                 threads) {
    static_assert(
        !(has_capability(kAgentCapabilities,
                         ModelCapabilities::kNeedsOutdegree) &&
          !sees_outdegree(M)),
        "anonet model-compliance violation (Table 1): this agent declares "
        "ModelCapabilities::kNeedsOutdegree, but the selected communication "
        "model hides the sender's outdegree — simple and symmetric broadcast "
        "call send() with outdegree 0. Run the agent under kOutdegreeAware "
        "or kOutputPortAware, or rewrite its sending function so it no "
        "longer consumes the outdegree.");
    static_assert(
        !(has_capability(kAgentCapabilities,
                         ModelCapabilities::kNeedsOutputPorts) &&
          M != CommModel::kOutputPortAware),
        "anonet model-compliance violation (Table 1): this agent declares "
        "ModelCapabilities::kNeedsOutputPorts, but only "
        "CommModel::kOutputPortAware addresses output ports individually — "
        "every other model is isotropic and replicates one message to all "
        "out-neighbors. Run the agent under kOutputPortAware, or rewrite "
        "its sending function to ignore the port.");
    static_assert(
        !(has_capability(kAgentCapabilities,
                         ModelCapabilities::kNeedsSymmetricModel) &&
          M != CommModel::kSymmetricBroadcast),
        "anonet model-compliance violation: this agent declares "
        "ModelCapabilities::kNeedsSymmetricModel — it relies on the model "
        "certifying every round graph bidirectional, not merely on being "
        "scheduled over a symmetric network class — and only "
        "CommModel::kSymmetricBroadcast gives that per-round guarantee. Run "
        "the agent under kSymmetricBroadcast, or weaken its declaration to "
        "kSymmetricOnly if a symmetric schedule promise suffices.");
  }

  // Arms (or, with budget_ms <= 0, disarms) a cooperative wall-clock
  // deadline counted from now. step() throws DeadlineExceeded at the start
  // of the first round that begins at or after the deadline; rounds already
  // under way are never interrupted. This is the campaign runner's per-cell
  // timeout hook — a measurement-driven bound, orthogonal to the round
  // budget, so a hung or pathologically slow schedule cannot pin a worker.
  // A budget the steady clock cannot represent from now (+inf included)
  // never expires; a NaN budget throws std::invalid_argument.
  void set_deadline(double budget_ms) {
    using Clock = std::chrono::steady_clock;
    if (std::isnan(budget_ms)) {
      throw std::invalid_argument("Executor: NaN deadline budget");
    }
    const std::chrono::duration<double, std::milli> budget(budget_ms);
    const Clock::time_point now = Clock::now();
    const Clock::duration headroom = Clock::time_point::max() - now;
    deadline_budget_ms_ = budget_ms;
    deadline_armed_ = budget_ms > 0.0 && budget < headroom;
    if (deadline_armed_) {
      deadline_ = now + std::min(headroom, std::chrono::duration_cast<
                                               Clock::duration>(budget));
    }
  }

  // Installs a wire::ChannelPolicy (unbounded | metered | bounded-B-bits).
  // Metered and bounded channels measure every message with
  // wire::encoded_bits: its MessageTraits encode, which a core agent's
  // header defines beside its Message, run into a counting sink. The
  // static_assert below names a missing specialization. step() only sees
  // the function pointer installed here, so agents that are never metered
  // need no codec, and with the default unbounded policy the send/deliver
  // path never touches it.
  void set_channel_policy(wire::ChannelPolicy policy) {
    static_assert(
        wire::WireEncodable<Message>,
        "Executor::set_channel_policy requires a canonical codec for the "
        "agent's Message: specialize wire::MessageTraits<Message> beside "
        "the agent, as every core agent header does.");
    if (policy.mode == wire::ChannelMode::kBounded && policy.budget_bits <= 0) {
      throw std::invalid_argument(
          "Executor: a bounded channel needs a positive per-message budget");
    }
    channel_policy_ = policy;
    measure_ = policy.mode == wire::ChannelMode::kUnbounded
                   ? nullptr
                   : &wire::encoded_bits<Message>;
  }

  [[nodiscard]] const wire::ChannelPolicy& channel_policy() const {
    return channel_policy_;
  }

  // Installs an asynchronous start schedule (dynamics/perturbation.hpp):
  // agent v is inert until round wake_rounds[v] — it sends nothing (and is
  // metered for nothing) and ignores deliveries, its state frozen at the
  // initial state. The round graph itself is untouched: an awake sender
  // still splits across its full outdegree, so messages aimed at sleepers
  // are paid for and lost. An empty schedule (the default) disarms the
  // gate and restores the exact unperturbed code path.
  void set_start_schedule(StartSchedule starts) {
    if (!starts.wake_rounds.empty() &&
        starts.wake_rounds.size() != agents_.size()) {
      throw std::invalid_argument(
          "Executor: start schedule needs one wake round per agent");
    }
    starts_ = std::move(starts);
    update_perturbed();
  }

  // Installs crash-stop and message-drop faults (dynamics/perturbation.hpp).
  // A crashed agent permanently stops sending and transitioning (its last
  // state stays readable); a dropped message is measured at the sender —
  // channel accounting sees it — but never delivered. Drop decisions are a
  // pure function of (drop_seed, round, edge id), so the loss pattern is
  // identical across thread counts. Self-loops never drop. A trivial plan
  // (the default) disarms the gate.
  void set_fault_plan(FaultPlan faults) {
    if (!faults.crash_rounds.empty() &&
        faults.crash_rounds.size() != agents_.size()) {
      throw std::invalid_argument(
          "Executor: fault plan needs one crash round per agent");
    }
    faults_ = std::move(faults);
    drop_threshold_ = drop_threshold(faults_.drop_rate);
    update_perturbed();
  }

  // Vertices per block in both phases of a pooled executor. A serial
  // executor runs each phase as one block of n. Block boundaries decide
  // only which worker runs which vertices and how per-block statistics are
  // chunked before their block-order reduction, so the grain changes no
  // result. A phase of at most kBlockGrain vertices is one block, which the
  // pool runs on its serial path without waking a worker.
  static constexpr std::int64_t kBlockGrain = 1024;

  // Per-round bit accounting; empty unless a metered/bounded policy was
  // installed before the rounds of interest ran.
  [[nodiscard]] const wire::BandwidthMeter& bandwidth_meter() const {
    return meter_;
  }

  // Runs one communication-closed round. A pooled executor also builds the
  // next round's graph while this one delivers (see step_round).
  void step() { step_round(true); }

  // Runs `rounds` rounds. Its last round does not look ahead: no step of
  // this run reads the round after it.
  void run(int rounds) {
    for (int i = 1; i <= rounds; ++i) step_round(i < rounds);
  }

  [[nodiscard]] int round() const { return static_cast<int>(stats_.rounds); }
  [[nodiscard]] const Alg& agent(Vertex v) const {
    return agents_[static_cast<std::size_t>(v)];
  }
  // Mutable access, used by self-stabilization tests to corrupt states.
  [[nodiscard]] std::vector<Alg>& agents() { return agents_; }
  [[nodiscard]] const std::vector<Alg>& agents() const { return agents_; }
  [[nodiscard]] const ExecutorStats& stats() const { return stats_; }
  [[nodiscard]] CommModel model() const { return model_; }
  [[nodiscard]] int threads() const { return threads_; }

 private:
  // One round; with a pool and `look_ahead`, the deliver phase also builds
  // round t + 1's graph.
  void step_round(bool look_ahead) {
    using Clock = std::chrono::steady_clock;
    if (deadline_armed_ && Clock::now() >= deadline_) {
      throw DeadlineExceeded(stats_.rounds, deadline_budget_ms_);
    }
    const auto t_validate = Clock::now();

    const int t = static_cast<int>(stats_.rounds) + 1;
    if (lookahead_error_) {
      // The previous round's lookahead already asked for this round's
      // graph and checked it, and one of the two threw: this is where that
      // exception belongs.
      std::rethrow_exception(std::exchange(lookahead_error_, nullptr));
    }
    const Digraph& g = network_->view(t).get();
    check_round_graph(g);
    const auto t_send = Clock::now();

    const auto n = static_cast<std::size_t>(g.vertex_count());
    const auto edge_total = static_cast<std::size_t>(g.edge_count());
    // The graph's receiver CSR (built by check_round_graph) addresses the
    // arena. The outbox holds a message per slot: the sender, or the edge
    // under port awareness.
    const std::span<const std::int32_t> offsets = g.in_offsets();
    const std::span<const Vertex> sources = g.in_source_list();
    const std::span<const EdgeId> in_edges = g.in_edge_list();
    const bool port_aware = model_ == CommModel::kOutputPortAware;
    const std::span<const std::int32_t> slots = port_aware ? in_edges : sources;
    const std::size_t slot_count = port_aware ? edge_total : n;
    if (outbox_.size() < slot_count) outbox_.resize(slot_count);
    if (arena_.size() < edge_total) arena_.resize(edge_total);
    // The block partials grow here, before the optional buffers below: with
    // them last, perfbench `large_n` set-ups stayed in their slow heap mode
    // (docs/round_engine.md, "Block grain").
    const auto n64 = static_cast<std::int64_t>(n);
    const std::int64_t grain = pool_ != nullptr ? kBlockGrain : n64;
    const std::int64_t blocks = ThreadPool::block_count(n64, grain);
    if (partials_.size() < static_cast<std::size_t>(blocks)) {
      partials_.resize(static_cast<std::size_t>(blocks));
    }

    // Channel accounting is armed per run, not per round: `metering` is a
    // loop-invariant local, so the unbounded path costs one predicted
    // branch per block and allocates nothing.
    const bool metering = measure_ != nullptr;
    if (metering && outbox_bits_.size() < slot_count) {
      outbox_bits_.resize(slot_count);
    }

    // Perturbation gate: resolved once per round into a per-sender activity
    // map (send blocks fill their own slots; the phase barrier publishes
    // them to every deliver block). Unperturbed runs never touch it.
    const bool perturbed = perturbed_;
    if (perturbed && sender_active_.size() < n) sender_active_.resize(n);

    // Send phase: evaluate each sender's sending function exactly once per
    // model contract. Senders only write their own outbox slots, so vertex
    // blocks are independent.
    parallel(n64, grain,
             [&](std::int64_t begin, std::int64_t end, std::int64_t b) {
               Partial local;
               for (std::int64_t i = begin; i < end; ++i) {
                 const auto v = static_cast<Vertex>(i);
                 if (perturbed) {
                   // Pre-wake and crashed agents send nothing: their outbox
                   // slot stays stale and delivery skips it via this map, so
                   // nothing is metered for them either.
                   const bool active =
                       starts_.awake(v, t) && !faults_.crashed(v, t);
                   sender_active_[static_cast<std::size_t>(i)] =
                       active ? 1 : 0;
                   if (!active) continue;
                 }
                 const int d = g.outdegree(v);
                 const Alg& agent = agents_[static_cast<std::size_t>(i)];
                 if (port_aware) {
                   for (EdgeId id : g.out_edges(v)) {
                     const auto slot = static_cast<std::size_t>(id);
                     outbox_[slot] =
                         agent.send(d, static_cast<int>(g.edge(id).color));
                     if (metering) charge(slot, 1, local);
                   }
                 } else {
                   const auto slot = static_cast<std::size_t>(i);
                   outbox_[slot] = agent.send(sees_outdegree(model_) ? d : 0, 0);
                   if (metering) charge(slot, d, local);
                 }
               }
               if (metering) partials_[static_cast<std::size_t>(b)] = local;
             });

    // The channel sits between the sending functions and delivery: every
    // round-t message now exists and is measured, none has traveled. A
    // bounded policy rejects the round here, so BandwidthExceeded leaves
    // agents untransitioned with exactly stats_.rounds completed rounds
    // (the same contract as DeadlineExceeded).
    wire::RoundBandwidth round_bits;
    if (metering) {
      for (std::int64_t b = 0; b < blocks; ++b) {
        const Partial& p = partials_[static_cast<std::size_t>(b)];
        round_bits.bits_sent += p.sent_bits;
        if (p.max_bits > round_bits.max_message_bits) {
          round_bits.max_message_bits = p.max_bits;
        }
      }
      if (channel_policy_.mode == wire::ChannelMode::kBounded &&
          round_bits.max_message_bits > channel_policy_.budget_bits) {
        throw wire::BandwidthExceeded(stats_.rounds,
                                      round_bits.max_message_bits,
                                      channel_policy_.budget_bits);
      }
    }

    const auto t_deliver = Clock::now();
    const auto seconds = [](auto from, auto to) {
      return std::chrono::duration<double>(to - from).count();
    };

    // Lookahead: with a pool, the calling thread asks the schedule for
    // round t + 1 while the workers deliver round t, and runs step t + 1's
    // check_round_graph on it, so step t + 1 finds the CSR and verdicts
    // cached on the graph. A lent graph stays valid across one further
    // view(), so round t's graph is untouched (a generated schedule builds
    // round t + 1 in place in its other slot). Step t + 1 still calls
    // view(t + 1) and runs every check; an exception is kept for it to
    // rethrow.
    double lookahead_seconds = 0.0;
    const auto lookahead = [&] {
      const auto start = Clock::now();
      try {
        check_round_graph(network_->view(t + 1).get());
      } catch (...) {
        lookahead_error_ = std::current_exception();
      }
      lookahead_seconds = seconds(start, Clock::now());
    };

    // Deliver phase: each receiver gathers its in-edges into its arena
    // slice, shuffles with its own counter-keyed stream, and transitions.
    // Receivers only touch their own slice and their own agent, so vertex
    // blocks are independent and the outcome is thread-count-invariant.
    // Slot delivery first prefetches a later receiver's messages (see
    // kPrefetchReceivers).
    parallel(n64, grain,
             [&](std::int64_t begin, std::int64_t end, std::int64_t b) {
               Partial local;
               for (std::int64_t i = begin; i < end; ++i) {
                 if constexpr (kDeliveredBySlot<Message>) {
                   // Every cache line of each outbox message on a later
                   // receiver's in-edges: from the message's first byte in
                   // line steps, and its last byte.
                   const auto ahead =
                       static_cast<std::size_t>(i + kPrefetchReceivers);
                   if (i + kPrefetchReceivers < end) {
                     for (auto k = static_cast<std::size_t>(offsets[ahead]);
                          k < static_cast<std::size_t>(offsets[ahead + 1]);
                          ++k) {
                       const char* message = reinterpret_cast<const char*>(
                           &outbox_[static_cast<std::size_t>(slots[k])]);
                       for (std::size_t line = 0; line < sizeof(Message);
                            line += kCacheLine) {
                         __builtin_prefetch(message + line);
                       }
                       __builtin_prefetch(message + sizeof(Message) - 1);
                     }
                   }
                 }
                 const auto v = static_cast<Vertex>(i);
                 if (perturbed &&
                     !sender_active_[static_cast<std::size_t>(i)]) {
                   // Pre-wake or crashed receiver: deliveries evaporate and
                   // the state stays frozen (no transition, no counts).
                   continue;
                 }
                 const auto row = static_cast<std::size_t>(i);
                 const auto base = static_cast<std::size_t>(offsets[row]);
                 const auto deg =
                     static_cast<std::size_t>(offsets[row + 1]) - base;
                 std::size_t got = 0;
                 for (std::size_t k = 0; k < deg; ++k) {
                   if (perturbed) {
                     // A message exists only if its sender was active this
                     // round, and travels only if the wire keeps it: drops
                     // are decided per (round, edge) by a counter RNG —
                     // thread-invariant — and self-loops never drop. Either
                     // way the sender already paid for it (metered at send).
                     const auto src =
                         static_cast<std::size_t>(sources[base + k]);
                     if (!sender_active_[src]) continue;
                     if (static_cast<Vertex>(src) != v &&
                         drops_message(faults_.drop_seed, t, in_edges[base + k],
                                       drop_threshold_)) {
                       continue;
                     }
                   }
                   const auto slot = static_cast<std::size_t>(slots[base + k]);
                   if constexpr (kDeliveredBySlot<Message>) {
                     arena_[base + got] = static_cast<Entry>(slot);
                   } else {
                     arena_[base + got] = outbox_[slot];
                   }
                   if (metering) local.recv_bits += outbox_bits_[slot];
                   ++got;
                 }
                 local.messages += static_cast<std::int64_t>(got);
                 if (got > 1) {
                   // Fisher–Yates keyed on (seed, round, vertex): cheaper
                   // than std::shuffle's division-based bounded draws and
                   // still a pure function of the key (thread-invariant).
                   // Under perturbation the key is unchanged and the shuffle
                   // runs over the compacted survivor count, so the order is
                   // still a pure function of (seed, t, v, survivors).
                   // Slots and copies take the same swaps, so the order
                   // does not depend on the arena form.
                   CounterRng rng(seed_, static_cast<std::uint64_t>(t),
                                  static_cast<std::uint64_t>(v));
                   Entry* slice = arena_.data() + base;
                   for (std::size_t k = got - 1; k > 0; --k) {
                     std::swap(slice[k], slice[rng.bounded(k + 1)]);
                   }
                 }
                 const std::span<const Entry> entries(arena_.data() + base,
                                                      got);
                 if constexpr (kDeliveredBySlot<Message>) {
                   agents_[static_cast<std::size_t>(i)].receive(
                       Inbox<Message>(entries, outbox_.data()));
                 } else {
                   agents_[static_cast<std::size_t>(i)].receive(
                       Inbox<Message>(entries));
                 }
               }
               partials_[static_cast<std::size_t>(b)] = local;
             },
             pool_ != nullptr && look_ahead ? TaskFn(lookahead) : TaskFn());
    for (std::int64_t b = 0; b < blocks; ++b) {
      const Partial& p = partials_[static_cast<std::size_t>(b)];
      stats_.messages_delivered += p.messages;
      round_bits.bits_received += p.recv_bits;
    }
    if (metering) meter_.record_round(round_bits);
    ++stats_.rounds;

    const auto t_end = Clock::now();
    stats_.timings.validate_seconds += seconds(t_validate, t_send);
    stats_.timings.send_seconds += seconds(t_send, t_deliver);
    stats_.timings.deliver_seconds += seconds(t_deliver, t_end);
    stats_.timings.lookahead_seconds += lookahead_seconds;
  }

  // Per-block partial statistics, reduced in block order after each phase
  // (deterministic regardless of which worker ran which block). The same
  // array serves both phases: the send phase fills the bit fields when a
  // channel policy is armed and is reduced before delivery (the bounded
  // check); the deliver phase then overwrites each slot with its own
  // counts. Bit totals are integer sums and maxima, so the reduced values
  // are independent of thread count and block assignment by construction.
  // Padded to a cache line: adjacent blocks usually run on different
  // workers, and the four counters would otherwise share lines and bounce
  // between cores on every delivery.
  struct alignas(64) Partial {
    std::int64_t messages = 0;
    std::int64_t sent_bits = 0;  // send phase: bits pushed onto out-edges
    std::int64_t max_bits = 0;   // send phase: largest single message
    std::int64_t recv_bits = 0;  // deliver phase: bits gathered from in-edges
  };

  // kSymmetricOnly agents get their network-class assumption verified
  // under every model (Metropolis runs under kOutdegreeAware but is only
  // correct on bidirectional round graphs).
  static constexpr bool kRequiresSymmetric =
      has_capability(kAgentCapabilities, ModelCapabilities::kSymmetricOnly) ||
      has_capability(kAgentCapabilities,
                     ModelCapabilities::kNeedsSymmetricModel);

  // What a round graph must satisfy under this model and agent; throws
  // otherwise. Step t runs it on round t's graph and the lookahead on round
  // t + 1's. The verdicts and the caches it builds are kept on the graph
  // object, so a graph already checked, by an earlier round or by the
  // lookahead, costs a few cached reads. It builds every cache the parallel
  // phases read: the adjacency (receiver CSR and out-degree counts) always,
  // through in_offsets(), and under port awareness the out-edge id list,
  // through validate_output_ports; the phases themselves build none.
  void check_round_graph(const Digraph& g) const {
    if (g.vertex_count() != network_->vertex_count()) {
      throw std::logic_error("Executor: schedule changed vertex count");
    }
    if (!g.has_all_self_loops()) {
      throw std::logic_error("Executor: round graph misses a self-loop");
    }
    if (model_ == CommModel::kSymmetricBroadcast && !g.is_symmetric()) {
      throw std::logic_error("Executor: asymmetric round under symmetric model");
    }
    if (kRequiresSymmetric && !g.is_symmetric()) {
      throw std::logic_error(
          "Executor: asymmetric round graph for an agent declaring "
          "ModelCapabilities::kSymmetricOnly");
    }
    if (model_ == CommModel::kOutputPortAware) validate_output_ports(g);
    static_cast<void>(g.in_offsets());
  }

  // What the arena holds per delivery: a copy or an outbox slot.
  using Entry = ArenaEntry<Message>;

  // Measures outbox_[slot] once and charges `copies` of it to `local`: an
  // isotropic message travels every out-edge, self-loop included.
  void charge(std::size_t slot, std::int64_t copies, Partial& local) {
    const std::int64_t bits = measure_(outbox_[slot]);
    outbox_bits_[slot] = bits;
    local.sent_bits += bits * copies;
    if (bits > local.max_bits) local.max_bits = bits;
  }

  // Deliver prefetch, slot form only: before receiver i gathers, the deliver
  // loop requests every cache line of the outbox messages on the in-edges of
  // receiver i + kPrefetchReceivers (in the same block), so the random reads
  // of those messages, a few hundred bytes each for the frequency engines,
  // overlap the receives in between instead of stalling them. A hint only:
  // nothing is written and no order or byte depends on it. Distances 4, 8
  // and 16 measured the same (docs/round_engine.md, "The arena"). The
  // prefetches sit in the deliver loop itself: GCC deletes a call to a
  // helper made only of prefetches, which it takes for a pure function.
  static constexpr std::int64_t kPrefetchReceivers = 4;
  static constexpr std::size_t kCacheLine = 64;

  // `side` is set only with a pool (the deliver phase's lookahead).
  template <typename Fn>
  void parallel(std::int64_t count, std::int64_t block, Fn&& fn,
                TaskFn side = {}) {
    if (pool_ != nullptr) {
      // BlockFn borrows `fn` without allocating (parallel_blocks is
      // synchronous), so the pooled path stays heap-free per round too.
      pool_->parallel_blocks(count, block, fn, side);
    } else {
      const std::int64_t blocks = ThreadPool::block_count(count, block);
      for (std::int64_t b = 0; b < blocks; ++b) {
        const std::int64_t begin = b * block;
        fn(begin, std::min(begin + block, count), b);
      }
    }
  }

  DynamicGraphPtr network_;
  std::vector<Alg> agents_;
  CommModel model_;
  std::uint64_t seed_;
  int threads_;
  std::unique_ptr<ThreadPool> pool_;
  ExecutorStats stats_;

  void update_perturbed() {
    perturbed_ = !starts_.trivial() || !faults_.trivial();
  }

  // Perturbation state (set_start_schedule / set_fault_plan). perturbed_
  // caches "any gate armed" so the unperturbed hot path pays one branch.
  StartSchedule starts_;
  FaultPlan faults_;
  std::uint64_t drop_threshold_ = 0;
  bool perturbed_ = false;
  std::vector<unsigned char> sender_active_;  // per-round activity map

  // Cooperative deadline (set_deadline): checked at the top of step().
  bool deadline_armed_ = false;
  double deadline_budget_ms_ = 0.0;
  std::chrono::steady_clock::time_point deadline_{};

  // Channel policy (set_channel_policy): measure_ doubles as the on/off
  // switch — nullptr means unbounded and step() skips all accounting.
  using MeasureFn = std::int64_t (*)(const Message&);
  MeasureFn measure_ = nullptr;
  wire::ChannelPolicy channel_policy_{};
  wire::BandwidthMeter meter_;

  // What the last lookahead threw, rethrown by the next round in place of
  // its view() call and checks.
  std::exception_ptr lookahead_error_;

  // Round-engine arena state, reused across rounds (no per-round heap
  // churn once capacities have grown to the schedule's maxima).
  std::vector<Entry> arena_;       // deliveries, receiver-major
  std::vector<Message> outbox_;    // one message per slot (sender or edge)
  std::vector<Partial> partials_;  // per-block per-phase stats
  std::vector<std::int64_t> outbox_bits_;  // per-slot bits (metered only)
};

}  // namespace anonet
