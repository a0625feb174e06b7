// Workload `large_n`: direct Executor runs at n = 1e5 with one pool worker
// per hardware thread — the only place the pooled round engine, per-round
// topology rebuild and graph generation at scale, and metering at scale do
// real work. Two simulations of 20 rounds each:
//   - frequency Push-Sum, outdegree-aware, on a fresh random strongly
//     connected graph each round, through a metered channel;
//   - frequency Metropolis on a fresh random symmetric graph each round.
// The workload seed drives both schedules, the executor shuffles and the
// inputs. A simulation is wrong when the digest of its final agent outputs
// differs from the serial (threads = 1) run of the same seed, or from the
// committed reference when the seed has one.

#include <bit>
#include <iostream>
#include <map>

#include "campaign/spec.hpp"
#include "cells.hpp"
#include "dynamics/schedules.hpp"
#include "trace.hpp"
#include "wire/codecs.hpp"
#include "wire/meter.hpp"

namespace perfbench {

namespace {

constexpr const char* kWorkload = "large_n";
constexpr anonet::Vertex kN = 100000;
constexpr int kRounds = 20;
constexpr int kExtraEdges = 3;

using PushSum = anonet::Executor<anonet::FrequencyPushSumAgent>;
using Metropolis = anonet::Executor<anonet::FrequencyMetropolisAgent>;

std::uint64_t digest_outputs(const std::map<std::int64_t, double>& outputs,
                             std::uint64_t hash) {
  for (const auto& [key, value] : outputs) {
    hash = fnv1a(std::to_string(key) + ":" +
                     std::to_string(std::bit_cast<std::uint64_t>(value)) + ";",
                 hash);
  }
  return hash;
}

// Both simulations of one pass, constructed (the set-up) and run.
struct Simulations {
  std::unique_ptr<PushSum> pushsum;
  std::unique_ptr<Metropolis> metropolis;

  Simulations(std::uint64_t seed, int threads, bool metered) {
    const std::vector<std::int64_t> inputs =
        anonet::campaign::derived_inputs(static_cast<int>(kN), seed);
    {
      const Span span("runtime", "Executor::Executor");
      std::vector<anonet::FrequencyPushSumAgent> agents(inputs.begin(),
                                                        inputs.end());
      pushsum = std::make_unique<PushSum>(
          std::make_shared<anonet::RandomStronglyConnectedSchedule>(
              kN, kExtraEdges, seed),
          std::move(agents), anonet::under<anonet::CommModel::kOutdegreeAware>,
          seed, threads);
      if (metered) {
        pushsum->set_channel_policy(anonet::wire::ChannelPolicy::metered());
      }
    }
    const Span span("runtime", "Executor::Executor");
    std::vector<anonet::FrequencyMetropolisAgent> agents(inputs.begin(),
                                                         inputs.end());
    metropolis = std::make_unique<Metropolis>(
        std::make_shared<anonet::RandomSymmetricSchedule>(kN, kExtraEdges,
                                                          seed + 1),
        std::move(agents), anonet::under<anonet::CommModel::kOutdegreeAware>,
        seed, threads);
  }

  template <typename Executor>
  static double run(Executor& executor) {
    const auto start = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      const Span span("runtime", "Executor::step");
      executor.step();
    }
    return seconds_since(start);
  }

  // Digests of the final outputs; with `observe`, every output call is
  // timed as observe work.
  [[nodiscard]] std::string pushsum_digest(
      ObserveSamples* observe = nullptr) const {
    std::uint64_t hash = fnv1a("");
    for (const auto& agent : pushsum->agents()) {
      const auto read = [&] { return agent.normalized_estimates(); };
      hash = digest_outputs(
          observe == nullptr
              ? read()
              : observe_call("FrequencyPushSumAgent::normalized_estimates",
                             *observe, read),
          hash);
    }
    return hex64(hash);
  }

  [[nodiscard]] std::string metropolis_digest(
      ObserveSamples* observe = nullptr) const {
    std::uint64_t hash = fnv1a("");
    for (const auto& agent : metropolis->agents()) {
      const auto read = [&] { return agent.estimates(); };
      hash = digest_outputs(
          observe == nullptr
              ? read()
              : observe_call("FrequencyMetropolisAgent::estimates", *observe,
                             read),
          hash);
    }
    return hex64(hash);
  }
};

class LargeN final : public Workload {
 public:
  LargeN(const Options& options, const References& refs)
      : seed_(options.seed), threads_(hardware_threads()) {
    // The serial run of this seed is the reference every pooled pass must
    // reproduce; a committed reference for the seed checks the serial run.
    Simulations serial(seed_, 1, true);
    serial_run_s_ = Simulations::run(*serial.pushsum) +
                    Simulations::run(*serial.metropolis);
    pushsum_ref_ = serial.pushsum_digest();
    metropolis_ref_ = serial.metropolis_digest();
    const std::string name = "seed" + std::to_string(seed_);
    for (const auto& [sim, digest] :
         {std::pair{"pushsum", pushsum_ref_},
          std::pair{"metropolis", metropolis_ref_}}) {
      const std::string committed = refs.find(kWorkload, sim + ("/" + name));
      if (committed.empty()) continue;
      ++committed_checked_;
      if (committed != digest) {
        tally_.fail(std::string("serial ") + sim + " digest " + digest +
                    " differs from the committed reference " + committed);
      }
    }
    std::cout << "large_n: seed " << seed_ << ", serial reference rounds in "
              << serial_run_s_ << " s, " << committed_checked_
              << " of 2 digests checked against committed references\n";
  }

  double setup_only() override {
    const auto start = Clock::now();
    const Simulations sims(seed_, threads_, true);
    return seconds_since(start);
  }

  PassSample pass() override {
    PassClock clock;
    Simulations sims(seed_, threads_, true);
    clock.setup_done();
    Simulations::run(*sims.pushsum);
    Simulations::run(*sims.metropolis);
    const PassSample sample = clock.finish();
    check(sims);
    return sample;
  }

  void traced(const std::vector<PassSample>& untraced,
              Metrics& layers) override {
    PassSample sample;
    anonet::ExecutorStats ps;
    anonet::ExecutorStats mp;
    std::int64_t bits = 0;
    double run_cpu_s = 0.0;
    ObserveSamples observe;
    WireSamples wire;
    {
      const Span pass_span("bench", "pass");
      PassClock clock;
      Simulations sims(seed_, threads_, true);
      clock.setup_done();
      const double cpu_start = cpu_seconds();
      Simulations::run(*sims.pushsum);
      Simulations::run(*sims.metropolis);
      run_cpu_s = cpu_seconds() - cpu_start;
      sample = clock.finish();
      // The observe step of a direct run: every agent's output read once.
      check(sims, &observe);
      ps = sims.pushsum->stats();
      mp = sims.metropolis->stats();
      bits = sims.pushsum->bandwidth_meter().total_bits_sent();
      for (anonet::Vertex v = 0; v < 4096; ++v) {
        wire.pushsum.push_back(sims.pushsum->agent(v).send(3, 0));
        wire.metropolis.push_back(sims.metropolis->agent(v).send(3, 0));
      }
    }
    layers.set("trace.makespan_s", sample.makespan_s, "s");
    const double traced_run_s = sample.makespan_s - sample.setup_s;
    observe.useful = static_cast<std::int64_t>(observe.call_ms.size());
    report_observe(observe, traced_run_s + observe.total_s, layers);
    layers.set("support.pool_cpu_per_wall", run_cpu_s / traced_run_s, "ratio");
    std::vector<double> run_s;
    for (const PassSample& s : untraced) {
      run_s.push_back(s.makespan_s - s.setup_s);
    }
    layers.set("support.pool_speedup",
               serial_run_s_ / (run_s.empty() ? traced_run_s : median(run_s)),
               "ratio");

    const std::int64_t messages = ps.messages_delivered + mp.messages_delivered;
    layers.set("runtime.rounds", static_cast<double>(ps.rounds + mp.rounds),
               "count");
    layers.set("runtime.messages", static_cast<double>(messages), "count");
    const anonet::PhaseTimings& a = ps.timings;
    const anonet::PhaseTimings& b = mp.timings;
    layers.set("runtime.validate_s", a.validate_seconds + b.validate_seconds,
               "s");
    layers.set("runtime.send_s", a.send_seconds + b.send_seconds, "s");
    layers.set("runtime.deliver_s", a.deliver_seconds + b.deliver_seconds,
               "s");
    const double engine_s = a.validate_seconds + b.validate_seconds +
                            a.send_seconds + b.send_seconds +
                            a.deliver_seconds + b.deliver_seconds;
    layers.set("runtime.ns_per_msg",
               engine_s * 1e9 / static_cast<double>(messages), "ns");
    layers.set("wire.bits_sent", static_cast<double>(bits), "count");
    layers.set("wire.bits_per_msg",
               static_cast<double>(bits) /
                   static_cast<double>(ps.messages_delivered),
               "count");
    time_codecs(wire, layers);

    // Metered against unmetered Push-Sum, pooled, same seed, alternating.
    std::vector<double> metered;
    std::vector<double> unmetered;
    for (int i = 0; i < 3; ++i) {
      for (const bool meter : {true, false}) {
        Simulations sims(seed_, threads_, meter);
        (meter ? metered : unmetered)
            .push_back(Simulations::run(*sims.pushsum));
      }
    }
    layers.set("wire.meter_overhead_frac",
               median(metered) / median(unmetered) - 1.0, "ratio");

    // view(t) on fresh schedule instances for the same rounds.
    double view_s = 0.0;
    std::int64_t edges = 0;
    const std::vector<anonet::DynamicGraphPtr> schedules = {
        std::make_shared<anonet::RandomStronglyConnectedSchedule>(
            kN, kExtraEdges, seed_),
        std::make_shared<anonet::RandomSymmetricSchedule>(kN, kExtraEdges,
                                                          seed_ + 1)};
    for (const anonet::DynamicGraphPtr& schedule : schedules) {
      const Span span("dynamics", "DynamicGraph::view");
      const auto start = Clock::now();
      for (int t = 1; t <= kRounds; ++t) {
        edges += schedule->view(t).get().edge_count();
      }
      view_s += seconds_since(start);
    }
    layers.set("dynamics.view_s", view_s, "s");
    layers.set("dynamics.edges_per_round",
               static_cast<double>(edges) / (2.0 * kRounds), "count");
  }

  std::vector<std::string> reference_lines() override {
    const std::string name = "seed" + std::to_string(seed_);
    return {std::string(kWorkload) + " pushsum/" + name + " " + pushsum_ref_,
            std::string(kWorkload) + " metropolis/" + name + " " +
                metropolis_ref_};
  }

 private:
  void check(const Simulations& sims, ObserveSamples* observe = nullptr) {
    tally_.attempted += 2;
    const std::string ps = sims.pushsum_digest(observe);
    if (ps != pushsum_ref_) {
      tally_.fail("pooled Push-Sum digest " + ps +
                  " differs from the serial reference " + pushsum_ref_);
    }
    const std::string mp = sims.metropolis_digest(observe);
    if (mp != metropolis_ref_) {
      tally_.fail("pooled Metropolis digest " + mp +
                  " differs from the serial reference " + metropolis_ref_);
    }
  }

  std::uint64_t seed_;
  int threads_;
  double serial_run_s_ = 0.0;
  std::string pushsum_ref_;
  std::string metropolis_ref_;
  int committed_checked_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_large_n(const Options& options,
                                       const References& refs) {
  return std::make_unique<LargeN>(options, refs);
}

}  // namespace perfbench
