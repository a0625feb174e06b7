// Round-engine scaling benchmark — emits BENCH_executor.json.
//
// Two sweeps:
//   (a) serial vs pooled thread scaling 1/2/4/8 at n in {1e3, 1e4, 1e5}, on
//       outdegree-aware Push-Sum over a static bidirectional ring (the
//       workload behind the Theorem 5.2 convergence experiments), whose
//       scalar messages the arena copies;
//   (b) serial vs pooled at n = 1e5 over 20 rounds of a fresh random graph
//       each round, for the two frequency engines, whose messages (each an
//       inline list of ten entries, one contiguous block in the outbox) the
//       arena delivers by slot: metered frequency Push-Sum on
//       RandomStronglyConnectedSchedule and frequency Metropolis on
//       RandomSymmetricSchedule (the shapes of perfbench's `large_n`).
// Every row records its validate, send and deliver seconds, the engine's
// ns per delivered message, and the seconds the pooled engine spent
// fetching and checking the next round's graph during delivery
// (`lookahead_s`: 0 for serial rows, about 1e-5 s for the static ring,
// whose one graph is built and checked once). For the frequency rows the
// lookahead builds round t + 1's graph in place, in the schedule slot it
// is about to lend, then its receiver CSR and out-degree counts, the
// self-loop check and, for Metropolis, the symmetry check; no out-edge id
// list, which the outdegree-aware send never reads. Validate ends with the
// round's checks; the first round's buffer growth counts as send.
//
// Regenerate with scripts/bench.sh (Release build); interpretation notes in
// docs/round_engine.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/metropolis.hpp"
#include "core/pushsum.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"
#include "support/thread_pool.hpp"

using namespace anonet;

namespace {

std::vector<PushSumAgent> make_agents(Vertex n) {
  std::vector<PushSumAgent> agents;
  agents.reserve(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    agents.emplace_back(static_cast<double>(v % 17), 1.0);
  }
  return agents;
}

// Rounds chosen so every configuration moves a comparable message volume.
int rounds_for(Vertex n) {
  const std::int64_t deliveries_per_round = 3ll * n;  // ring + self-loops
  const std::int64_t target = 6'000'000;
  return static_cast<int>(
      std::max<std::int64_t>(3, target / deliveries_per_round));
}

// Frequency-engine inputs: ten values, as in perfbench's `large_n`.
std::vector<std::int64_t> frequency_inputs(Vertex n) {
  std::vector<std::int64_t> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) inputs.push_back(v % 10);
  return inputs;
}

// Σ over agents and values of value × estimate: equal across thread counts
// because every run is bitwise deterministic.
double frequency_checksum(const std::map<std::int64_t, double>& estimates) {
  double sum = 0.0;
  for (const auto& [value, x] : estimates) {
    if (std::isfinite(x)) sum += static_cast<double>(value) * x;
  }
  return sum;
}

struct Row {
  std::string workload;
  std::string engine;
  Vertex n = 0;
  int threads = 1;
  int rounds = 0;
  double seconds = 0.0;
  std::int64_t messages = 0;
  PhaseTimings phases{};  // the executor's own split of the rounds
  double checksum = 0.0;  // Σ agent outputs — guards against dead-code elim
};

void record(Row& row, const ExecutorStats& stats) {
  row.messages = stats.messages_delivered;
  row.phases = stats.timings;
}

// Best of `reps`: each repetition is deterministic (same checksum), so the
// fastest isolates engine cost from scheduler noise on shared hosts; its
// phase split is the one recorded.
template <typename Run>
Row timed(const char* workload, const char* engine, Vertex n, int threads,
          int rounds, int reps, Run&& run) {
  const Row blank{.workload = workload,
                  .engine = engine,
                  .n = n,
                  .threads = threads,
                  .rounds = rounds};
  Row best = blank;
  best.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    Row row = blank;
    const auto start = std::chrono::steady_clock::now();
    row.checksum = run(row);
    row.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (row.seconds < best.seconds) best = row;
  }
  return best;
}

// The three phases summed, per delivered message.
double ns_per_message(const Row& row) {
  const double engine_s = row.phases.validate_seconds +
                          row.phases.send_seconds + row.phases.deliver_seconds;
  return row.messages == 0
             ? 0.0
             : engine_s * 1e9 / static_cast<double>(row.messages);
}

void print_row(const Row& row) {
  std::printf("  %-15s %-6s n=%-7d threads=%d  %8.3fs  %10.0f rounds/s  %12.3e msgs/s  %6.1f ns/msg\n",
              row.workload.c_str(), row.engine.c_str(), row.n, row.threads,
              row.seconds, row.rounds / row.seconds,
              static_cast<double>(row.messages) / row.seconds,
              ns_per_message(row));
}

}  // namespace

int main() {
  std::vector<Row> rows;

  // Sweep (a): serial vs pooled across n. `serial` is the executor with no
  // pool (threads = 1); `pooled` rows share the identical engine with a
  // persistent worker pool, so the delta is pure pool overhead or speedup.
  std::printf("executor_scaling (a) — serial vs pooled (host has %d hardware threads)\n",
              ThreadPool::hardware_threads());
  for (Vertex n : {1000, 10000, 100000}) {
    auto net = std::make_shared<StaticSchedule>(bidirectional_ring(n));
    const int rounds = rounds_for(n);
    for (int threads : {1, 2, 4, 8}) {
      const char* engine = threads == 1 ? "serial" : "pooled";
      rows.push_back(timed("ring", engine, n, threads, rounds, 3, [&](Row& row) {
        Executor<PushSumAgent> exec(net, make_agents(n),
                                    CommModel::kOutdegreeAware, 0x5eedull,
                                    threads);
        exec.run(rounds);
        record(row, exec.stats());
        double sum = 0.0;
        for (const auto& a : exec.agents()) sum += a.output();
        return sum;
      }));
      print_row(rows.back());
    }
  }

  // Sweep (b): the frequency engines on fresh random graphs, serial vs
  // pooled. Two repetitions each: a row runs for seconds, not milliseconds.
  const Vertex n_fresh = 100000;
  const int fresh_rounds = 20;
  const int fresh_threads =
      std::clamp(ThreadPool::hardware_threads(), 2, 4);
  const std::uint64_t fresh_seed = 11;
  std::printf("executor_scaling (b) — frequency engines on fresh random "
              "graphs, n=%d, %d rounds\n",
              n_fresh, fresh_rounds);
  for (int threads : {1, fresh_threads}) {
    const char* engine = threads == 1 ? "serial" : "pooled";
    rows.push_back(timed("freq_pushsum", engine, n_fresh, threads,
                         fresh_rounds, 2, [&](Row& row) {
      const std::vector<std::int64_t> inputs = frequency_inputs(n_fresh);
      Executor<FrequencyPushSumAgent> exec(
          std::make_shared<RandomStronglyConnectedSchedule>(n_fresh, 3,
                                                            fresh_seed),
          std::vector<FrequencyPushSumAgent>(inputs.begin(), inputs.end()),
          CommModel::kOutdegreeAware, fresh_seed, threads);
      exec.set_channel_policy(wire::ChannelPolicy::metered());
      exec.run(fresh_rounds);
      record(row, exec.stats());
      double sum = 0.0;
      for (const auto& a : exec.agents()) {
        sum += frequency_checksum(a.normalized_estimates());
      }
      return sum;
    }));
    print_row(rows.back());
  }
  for (int threads : {1, fresh_threads}) {
    const char* engine = threads == 1 ? "serial" : "pooled";
    rows.push_back(timed("freq_metropolis", engine, n_fresh, threads,
                         fresh_rounds, 2, [&](Row& row) {
      const std::vector<std::int64_t> inputs = frequency_inputs(n_fresh);
      Executor<FrequencyMetropolisAgent> exec(
          std::make_shared<RandomSymmetricSchedule>(n_fresh, 3,
                                                    fresh_seed + 1),
          std::vector<FrequencyMetropolisAgent>(inputs.begin(), inputs.end()),
          CommModel::kOutdegreeAware, fresh_seed, threads);
      exec.run(fresh_rounds);
      record(row, exec.stats());
      double sum = 0.0;
      for (const auto& a : exec.agents()) {
        sum += frequency_checksum(a.estimates());
      }
      return sum;
    }));
    print_row(rows.back());
  }

  FILE* out = std::fopen("BENCH_executor.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_executor.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"hardware_threads\": %d,\n  \"results\": [\n",
               ThreadPool::hardware_threads());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"engine\": \"%s\", \"n\": %d, "
                 "\"threads\": %d, \"rounds\": %d, "
                 "\"seconds\": %.6f, \"rounds_per_sec\": %.2f, "
                 "\"messages_per_sec\": %.2f, \"validate_s\": %.6f, "
                 "\"send_s\": %.6f, \"deliver_s\": %.6f, "
                 "\"lookahead_s\": %.6f, \"ns_per_msg\": %.2f, "
                 "\"checksum\": %.6f}%s\n",
                 row.workload.c_str(), row.engine.c_str(), row.n, row.threads,
                 row.rounds, row.seconds,
                 row.rounds / row.seconds,
                 static_cast<double>(row.messages) / row.seconds,
                 row.phases.validate_seconds, row.phases.send_seconds,
                 row.phases.deliver_seconds, row.phases.lookahead_seconds,
                 ns_per_message(row), row.checksum,
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_executor.json (%zu rows)\n", rows.size());
  return 0;
}
