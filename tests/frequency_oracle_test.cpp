// Differential oracle for the two frequency engines (core/pushsum.hpp,
// core/metropolis.hpp). Each agent keeps its per-value state as one sorted
// list of entries and merges its inbox into a stack-local list. The
// reference agents below are the structure-of-arrays implementation that
// layout replaced: three parallel vectors per state and per message, a
// receive that concatenates, sorts and deduplicates the key union, and
// persistent receive buffers. Their Message and receive bodies are kept
// verbatim. Both sides run on the same schedule, shuffle seed and
// perturbations, and after every round every agent must hold the same keys
// and bit-identical weights and estimates.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/metropolis.hpp"
#include "core/pushsum.hpp"
#include "dynamics/perturbation.hpp"
#include "dynamics/schedules.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

class ReferencePushSumAgent {
 public:
  struct Message {
    std::vector<std::int64_t> keys;
    std::vector<double> ys;
    std::vector<double> zs;
    int outdegree = 1;
  };

  static constexpr bool kParallelSafe = true;
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kNeedsOutdegree;

  explicit ReferencePushSumAgent(std::int64_t input,
                                 std::optional<bool> is_leader = std::nullopt)
      : input_(input),
        z_default_(is_leader.has_value() && !*is_leader ? 0.0 : 1.0) {
    keys_.push_back(input_);
    ys_.push_back(1.0);
    zs_.push_back(z_default_);
  }

  [[nodiscard]] Message send(int outdegree, int /*port*/) const {
    return Message{keys_, ys_, zs_, outdegree};
  }

  void receive(Inbox<Message> messages) {
    merged_.clear();
    bool uniform = !messages.empty();
    for (const Message& m : messages) {
      if (m.keys != messages.front().keys) {
        uniform = false;
        break;
      }
    }
    if (uniform) {
      merged_ = messages.front().keys;
    } else {
      for (const Message& m : messages) {
        merged_.insert(merged_.end(), m.keys.begin(), m.keys.end());
      }
      std::sort(merged_.begin(), merged_.end());
      merged_.erase(std::unique(merged_.begin(), merged_.end()),
                    merged_.end());
    }

    acc_y_.assign(merged_.size(), 0.0);
    acc_z_.assign(merged_.size(), 0.0);
    for (const Message& m : messages) {
      const double d = static_cast<double>(m.outdegree);
      if (m.keys.size() == merged_.size()) {
        for (std::size_t i = 0; i < m.keys.size(); ++i) {
          acc_y_[i] += m.ys[i] / d;
          acc_z_[i] += m.zs[i] / d;
        }
      } else {
        std::size_t j = 0;
        for (std::size_t i = 0; i < m.keys.size(); ++i) {
          while (merged_[j] < m.keys[i]) ++j;
          acc_y_[j] += m.ys[i] / d;
          acc_z_[j] += m.zs[i] / d;
        }
      }
    }
    std::size_t i = 0;
    for (std::size_t j = 0; j < merged_.size(); ++j) {
      while (i < keys_.size() && keys_[i] < merged_[j]) ++i;
      if (i >= keys_.size() || keys_[i] != merged_[j]) acc_z_[j] += z_default_;
    }
    keys_.swap(merged_);
    ys_.swap(acc_y_);
    zs_.swap(acc_z_);
  }

 private:
  std::int64_t input_;
  double z_default_;
  std::vector<std::int64_t> keys_;
  std::vector<double> ys_;
  std::vector<double> zs_;
  std::vector<std::int64_t> merged_;
  std::vector<double> acc_y_;
  std::vector<double> acc_z_;
};

class ReferenceMetropolisAgent {
 public:
  struct Message {
    std::vector<std::int64_t> keys;
    std::vector<double> xs;
    int degree = 1;
  };

  static constexpr bool kParallelSafe = true;
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kNeedsOutdegree | ModelCapabilities::kSymmetricOnly;

  explicit ReferenceMetropolisAgent(std::int64_t input) : input_(input) {
    keys_.push_back(input_);
    xs_.push_back(1.0);
  }

  [[nodiscard]] Message send(int outdegree, int /*port*/) const {
    degree_ = outdegree;
    return Message{keys_, xs_, outdegree};
  }

  void receive(Inbox<Message> messages) {
    merged_.clear();
    bool uniform = true;
    for (const Message& m : messages) {
      if (m.keys != keys_) {
        uniform = false;
        break;
      }
    }
    if (uniform) {
      merged_ = keys_;
    } else {
      merged_ = keys_;
      for (const Message& m : messages) {
        merged_.insert(merged_.end(), m.keys.begin(), m.keys.end());
      }
      std::sort(merged_.begin(), merged_.end());
      merged_.erase(std::unique(merged_.begin(), merged_.end()),
                    merged_.end());
    }

    if (merged_.size() == keys_.size()) {
      before_ = xs_;
    } else {
      before_.assign(merged_.size(), 0.0);
      std::size_t j = 0;
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        while (merged_[j] < keys_[i]) ++j;
        before_[j] = xs_[i];
      }
    }

    delta_.assign(merged_.size(), 0.0);
    for (const Message& m : messages) {
      const double w =
          1.0 / static_cast<double>(std::max(degree_, m.degree));
      if (m.keys.size() == merged_.size()) {
        for (std::size_t j = 0; j < merged_.size(); ++j) {
          delta_[j] += w * (m.xs[j] - before_[j]);
        }
      } else {
        std::size_t i = 0;
        for (std::size_t j = 0; j < merged_.size(); ++j) {
          double x_sender = 0.0;
          if (i < m.keys.size() && m.keys[i] == merged_[j]) {
            x_sender = m.xs[i];
            ++i;
          }
          delta_[j] += w * (x_sender - before_[j]);
        }
      }
    }
    for (std::size_t j = 0; j < merged_.size(); ++j) before_[j] += delta_[j];
    keys_.swap(merged_);
    xs_.swap(before_);
  }

 private:
  std::int64_t input_;
  std::vector<std::int64_t> keys_;
  std::vector<double> xs_;
  std::vector<std::int64_t> merged_;
  std::vector<double> before_;
  std::vector<double> delta_;
  mutable int degree_ = 1;
};

constexpr Vertex kN = 2000;
constexpr int kRounds = 30;
constexpr std::uint64_t kShuffleSeed = 0x0ac1e;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Inputs with exactly `distinct` values, spread over negative and positive
// keys: inline (3, 10), at the inline capacity (16), one past it (17) and
// well past it (40).
std::vector<std::int64_t> inputs_with(int distinct) {
  std::vector<std::int64_t> inputs;
  for (Vertex v = 0; v < kN; ++v) {
    inputs.push_back(static_cast<std::int64_t>((v * 7) % distinct) * 37 - 500);
  }
  return inputs;
}

struct Perturbation {
  const char* name;
  StartSchedule starts;
  FaultPlan faults;
};

// No perturbation, and async starts + crashes + drops together. Push-Sum
// leaks mass under the second; both sides must leak identically.
std::vector<Perturbation> perturbations() {
  Perturbation mixed{"async+crash+drop", {}, FaultPlan::drop(0.1, 17)};
  mixed.starts.wake_rounds.resize(kN);
  mixed.faults.crash_rounds.resize(kN);
  for (Vertex v = 0; v < kN; ++v) {
    const auto i = static_cast<std::size_t>(v);
    mixed.starts.wake_rounds[i] = 1 + (v % 7) * 2;
    mixed.faults.crash_rounds[i] = v % 97 == 5 ? 8 + v % 13 : 0;
  }
  return {{"none", {}, {}}, mixed};
}

// The first difference between an agent's entries and its reference's
// parallel vectors, or "" when keys and every value agree bit for bit.
std::string first_difference(const FrequencyPushSumAgent& agent,
                             const ReferencePushSumAgent& reference) {
  const auto got = agent.send(1, 0).entries;
  const auto want = reference.send(1, 0);
  std::ostringstream out;
  out << std::setprecision(17);
  if (got.size() != want.keys.size()) {
    out << got.size() << " entries, reference " << want.keys.size();
    return out.str();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != want.keys[i] || bits(got[i].y) != bits(want.ys[i]) ||
        bits(got[i].z) != bits(want.zs[i])) {
      out << "entry " << i << ": (" << got[i].key << ", " << got[i].y << ", "
          << got[i].z << ") vs (" << want.keys[i] << ", " << want.ys[i]
          << ", " << want.zs[i] << ")";
      return out.str();
    }
  }
  return "";
}

std::string first_difference(const FrequencyMetropolisAgent& agent,
                             const ReferenceMetropolisAgent& reference) {
  const auto got = agent.send(1, 0).entries;
  const auto want = reference.send(1, 0);
  std::ostringstream out;
  out << std::setprecision(17);
  if (got.size() != want.keys.size()) {
    out << got.size() << " entries, reference " << want.keys.size();
    return out.str();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != want.keys[i] || bits(got[i].x) != bits(want.xs[i])) {
      out << "entry " << i << ": (" << got[i].key << ", " << got[i].x
          << ") vs (" << want.keys[i] << ", " << want.xs[i] << ")";
      return out.str();
    }
  }
  return "";
}

// Steps an engine and its reference in lockstep and compares every agent
// after every round; returns the first difference with its coordinates.
template <typename Agent, typename Reference>
std::string run_lockstep(const DynamicGraphPtr& net, CommModel model,
                         std::vector<Agent> agents,
                         std::vector<Reference> references,
                         const Perturbation& perturbation, int threads) {
  Executor<Agent> exec(net, std::move(agents), model, kShuffleSeed, threads);
  Executor<Reference> ref(net, std::move(references), model, kShuffleSeed,
                          threads);
  exec.set_start_schedule(perturbation.starts);
  ref.set_start_schedule(perturbation.starts);
  exec.set_fault_plan(perturbation.faults);
  ref.set_fault_plan(perturbation.faults);
  for (int round = 1; round <= kRounds; ++round) {
    exec.step();
    ref.step();
    for (Vertex v = 0; v < kN; ++v) {
      const std::string diff = first_difference(exec.agent(v), ref.agent(v));
      if (!diff.empty()) {
        return "round " + std::to_string(round) + " agent " +
               std::to_string(v) + ": " + diff;
      }
    }
  }
  return "";
}

TEST(FrequencyEngineDeterminism, PushSumMatchesTheVectorReference) {
  auto net = std::make_shared<RandomStronglyConnectedSchedule>(kN, 2 * kN, 31);
  for (const int distinct : {3, 10, 16, 17, 40}) {
    const std::vector<std::int64_t> inputs = inputs_with(distinct);
    for (const bool leaders : {false, true}) {
      std::vector<FrequencyPushSumAgent> agents;
      std::vector<ReferencePushSumAgent> references;
      for (Vertex v = 0; v < kN; ++v) {
        const std::int64_t input = inputs[static_cast<std::size_t>(v)];
        const std::optional<bool> leader =
            leaders ? std::optional<bool>(v % 101 == 3) : std::nullopt;
        agents.emplace_back(input, leader);
        references.emplace_back(input, leader);
      }
      for (const Perturbation& p : perturbations()) {
        for (const int threads : {1, 4}) {
          EXPECT_EQ(run_lockstep(net, CommModel::kOutdegreeAware, agents,
                                 references, p, threads),
                    "")
              << distinct << " values, leaders=" << leaders << ", "
              << p.name << ", threads=" << threads;
        }
      }
    }
  }
}

TEST(FrequencyEngineDeterminism, MetropolisMatchesTheVectorReference) {
  auto net = std::make_shared<RandomSymmetricSchedule>(kN, kN, 37);
  for (const int distinct : {3, 10, 16, 17, 40}) {
    std::vector<FrequencyMetropolisAgent> agents;
    std::vector<ReferenceMetropolisAgent> references;
    for (const std::int64_t input : inputs_with(distinct)) {
      agents.emplace_back(input);
      references.emplace_back(input);
    }
    for (const Perturbation& p : perturbations()) {
      for (const int threads : {1, 4}) {
        EXPECT_EQ(run_lockstep(net, CommModel::kOutdegreeAware, agents,
                               references, p, threads),
                  "")
            << distinct << " values, " << p.name << ", threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace anonet
