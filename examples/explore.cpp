// anonet explorer — run any (network, inputs, model, knowledge, function)
// computability experiment from the command line.
//
// Usage:
//   explore [--graph SPEC] [--dynamic SPEC] [--inputs SPEC] [--model M]
//           [--function F] [--knowledge K] [--rounds R] [--dot]
//
//   --graph     ring:N | dring:N | complete:N | torus:R:C | hypercube:K |
//               sc:N:EXTRA:SEED | sym:N:EXTRA:SEED | file:PATH     (static)
//   --dynamic   sc:N:EXTRA:SEED | sym:N:EXTRA:SEED | token:N |
//               matching:N:SEED                                   (dynamic)
//   --inputs    comma list (1,2,1,2) | random:N:LO:HI:SEED | alt:N:A:B
//   --model     broadcast | outdegree | symmetric | ports
//   --function  min | max | range | support | average | median | variance |
//               modefreq | sum | sumsq | count
//   --knowledge none | bound:N | size | leaders:L   (leaders flag the first
//               L agents; inputs are auto-coded)
//   --rounds    simulation horizon (default 60 static / 400 dynamic)
//   --dot       also print the static graph in Graphviz DOT
//
// Examples:
//   explore --graph ring:6 --inputs 1,5,1,5,1,5 --model outdegree
//           --function average
//   explore --dynamic sc:8:3:7 --inputs random:8:0:3:1 --model outdegree
//           --function sum --knowledge leaders:1

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/census.hpp"
#include "core/computability.hpp"
#include "dynamics/connectivity.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "cli.hpp"

using namespace anonet;

namespace {

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "explore: %s (run with no args for usage)\n",
               message.c_str());
  std::exit(2);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) parts.push_back(part);
  if (parts.empty()) parts.emplace_back();  // "" names no spec, not none
  return parts;
}

// Field i of a colon-separated spec; a missing one is a usage error.
const std::string& field(const std::vector<std::string>& parts,
                         std::size_t i) {
  if (i >= parts.size()) {
    die("'" + parts.front() + "' needs field " + std::to_string(i));
  }
  return parts[i];
}

// The whole field must be one number that T holds (tools/cli.hpp's rule):
// a value outside T is an error, never a narrowed one.
template <typename T>
T as(const std::string& text) {
  T value{};
  if (!tools::parse_number(text.c_str(), value)) {
    die("expected a number that fits, got '" + text + "'");
  }
  return value;
}

std::uint64_t as_seed(const std::string& text) {
  const auto seed = as<std::int64_t>(text);
  if (seed < 0) die("expected a non-negative seed, got '" + text + "'");
  return static_cast<std::uint64_t>(seed);
}

Digraph parse_graph(const std::string& spec) {
  const auto p = split(spec, ':');
  if (p[0] == "ring") return bidirectional_ring(as<Vertex>(field(p, 1)));
  if (p[0] == "dring") return directed_ring(as<Vertex>(field(p, 1)));
  if (p[0] == "complete") return complete_graph(as<Vertex>(field(p, 1)));
  if (p[0] == "torus") {
    return torus(as<Vertex>(field(p, 1)), as<Vertex>(field(p, 2)));
  }
  if (p[0] == "hypercube") return hypercube(as<int>(field(p, 1)));
  if (p[0] == "sc") {
    return random_strongly_connected(as<Vertex>(field(p, 1)),
                                     as<int>(field(p, 2)),
                                     as_seed(field(p, 3)));
  }
  if (p[0] == "sym") {
    return random_symmetric_connected(as<Vertex>(field(p, 1)),
                                      as<int>(field(p, 2)),
                                      as_seed(field(p, 3)));
  }
  if (p[0] == "file") {
    std::ifstream in(field(p, 1));
    if (!in) die("cannot open " + field(p, 1));
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_edge_list(buffer.str());
  }
  die("unknown graph spec '" + spec + "'");
}

DynamicGraphPtr parse_dynamic(const std::string& spec) {
  const auto p = split(spec, ':');
  if (p[0] == "sc") {
    return std::make_shared<RandomStronglyConnectedSchedule>(
        as<Vertex>(field(p, 1)), as<int>(field(p, 2)), as_seed(field(p, 3)));
  }
  if (p[0] == "sym") {
    return std::make_shared<RandomSymmetricSchedule>(
        as<Vertex>(field(p, 1)), as<int>(field(p, 2)), as_seed(field(p, 3)));
  }
  if (p[0] == "token") {
    return std::make_shared<TokenRingSchedule>(as<Vertex>(field(p, 1)));
  }
  if (p[0] == "matching") {
    return std::make_shared<RandomMatchingSchedule>(as<Vertex>(field(p, 1)),
                                                    as_seed(field(p, 2)));
  }
  die("unknown dynamic spec '" + spec + "'");
}

std::vector<std::int64_t> parse_inputs(const std::string& spec, Vertex n) {
  const auto p = split(spec, ':');
  std::vector<std::int64_t> inputs;
  if (p[0] == "random") {
    const auto count = as<Vertex>(field(p, 1));
    const auto lo = as<std::int64_t>(field(p, 2));
    const auto hi = as<std::int64_t>(field(p, 3));
    if (lo > hi) die("random inputs need LO <= HI in '" + spec + "'");
    std::mt19937_64 rng(as_seed(field(p, 4)));
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    for (Vertex i = 0; i < count; ++i) inputs.push_back(dist(rng));
  } else if (p[0] == "alt") {
    const auto count = as<Vertex>(field(p, 1));
    const auto a = as<std::int64_t>(field(p, 2));
    const auto b = as<std::int64_t>(field(p, 3));
    for (Vertex i = 0; i < count; ++i) inputs.push_back(i % 2 == 0 ? a : b);
  } else {
    for (const std::string& value : split(spec, ',')) {
      inputs.push_back(as<std::int64_t>(value));
    }
  }
  if (n > 0 && inputs.size() != static_cast<std::size_t>(n)) {
    die("need exactly " + std::to_string(n) + " inputs, got " +
        std::to_string(inputs.size()));
  }
  return inputs;
}

CommModel parse_model(const std::string& name) {
  if (name == "broadcast") return CommModel::kSimpleBroadcast;
  if (name == "outdegree") return CommModel::kOutdegreeAware;
  if (name == "symmetric") return CommModel::kSymmetricBroadcast;
  if (name == "ports") return CommModel::kOutputPortAware;
  die("unknown model '" + name + "'");
}

SymmetricFunction parse_function(const std::string& name) {
  if (name == "min") return min_function();
  if (name == "max") return max_function();
  if (name == "range") return range_function();
  if (name == "support") return support_size();
  if (name == "average") return average_function();
  if (name == "median") return median_function();
  if (name == "variance") return variance_function();
  if (name == "modefreq") return mode_frequency();
  if (name == "sum") return sum_function();
  if (name == "sumsq") return sum_of_squares();
  if (name == "count") return count_function();
  die("unknown function '" + name + "'");
}

int run(int argc, char** argv) {
  if (argc == 1) {
    std::printf(
        "anonet explorer — see the usage block at the top of "
        "examples/explore.cpp\n"
        "running the default demo: --graph ring:6 --inputs alt:6:1:5 "
        "--model outdegree --function average\n\n");
  }
  std::string graph_spec = "ring:6";
  std::string dynamic_spec;
  std::string input_spec = "alt:6:1:5";
  std::string model_name = "outdegree";
  std::string function_name = "average";
  std::string knowledge_spec = "none";
  int rounds = 0;
  bool want_dot = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--graph") graph_spec = next();
    else if (arg == "--dynamic") dynamic_spec = next();
    else if (arg == "--inputs") input_spec = next();
    else if (arg == "--model") model_name = next();
    else if (arg == "--function") function_name = next();
    else if (arg == "--knowledge") knowledge_spec = next();
    else if (arg == "--rounds") rounds = as<int>(next());
    else if (arg == "--dot") want_dot = true;
    else die("unknown flag '" + arg + "'");
  }

  const bool dynamic = !dynamic_spec.empty();
  Attempt attempt;
  attempt.model = parse_model(model_name);
  attempt.rounds = rounds > 0 ? rounds : (dynamic ? 400 : 60);

  const auto knowledge_parts = split(knowledge_spec, ':');
  if (knowledge_parts[0] == "none") {
    attempt.knowledge = Knowledge::kNone;
  } else if (knowledge_parts[0] == "bound") {
    attempt.knowledge = Knowledge::kUpperBound;
    attempt.parameter = as<std::int64_t>(field(knowledge_parts, 1));
  } else if (knowledge_parts[0] == "size") {
    attempt.knowledge = Knowledge::kExactSize;
  } else if (knowledge_parts[0] == "leaders") {
    attempt.knowledge = Knowledge::kLeaders;
    attempt.parameter = as<std::int64_t>(field(knowledge_parts, 1));
  } else {
    die("unknown knowledge '" + knowledge_spec + "'");
  }

  const SymmetricFunction f = parse_function(function_name);
  AttemptResult result;
  Rational truth;
  if (dynamic) {
    DynamicGraphPtr schedule = parse_dynamic(dynamic_spec);
    std::vector<std::int64_t> inputs =
        parse_inputs(input_spec, schedule->vertex_count());
    if (attempt.knowledge == Knowledge::kExactSize) {
      attempt.parameter = schedule->vertex_count();
    }
    if (attempt.knowledge == Knowledge::kLeaders) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = encode_leader_input(
            inputs[i], static_cast<std::int64_t>(i) < attempt.parameter);
      }
    }
    const int d = dynamic_diameter(*schedule, 10,
                                   4 * schedule->vertex_count() *
                                       schedule->vertex_count());
    std::printf("dynamic network: n = %d, measured dynamic diameter = %d\n",
                schedule->vertex_count(), d);
    truth = ground_truth(inputs, f, attempt.knowledge);
    result = attempt_dynamic(schedule, inputs, f, attempt);
  } else {
    const Digraph g = parse_graph(graph_spec);
    std::vector<std::int64_t> inputs = parse_inputs(input_spec, g.vertex_count());
    if (attempt.knowledge == Knowledge::kExactSize) {
      attempt.parameter = g.vertex_count();
    }
    if (attempt.knowledge == Knowledge::kLeaders) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = encode_leader_input(
            inputs[i], static_cast<std::int64_t>(i) < attempt.parameter);
      }
    }
    std::printf("static network: n = %d, %d edges\n", g.vertex_count(),
                g.edge_count());
    if (want_dot) std::printf("%s", to_dot(g, nullptr, "explored").c_str());
    truth = ground_truth(inputs, f, attempt.knowledge);
    result = attempt_static(g, inputs, f, attempt);
  }

  std::printf("function %s, truth f(v) = %s\n", f.name().c_str(),
              truth.to_string().c_str());
  std::printf("model: %s, knowledge: %s, rounds: %d\n",
              std::string(to_string(attempt.model)).c_str(),
              std::string(to_string(attempt.knowledge)).c_str(),
              attempt.rounds);
  if (result.success && result.stabilization_round > 0) {
    std::printf("RESULT: exact from round %d  [%s]\n",
                result.stabilization_round, result.mechanism.c_str());
  } else if (result.success) {
    std::printf("RESULT: asymptotic, final sup-error %.3g  [%s]\n",
                result.final_error, result.mechanism.c_str());
  } else {
    std::printf("RESULT: not computed — %s\n", result.mechanism.c_str());
  }
  return result.success ? 0 : 1;
}

}  // namespace

// Every rejected input, including help that contradicts the network and a
// round graph the model forbids, ends as a usage error with exit status 2.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    die(e.what());
  }
}
