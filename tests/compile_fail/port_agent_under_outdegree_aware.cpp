// MUST NOT COMPILE — covered by CTest as
// compile_fail.port_agent_under_outdegree_aware, which passes only if the build
// fails with the static_assert message described below.
//
// An agent that addresses recipients through its port parameter declares
// ModelCapabilities::kNeedsOutputPorts; every model except
// kOutputPortAware is isotropic (one message replicated to all
// out-neighbors), so the pairing with kOutdegreeAware must trip the
// static_assert in Executor's ModelTag constructor.

#include <memory>
#include <vector>

#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace {

struct PortSplitterAgent {
  struct Message {
    int token = 0;
  };
  static constexpr anonet::ModelCapabilities kModelCapabilities =
      anonet::ModelCapabilities::kNeedsOutputPorts;

  [[nodiscard]] Message send(int /*outdegree*/, int port) const {
    return Message{port};
  }
  void receive(anonet::Inbox<Message> /*messages*/) {}
};

}  // namespace

int main() {
  using namespace anonet;
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  std::vector<PortSplitterAgent> agents(4);
  Executor<PortSplitterAgent> exec(net, std::move(agents),
                                   under<CommModel::kOutdegreeAware>);
  exec.step();
  return 0;
}
