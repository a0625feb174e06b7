// MUST NOT COMPILE — covered by CTest as
// compile_fail.outdegree_agent_under_simple_broadcast, which passes only if the build
// fails with the static_assert message described below.
//
// Push-Sum's 1/d mass split declares ModelCapabilities::kNeedsOutdegree, and
// simple broadcast is exactly the model that hides the outdegree (Table 1:
// only set-based functions are computable there). Selecting the pairing
// through the compile-time ModelTag path must trip the explanatory
// static_assert in Executor's ModelTag constructor.

#include <memory>
#include <vector>

#include "core/pushsum.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

int main() {
  using namespace anonet;
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  std::vector<PushSumAgent> agents(4, PushSumAgent(1.0, 1.0));
  Executor<PushSumAgent> exec(net, std::move(agents),
                              under<CommModel::kSimpleBroadcast>);
  exec.step();
  return 0;
}
