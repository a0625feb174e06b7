// MUST NOT COMPILE — covered by CTest as
// compile_fail.symmetric_model_agent_under_outdegree_aware, which passes only if the build
// fails with the static_assert message described below.
//
// HistoryFrequencyAgent declares ModelCapabilities::kNeedsSymmetricModel:
// its double-counting argument quantifies over every round the executor
// accepts, so only CommModel::kSymmetricBroadcast — the one model that
// rejects an asymmetric round at delivery time — is admissible. Running it
// under kOutdegreeAware, even on a schedule that happens to be symmetric,
// must trip the static_assert in Executor's ModelTag constructor.

#include <memory>
#include <vector>

#include "core/history_tree.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

int main() {
  using namespace anonet;
  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  std::vector<HistoryFrequencyAgent> agents;
  for (std::int64_t v : {1, 2, 2, 1}) {
    agents.emplace_back(registry, codec, v);
  }
  auto net = std::make_shared<StaticSchedule>(bidirectional_ring(4));
  Executor<HistoryFrequencyAgent> exec(net, std::move(agents),
                                       under<CommModel::kOutdegreeAware>);
  exec.step();
  return 0;
}
