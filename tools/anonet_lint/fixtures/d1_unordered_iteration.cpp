// Negative fixture — anonet_lint MUST flag this file under rule D1.
//
// The agent accumulates counts in an unordered_map and walks it when
// building its outgoing message: bucket order is implementation-defined, so
// the message payload (and everything downstream of it) varies across
// standard libraries and hash seeds even though the multiset of entries is
// identical. The library's ordered-map house style exists to rule this out.

#include <cstdint>
#include <unordered_map>
#include <vector>
#include "runtime/inbox.hpp"

namespace anonet_fixtures {

class UnorderedCensusAgent {
 public:
  struct Message {
    std::vector<std::int64_t> values;
  };

  explicit UnorderedCensusAgent(std::int64_t input) { counts_[input] = 1; }

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    Message out;
    for (const auto& entry : counts_) {  // D1: unordered iteration
      out.values.push_back(entry.first);
    }
    return out;
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) {
      for (std::int64_t v : m.values) counts_[v] += 1;
    }
  }

 private:
  std::unordered_map<std::int64_t, int> counts_;
};

}  // namespace anonet_fixtures
