// POSITIVE fixture — anonet_lint must report ZERO findings here.
//
// Every variable this parallel_blocks callback mutates is declared inside
// it, with a builtin type: `const char*`, `short`, `unsigned char`,
// `long long`, `signed`. Each block owns its own copies, so nothing is
// shared. C1 used to recognize only some builtin keywords as local
// declarations (int, bool, long, float, double, unsigned, auto) and
// reported these locals as captured, mutated variables. The self-test
// suite locks this file at zero findings; c1_shared_accumulator.cpp keeps
// the shared accumulator C1 must flag.

#include <cstddef>
#include <functional>
#include <vector>

namespace anonet_fixtures {

struct FakePool {
  void parallel_blocks(std::size_t blocks,
                       const std::function<void(std::size_t)>& fn) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
  }
};

inline void label_blocks(std::vector<int>& out, FakePool& pool) {
  const std::size_t blocks = 4;
  pool.parallel_blocks(blocks, [&](std::size_t b) {
    const char* message = "first";
    short lane = 0;
    unsigned char mark = 1;
    long long count = 0;
    signed step = 1;
    for (std::size_t i = b; i < out.size(); i += blocks) {
      message = "next";
      ++lane;
      mark = static_cast<unsigned char>(mark + 1);
      count += step;
      step = -step;
      out[i] = lane + mark + static_cast<int>(count) + message[0];
    }
  });
}

}  // namespace anonet_fixtures
