// Tests for SmallVector (support/small_vector.hpp): inline storage up to N,
// one heap buffer past it, copies and moves that carry only the live
// entries. Then the mechanism it exists for: once every agent knows every
// value, a round of either frequency engine calls operator new zero times.
//
// This binary replaces the global operator new with a counting one, so the
// allocation pin sees every allocation, including the executor's and the
// standard library's.

#include "support/small_vector.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/metropolis.hpp"
#include "core/pushsum.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace {
std::atomic<std::int64_t> allocations{0};
}  // namespace

namespace {
void* counted_malloc(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Both the scalar and the array forms: a sanitizer runtime that replaces
// operator new[] does not forward it to operator new. The replacements
// stay out of line: inlined, GCC sees free() meet a pointer from operator
// new and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  return counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p,
                                         std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace anonet {
namespace {

constexpr std::size_t kN = 4;
using Vec = SmallVector<std::int64_t, kN>;

Vec filled(std::size_t count, std::int64_t first) {
  Vec v;
  for (std::size_t i = 0; i < count; ++i) {
    v.push_back(first + static_cast<std::int64_t>(i));
  }
  return v;
}

std::vector<std::int64_t> contents(const Vec& v) {
  return {v.begin(), v.end()};
}

TEST(SmallVector, PushBackSpillsPastTheInlineCapacity) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), kN);
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(kN); ++i) {
    v.push_back(10 * i);
  }
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.capacity(), kN);
  EXPECT_EQ(contents(v), (std::vector<std::int64_t>{0, 10, 20, 30}));

  const std::int64_t before = allocations.load();
  v.push_back(40);
  EXPECT_EQ(allocations.load(), before + 1);
  EXPECT_TRUE(v.spilled());
  EXPECT_GT(v.capacity(), kN);
  EXPECT_EQ(contents(v), (std::vector<std::int64_t>{0, 10, 20, 30, 40}));
}

TEST(SmallVector, PushBackOfAnOwnEntryAcrossTheSpill) {
  Vec v = filled(kN, 1);
  v.push_back(v[0]);  // the argument is read before the buffer moves
  EXPECT_EQ(contents(v), (std::vector<std::int64_t>{1, 2, 3, 4, 1}));
}

TEST(SmallVector, InsertShiftsTheTailAndSpills) {
  Vec v{2, 6};
  v.insert(v.begin(), 0);
  v.insert(v.begin() + 2, 4);
  v.insert(v.end(), 8);  // the fifth entry spills
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(contents(v), (std::vector<std::int64_t>{0, 2, 4, 6, 8}));
  const auto* it = v.insert(v.begin() + 1, 1);
  EXPECT_EQ(*it, 1);
  EXPECT_EQ(contents(v), (std::vector<std::int64_t>{0, 1, 2, 4, 6, 8}));
}

// Copy and move between every pair of empty, inline and spilled source and
// target: the target ends with the source's entries, a moved-from source
// is empty and usable, and a move from a spilled source steals its buffer.
TEST(SmallVector, CopyAndMoveBetweenEveryStorageState) {
  const std::vector<std::size_t> sizes = {0, 3, kN + 3};  // empty, inline, spilled
  for (const std::size_t source_size : sizes) {
    for (const std::size_t target_size : sizes) {
      SCOPED_TRACE(testing::Message() << "source " << source_size
                                      << ", target " << target_size);
      const Vec source = filled(source_size, 100);
      const std::vector<std::int64_t> want = contents(source);

      Vec copied = filled(target_size, 7);
      copied = source;
      EXPECT_EQ(contents(copied), want);
      EXPECT_EQ(contents(source), want);
      // Copy assignment keeps a target's buffer when the entries fit.
      EXPECT_EQ(copied.spilled(),
                target_size > kN || source_size > kN);

      Vec moved_from = source;
      const std::int64_t* buffer = moved_from.data();
      Vec moved = filled(target_size, 7);
      moved = std::move(moved_from);
      EXPECT_EQ(contents(moved), want);
      EXPECT_TRUE(moved_from.empty());  // NOLINT(bugprone-use-after-move)
      if (source_size > kN) {
        EXPECT_EQ(moved.data(), buffer);
        EXPECT_FALSE(moved_from.spilled());
      }
      moved_from.push_back(5);
      EXPECT_EQ(contents(moved_from), (std::vector<std::int64_t>{5}));

      const Vec copy_constructed(source);
      EXPECT_EQ(contents(copy_constructed), want);
      EXPECT_EQ(copy_constructed.spilled(), source_size > kN);

      Vec steal_from = source;
      const Vec move_constructed(std::move(steal_from));
      EXPECT_EQ(contents(move_constructed), want);
      EXPECT_TRUE(steal_from.empty());  // NOLINT(bugprone-use-after-move)
    }
  }
}

TEST(SmallVector, SelfAssignmentKeepsTheEntries) {
  for (const std::size_t size : {std::size_t{3}, kN + 2}) {
    Vec v = filled(size, 1);
    const std::vector<std::int64_t> want = contents(v);
    Vec& alias = v;
    v = alias;
    EXPECT_EQ(contents(v), want);
    v = std::move(alias);
    EXPECT_EQ(contents(v), want);
  }
}

TEST(SmallVector, ClearAfterASpillThenRefill) {
  Vec v = filled(kN + 1, 0);
  ASSERT_TRUE(v.spilled());
  v.clear();
  EXPECT_TRUE(v.empty());
  const std::int64_t before = allocations.load();
  for (std::int64_t x : {9, 8, 7}) v.push_back(x);  // refills the kept buffer
  EXPECT_EQ(allocations.load(), before);
  EXPECT_EQ(contents(v), (std::vector<std::int64_t>{9, 8, 7}));
  // Its entries compare and copy like any inline vector's.
  const Vec inline_copy(v);
  EXPECT_FALSE(inline_copy.spilled());
  EXPECT_EQ(inline_copy, v);
}

TEST(SmallVector, EqualityComparesTheLiveEntriesOnly) {
  EXPECT_EQ(Vec{}, Vec{});
  EXPECT_EQ((Vec{1, 2, 3}), (Vec{1, 2, 3}));
  EXPECT_NE((Vec{1, 2, 3}), (Vec{1, 2}));
  EXPECT_NE((Vec{1, 2, 3}), (Vec{1, 2, 4}));
  EXPECT_EQ(filled(kN + 2, 5), filled(kN + 2, 5));
  // A spilled vector equals an inline one with the same entries.
  Vec spilled = filled(kN + 2, 0);
  spilled.clear();
  spilled.push_back(1);
  EXPECT_TRUE(spilled.spilled());
  EXPECT_EQ(spilled, Vec{1});
}

// --- the allocation pin -------------------------------------------------

constexpr Vertex kAgents = 300;
constexpr std::int64_t kValues = 10;  // as many as any generated input set

template <typename Agent>
bool every_agent_knows_every_value(const Executor<Agent>& exec) {
  for (const Agent& agent : exec.agents()) {
    if (agent.estimates().size() != static_cast<std::size_t>(kValues)) {
      return false;
    }
  }
  return true;
}

// Steps until dissemination completes, then counts operator new over 20
// more serial rounds on the same static graph.
template <typename Agent>
std::int64_t steady_state_allocations(Executor<Agent>& exec) {
  for (int round = 0; round < 200 && !every_agent_knows_every_value(exec);
       ++round) {
    exec.step();
  }
  EXPECT_TRUE(every_agent_knows_every_value(exec));
  exec.step();  // sizes the executor's buffers, if dissemination did not
  const std::int64_t before = allocations.load();
  for (int round = 0; round < 20; ++round) exec.step();
  return allocations.load() - before;
}

TEST(SmallVectorAllocations, SteadyStatePushSumRoundsAllocateNothing) {
  std::vector<FrequencyPushSumAgent> agents;
  for (Vertex v = 0; v < kAgents; ++v) agents.emplace_back(v % kValues);
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<StaticSchedule>(
          random_strongly_connected(kAgents, 2 * kAgents, 5)),
      std::move(agents), CommModel::kOutdegreeAware);
  EXPECT_EQ(steady_state_allocations(exec), 0);
}

TEST(SmallVectorAllocations, SteadyStateMetropolisRoundsAllocateNothing) {
  std::vector<FrequencyMetropolisAgent> agents;
  for (Vertex v = 0; v < kAgents; ++v) agents.emplace_back(v % kValues);
  Executor<FrequencyMetropolisAgent> exec(
      std::make_shared<StaticSchedule>(
          random_symmetric_connected(kAgents, kAgents, 5)),
      std::move(agents), CommModel::kOutdegreeAware);
  EXPECT_EQ(steady_state_allocations(exec), 0);
}

}  // namespace
}  // namespace anonet
