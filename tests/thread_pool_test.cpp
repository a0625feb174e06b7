// Tests for the round engine's worker pool: full coverage of the index
// range, deterministic block boundaries, exception propagation, reuse, and
// the caller's side task.

#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace anonet {
namespace {

TEST(ThreadPool, BlockCountMath) {
  EXPECT_EQ(ThreadPool::block_count(0, 8), 0);
  EXPECT_EQ(ThreadPool::block_count(1, 8), 1);
  EXPECT_EQ(ThreadPool::block_count(8, 8), 1);
  EXPECT_EQ(ThreadPool::block_count(9, 8), 2);
  EXPECT_EQ(ThreadPool::block_count(17, 8), 3);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const std::int64_t count = 1003;  // deliberately not a block multiple
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_blocks(count, 64,
                         [&](std::int64_t begin, std::int64_t end,
                             std::int64_t) {
                           for (std::int64_t i = begin; i < end; ++i) {
                             hits[static_cast<std::size_t>(i)].fetch_add(1);
                           }
                         });
    for (std::int64_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, BlockBoundariesAreDeterministic) {
  // Per-block partial sums reduced in block order must be identical no
  // matter how many workers ran the job — the executor's statistics and
  // shuffle reproducibility rest on this.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    const std::int64_t count = 5000;
    const std::int64_t block = 128;
    std::vector<std::int64_t> partial(
        static_cast<std::size_t>(ThreadPool::block_count(count, block)));
    pool.parallel_blocks(count, block,
                         [&](std::int64_t begin, std::int64_t end,
                             std::int64_t b) {
                           std::int64_t sum = 0;
                           for (std::int64_t i = begin; i < end; ++i) {
                             sum += i * i;
                           }
                           partial[static_cast<std::size_t>(b)] = sum;
                         });
    return partial;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::int64_t> total{0};
    pool.parallel_blocks(100, 7,
                         [&](std::int64_t begin, std::int64_t end,
                             std::int64_t) {
                           for (std::int64_t i = begin; i < end; ++i) {
                             total.fetch_add(i);
                           }
                         });
    EXPECT_EQ(total.load(), 99 * 100 / 2);
  }
}

TEST(ThreadPool, BackToBackJobsNeverLoseOrLeakBlocks) {
  // Regression for a stale-worker race: a worker that woke for job G but
  // was preempted before claiming its first block must not consume blocks
  // (or invoke the callable) of job G+1. Tiny jobs submitted back-to-back
  // maximize the window in which workers from the previous generation are
  // still in flight; every index must be hit exactly once per job.
  ThreadPool pool(4);
  for (int job = 0; job < 2000; ++job) {
    const std::int64_t count = 2 + (job % 7) * 3;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
    pool.parallel_blocks(count, 1,
                         [&](std::int64_t begin, std::int64_t end,
                             std::int64_t) {
                           for (std::int64_t i = begin; i < end; ++i) {
                             hits[static_cast<std::size_t>(i)].fetch_add(1);
                           }
                         });
    for (std::int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "job " << job << " index " << i;
    }
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_blocks(100, 10,
                             [&](std::int64_t begin, std::int64_t,
                                 std::int64_t) {
                               if (begin >= 50) {
                                 throw std::runtime_error("boom");
                               }
                             }),
        std::runtime_error);
    // The pool survives a throwing job.
    std::atomic<int> ran{0};
    pool.parallel_blocks(10, 1, [&](std::int64_t, std::int64_t,
                                    std::int64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ThreadPool, FailFastCancelsPendingBlocksOnBothPaths) {
  // Regression: the pooled path used to run every remaining block to
  // completion after the first throw, while the serial path stopped at the
  // throwing block. Both must now fail fast and rethrow the first error.
  // With every block throwing, each participating thread can complete at
  // most one block before the cursor is exhausted by the cancellation.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    const std::int64_t blocks = 10000;
    std::atomic<std::int64_t> executed{0};
    std::string caught;
    try {
      pool.parallel_blocks(blocks, 1,
                           [&](std::int64_t, std::int64_t, std::int64_t) {
                             executed.fetch_add(1);
                             throw std::runtime_error("boom");
                           });
      FAIL() << "parallel_blocks swallowed the exception";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "boom");
    EXPECT_LE(executed.load(), static_cast<std::int64_t>(threads))
        << "fail-fast cancellation left blocks running (threads=" << threads
        << ")";

    // The pool survives a cancelled job: the next job covers every index.
    std::atomic<int> ran{0};
    pool.parallel_blocks(10, 1, [&](std::int64_t, std::int64_t,
                                    std::int64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ThreadPool, SerialPathStopsExactlyAtTheThrowingBlock) {
  ThreadPool pool(1);
  std::vector<std::int64_t> seen;
  EXPECT_THROW(
      pool.parallel_blocks(10, 1,
                           [&](std::int64_t, std::int64_t, std::int64_t b) {
                             seen.push_back(b);
                             if (b == 3) throw std::logic_error("stop");
                           }),
      std::logic_error);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, ZeroCountIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_blocks(0, 16, [&](std::int64_t, std::int64_t, std::int64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SideTaskRunsOnceOnTheCallerWhileWorkersClaimBlocks) {
  // The side task waits until the job's blocks are all done. That can only
  // happen if the caller released the job before running it, and the
  // workers drained the job while it ran: the caller claims no block.
  ThreadPool pool(4);
  const std::int64_t blocks = 64;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(blocks));
  std::atomic<std::int64_t> done{0};
  std::atomic<std::int64_t> caller_blocks{0};
  int side_runs = 0;
  bool side_on_caller = false;
  std::int64_t done_seen_by_side = 0;
  pool.parallel_blocks(
      blocks, 1,
      [&](std::int64_t begin, std::int64_t, std::int64_t) {
        hits[static_cast<std::size_t>(begin)].fetch_add(1);
        if (std::this_thread::get_id() == caller) caller_blocks.fetch_add(1);
        done.fetch_add(1);
      },
      [&] {
        ++side_runs;
        side_on_caller = std::this_thread::get_id() == caller;
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (done.load() < blocks &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        done_seen_by_side = done.load();
      });
  EXPECT_EQ(side_runs, 1);
  EXPECT_TRUE(side_on_caller);
  EXPECT_EQ(done_seen_by_side, blocks);
  EXPECT_EQ(caller_blocks.load(), 0);
  for (std::int64_t b = 0; b < blocks; ++b) {
    EXPECT_EQ(hits[static_cast<std::size_t>(b)].load(), 1) << "block " << b;
  }
}

TEST(ThreadPool, SideTaskExceptionIsRethrownAfterEveryBlock) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const std::int64_t blocks = 200;
    std::atomic<std::int64_t> ran{0};
    std::string caught;
    try {
      pool.parallel_blocks(
          blocks, 1,
          [&](std::int64_t, std::int64_t, std::int64_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            ran.fetch_add(1);
          },
          [] { throw std::runtime_error("side"); });
      ADD_FAILURE() << "parallel_blocks swallowed the side task's exception";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "side");
    // The side task's exception cancels nothing: every block ran before
    // the call returned.
    EXPECT_EQ(ran.load(), blocks);

    // A throwing block wins over the side task, and still fails fast.
    EXPECT_THROW(pool.parallel_blocks(
                     10, 1,
                     [](std::int64_t, std::int64_t, std::int64_t b) {
                       if (b == 5) throw std::logic_error("block");
                     },
                     [] { throw std::runtime_error("side"); }),
                 std::logic_error);

    // The pool survives both.
    std::atomic<int> after{0};
    pool.parallel_blocks(10, 1, [&](std::int64_t, std::int64_t,
                                    std::int64_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 10);
  }
}

TEST(ThreadPool, SerialPathAndEmptyJobsRunTheSideTask) {
  // One thread, one block, or no block at all: the side task still runs
  // exactly once, before the first block.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (const std::int64_t count : {0, 1, 16}) {
      SCOPED_TRACE(count);
      std::vector<std::string> order;
      pool.parallel_blocks(
          count, threads == 1 ? 4 : 16,
          [&](std::int64_t, std::int64_t, std::int64_t b) {
            order.push_back("block " + std::to_string(b));
          },
          [&] { order.push_back("side"); });
      ASSERT_FALSE(order.empty());
      EXPECT_EQ(order.front(), "side");
      EXPECT_EQ(std::count(order.begin(), order.end(), "side"), 1);
      EXPECT_EQ(static_cast<std::int64_t>(order.size()) - 1,
                ThreadPool::block_count(count, threads == 1 ? 4 : 16));
    }
  }
}

}  // namespace
}  // namespace anonet
