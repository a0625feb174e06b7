#pragma once

// A small persistent worker pool for the round engine.
//
// The executor's send and receive phases are embarrassingly parallel over
// vertices, but rounds are short (microseconds at small n), so spawning
// threads per phase would dominate. Workers are spawned once, in the
// constructor, and parked between jobs: first a bounded spin (a back-to-back
// phase release costs no syscall), then a futex wait via C++20
// std::atomic::wait. A job release is a single epoch-counter publish — no
// mutex or condition variable is taken anywhere on the submit/complete path —
// and workers consume the job's half-open index range in fixed-size blocks
// through a generation-tagged atomic cursor. Block boundaries are
// deterministic (only the block->worker assignment varies), so callers can
// accumulate per-block partial results and reduce them in block order for
// bit-reproducible statistics.
//
// The calling thread participates as a worker, so `ThreadPool(1)` spawns no
// threads at all and parallel_blocks degenerates to a plain loop. Before it
// joins, the caller may run one side task of its own while the workers
// claim blocks (parallel_blocks' `side`).

#include <concepts>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace anonet {

// Non-owning reference to a callable (function_ref style).
// parallel_blocks is fully synchronous — every block and the side task
// complete before it returns — so borrowing the caller's callables is safe,
// and unlike std::function no allocation happens however large the capture
// set is.
template <typename Signature>
class FunctionRef;

template <typename... Args>
class FunctionRef<void(Args...)> {
 public:
  FunctionRef() = default;

  template <typename F>
    requires std::invocable<F&, Args...> &&
             (!std::same_as<std::remove_cvref_t<F>, FunctionRef>)
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): by-design adaptor
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(args...);
        }) {}

  void operator()(Args... args) const { call_(obj_, args...); }

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  void (*call_)(void*, Args...) = nullptr;
};

// A job's block callable, fn(begin, end, block_index).
using BlockFn = FunctionRef<void(std::int64_t, std::int64_t, std::int64_t)>;
// A side task the calling thread runs once per job (see parallel_blocks).
using TaskFn = FunctionRef<void()>;

class ThreadPool {
 public:
  // Total workers including the calling thread; spawns `threads - 1`
  // persistent workers that park until destruction. threads < 1 is clamped
  // to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Worker count for a job: the calling thread plus thread_count() - 1
  // parked workers all claim blocks concurrently.
  [[nodiscard]] int thread_count() const { return threads_; }

  // Hardware concurrency with a sane floor of 1.
  [[nodiscard]] static int hardware_threads();

  // Invokes fn(begin, end, block_index) for consecutive blocks of size
  // `block_size` covering [0, count), on up to thread_count() workers
  // (caller included); the call returns after every started block completed.
  //
  // `block_size` is the work grain: every claim of the job's cursor hands a
  // worker one block of that many indices (the last block may be short).
  // Larger grains amortize claim traffic, smaller grains balance load; the
  // boundaries are a pure function of (count, block_size), never of the
  // worker count, which is what keeps block-order reductions deterministic.
  // The executor uses one fixed grain (Executor::kBlockGrain).
  //
  // `side`, when set, runs exactly once per call on the calling thread,
  // concurrently with the workers: the caller releases the job, runs
  // `side`, and only then joins the drain. The serial path (one thread or
  // one block) and an empty job run it too, before the first block. It
  // changes nothing about the job: block boundaries, claiming and
  // fail-fast are the same with or without it. The round engine uses it to
  // build the next round's graph while this round delivers.
  //
  // Exceptions fail fast on both paths: the serial path stops at the first
  // throwing block, and the pooled path cancels all not-yet-claimed blocks
  // of the job (blocks already in flight on other workers still finish).
  // The first exception thrown by fn is captured and rethrown here. An
  // exception thrown by `side` cancels nothing: it is rethrown only after
  // every claimed block has finished, and only if no block threw.
  //
  // Not reentrant: neither fn nor side may call parallel_blocks on the same
  // pool, from any thread (asserted in debug builds). The job may span at
  // most 2^32 - 2 blocks (the block half of the tagged cursor, minus the
  // idle sentinel); a larger job throws before anything runs.
  void parallel_blocks(std::int64_t count, std::int64_t block_size,
                       BlockFn fn, TaskFn side = {});

  // Number of blocks parallel_blocks will use for the given job; callers
  // size per-block accumulator arrays with this.
  [[nodiscard]] static std::int64_t block_count(std::int64_t count,
                                                std::int64_t block_size);

 private:
  struct Impl;
  Impl* impl_;  // pimpl keeps <atomic>/<thread> out of the public header
  int threads_;
};

}  // namespace anonet
