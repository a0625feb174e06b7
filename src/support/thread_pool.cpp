#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace anonet {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Spin budgets before falling back to a futex wait. Workers spin a little
// longer than the caller: the gap between a round's send and deliver phases
// is sub-millisecond, and catching the next release in the spin window saves
// two syscalls per worker per phase.
constexpr int kWorkerSpins = 4096;
constexpr int kCallerSpins = 1024;

// Runs parallel_blocks' side task and hands back what it threw, so the
// caller can finish the job before rethrowing it.
std::exception_ptr run_side_task(TaskFn side) {
  if (!side) return nullptr;
  try {
    side();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

struct ThreadPool::Impl {
  // ---- job description --------------------------------------------------
  // Plain fields written by the submitting thread while the cursor shows the
  // idle sentinel (so no worker can be claiming), published by the release
  // store of the tagged cursor, and read by workers only after an acquire
  // CAS claim succeeds. `fn` is non-owning; the caller's callable outlives
  // the job because parallel_blocks cannot return before every claimed block
  // ran. total_blocks is additionally read *before* a claim (the exhaustion
  // check), so it is atomic: a stale worker may read a neighbouring job's
  // value, but its subsequent generation-checked CAS then fails, so the read
  // never turns into a claim.
  std::int64_t count = 0;
  std::int64_t block_size = 1;
  BlockFn fn;
  std::atomic<std::int64_t> total_blocks{0};

  // ---- release / claim / completion protocol ----------------------------
  // epoch: bumped (release) once per job; workers park on it with
  // spin-then-std::atomic::wait. The bump itself carries no job data — the
  // cursor store below does — it only wakes parked workers.
  alignas(64) std::atomic<std::uint64_t> epoch{0};
  // cursor: low 32 bits next unclaimed block, high 32 bits the generation
  // (mod 2^32; equals the epoch). Claiming is an acquire CAS that only
  // succeeds while the claimant's generation is still current, so a worker
  // preempted between waking for job G and claiming its first block can
  // neither steal a block from job G+1 (silently skipping that block) nor
  // invoke a stale or cleared `fn`. Aliasing would need the worker to sleep
  // across exactly 2^32 submissions — not a practical concern. Between jobs
  // the block half holds the kIdle sentinel, which exceeds every legal
  // total_blocks: claims are impossible while the submitter rewrites the
  // job fields above.
  alignas(64) std::atomic<std::uint64_t> cursor{kIdle};
  // done_blocks: each claimant adds the blocks it completed (release) after
  // its drain; the caller acquire-waits for the job total. Exactly-once
  // accounting (abandoned blocks are credited by the cancelling worker)
  // makes the sum reach the total exactly when all work landed.
  alignas(64) std::atomic<std::int64_t> done_blocks{0};

  std::atomic<bool> shutdown{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;  // written under error_mutex, first wins

  std::vector<std::thread> workers;
#ifndef NDEBUG
  std::atomic<bool> active{false};
#endif

  static constexpr std::uint64_t kGenShift = 32;
  static constexpr std::uint64_t kBlockMask = (1ull << kGenShift) - 1;
  static constexpr std::uint64_t kIdle = kBlockMask;  // no job in flight

  static std::uint64_t tag(std::uint64_t generation) {
    return generation << kGenShift;
  }

  void add_done(std::int64_t blocks) {
    const std::int64_t now =
        done_blocks.fetch_add(blocks, std::memory_order_release) + blocks;
    if (now == total_blocks.load(std::memory_order_relaxed)) {
      done_blocks.notify_all();
    }
  }

  // Runs blocks of the generation `gen_tag` until its cursor is exhausted or
  // superseded; returns the number of blocks this thread completed. Job
  // fields are read only after a successful claim (see the field comments).
  std::int64_t drain(std::uint64_t gen_tag) {
    std::int64_t ran = 0;
    std::uint64_t cur = cursor.load(std::memory_order_relaxed);
    for (;;) {
      if ((cur & ~kBlockMask) != gen_tag) return ran;  // job superseded
      const auto b = static_cast<std::int64_t>(cur & kBlockMask);
      if (b >= total_blocks.load(std::memory_order_relaxed)) {
        return ran;  // job exhausted (or idle sentinel)
      }
      if (!cursor.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
        continue;  // cur was reloaded by the failed CAS
      }
      const std::int64_t begin = b * block_size;
      const std::int64_t end = std::min(begin + block_size, count);
      try {
        fn(begin, end, b);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Fail fast: abandon the job's unclaimed blocks by exhausting the
        // cursor, so the pooled path stops as early as the serial one.
        // Blocks already claimed by other workers are in flight and will be
        // counted by their claimants; the abandoned ones are credited here
        // so the caller's completion wait still terminates.
        const std::int64_t total =
            total_blocks.load(std::memory_order_relaxed);
        std::uint64_t cur2 = cursor.load(std::memory_order_relaxed);
        while ((cur2 & ~kBlockMask) == gen_tag &&
               static_cast<std::int64_t>(cur2 & kBlockMask) < total) {
          const std::uint64_t exhausted =
              gen_tag | static_cast<std::uint64_t>(total);
          if (cursor.compare_exchange_weak(cur2, exhausted,
                                           std::memory_order_relaxed)) {
            add_done(total - static_cast<std::int64_t>(cur2 & kBlockMask));
            break;
          }
        }
      }
      ++ran;
      cur = cursor.load(std::memory_order_relaxed);
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t e = epoch.load(std::memory_order_acquire);
      int spins = 0;
      while (e == seen) {
        if (++spins >= kWorkerSpins) {
          epoch.wait(seen, std::memory_order_acquire);
          spins = 0;
        } else {
          cpu_relax();
        }
        e = epoch.load(std::memory_order_acquire);
      }
      // The acquire load that observed the bump also makes the shutdown
      // store (sequenced before the bump) visible.
      if (shutdown.load(std::memory_order_relaxed)) return;
      seen = e;
      const std::int64_t ran = drain(tag(e));
      if (ran > 0) add_done(ran);
    }
  }
};

ThreadPool::ThreadPool(int threads)
    : impl_(new Impl), threads_(threads < 1 ? 1 : threads) {
  impl_->workers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    impl_->workers.emplace_back([impl = impl_] { impl->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  impl_->shutdown.store(true, std::memory_order_relaxed);
  impl_->epoch.fetch_add(1, std::memory_order_release);
  impl_->epoch.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::int64_t ThreadPool::block_count(std::int64_t count,
                                     std::int64_t block_size) {
  if (count <= 0) return 0;
  if (block_size < 1) block_size = 1;
  return (count + block_size - 1) / block_size;
}

void ThreadPool::parallel_blocks(std::int64_t count, std::int64_t block_size,
                                 BlockFn fn, TaskFn side) {
  if (block_size < 1) block_size = 1;
  const std::int64_t blocks = block_count(count, block_size);
  if (blocks >= static_cast<std::int64_t>(Impl::kIdle)) {
    throw std::invalid_argument(
        "ThreadPool::parallel_blocks: job exceeds 2^32 - 2 blocks");
  }

#ifndef NDEBUG
  const bool was_active = impl_->active.exchange(true);
  assert(!was_active && "ThreadPool::parallel_blocks is not reentrant");
  struct ActiveGuard {
    std::atomic<bool>& flag;
    ~ActiveGuard() { flag.store(false); }
  } active_guard{impl_->active};
#endif

  if (threads_ == 1 || blocks <= 1) {
    // Serial fast path: no atomics, block exceptions propagate directly.
    const std::exception_ptr side_error = run_side_task(side);
    for (std::int64_t b = 0; b < blocks; ++b) {
      const std::int64_t begin = b * block_size;
      fn(begin, std::min(begin + block_size, count), b);
    }
    if (side_error) std::rethrow_exception(side_error);
    return;
  }

  // The cursor shows the idle sentinel here (set below before the previous
  // return), so no worker can claim while the fields are rewritten.
  impl_->count = count;
  impl_->block_size = block_size;
  impl_->fn = fn;
  impl_->total_blocks.store(blocks, std::memory_order_relaxed);
  impl_->done_blocks.store(0, std::memory_order_relaxed);
  impl_->first_error = nullptr;

  // Release the job: the cursor store publishes the fields to claimants, the
  // epoch bump wakes parked workers.
  const std::uint64_t gen = impl_->epoch.load(std::memory_order_relaxed) + 1;
  impl_->cursor.store(Impl::tag(gen), std::memory_order_release);
  impl_->epoch.store(gen, std::memory_order_release);
  impl_->epoch.notify_all();

  // The workers claim blocks while the caller runs its side task; the
  // caller then joins the drain for whatever is left.
  const std::exception_ptr side_error = run_side_task(side);
  const std::int64_t ran = impl_->drain(Impl::tag(gen));  // caller joins in
  if (ran > 0) impl_->add_done(ran);

  // Every claimed block is eventually both run and counted by its claimant,
  // so this wait cannot be satisfied before all of the job's work landed —
  // which also keeps the borrowed `fn` alive for every executing block.
  int spins = 0;
  for (;;) {
    const std::int64_t done =
        impl_->done_blocks.load(std::memory_order_acquire);
    if (done == blocks) break;
    if (++spins >= kCallerSpins) {
      impl_->done_blocks.wait(done, std::memory_order_acquire);
      spins = 0;
    } else {
      cpu_relax();
    }
  }

  // Park the generation behind the idle sentinel before anything else: a
  // stale worker that still holds this generation tag then fails the
  // exhaustion check no matter what a later submission writes to the job
  // fields, closing the window in which it could pair the old generation
  // with the next job's total_blocks.
  impl_->cursor.store(Impl::tag(gen) | Impl::kIdle, std::memory_order_relaxed);
  impl_->fn = BlockFn();  // drop the borrowed callable

  // The acquire wait above happens-after every worker's release add, which
  // happens-after its error-slot write: reading without the mutex is safe.
  if (impl_->first_error) {
    std::exception_ptr error = impl_->first_error;
    impl_->first_error = nullptr;
    std::rethrow_exception(error);
  }
  if (side_error) std::rethrow_exception(side_error);
}

}  // namespace anonet
