#pragma once
// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The tensor library parallelises GEMM and convolution over row blocks; the
// dataset builder parallelises over sequences.  A single process-wide pool
// (global_pool()) is shared so nested parallelism never oversubscribes.
// A served frame never fans out: the serving plane runs each pass under an
// InlineScope, so every kernel of the pass stays on the serving thread.
//
// Sizing and placement.  The default size (n == 0, the global pool) is the
// number of CPUs in the creating thread's affinity mask, so a process
// started under `taskset -c N` gets a one-worker pool that runs inline
// rather than four workers queueing on one core.  A pool of more than one
// worker pins worker i to the i-th CPU of that mask (round-robin when
// there are more workers than CPUs): left to the scheduler, a cold
// process's workers can all land on one CPU and wait there for hundreds
// of milliseconds each (DESIGN.md §2).  A single-worker pool -- a serving
// driver -- keeps the creator's full mask.  Only the pool's own threads
// are touched, nothing machine-wide.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fuse::util {

class ThreadPool {
 public:
  /// Creates a pool with n worker threads.  n == 0 uses one per CPU the
  /// creating thread may run on (hardware_concurrency() when the mask
  /// cannot be read).
  explicit ThreadPool(std::size_t n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Each worker's CPU affinity, read back from the kernel, in worker
  /// order: one CPU per worker for a pinned pool, the creator's whole
  /// allowed set for a single-worker pool.  Empty lists where the mask
  /// cannot be read.
  std::vector<std::vector<int>> worker_cpus() const;

  /// Enqueue a task.  Tasks must not throw.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Run fn(i) for i in [begin, end), split into contiguous chunks across the
  /// pool plus the calling thread.  Blocks until complete.
  ///
  /// Safe to call from inside a pool worker.  A call from one of THIS
  /// pool's own workers runs the body inline instead of enqueueing —
  /// submitting from a worker and then blocking on the chunks would
  /// deadlock once every worker waits on work only queued behind it.  A
  /// call from any other thread — another pool's worker, or a thread
  /// inside an InlineScope — fans out normally (the caller blocks on a
  /// local cv while this pool drains the chunks).  That is how a caller
  /// confines a workload to an explicit worker set: an InlineScope keeps
  /// the free parallel_for on the caller, while a dedicated pool (e.g.
  /// MetaTrainer::set_task_pool) still spreads its tasks.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t min_chunk = 1);

  /// True when the free parallel_for() below serializes inline on the
  /// calling thread: it is a worker of ANY ThreadPool (nested kernel calls
  /// never re-enter the global pool) or it is inside an InlineScope.
  static bool inside_pool_worker();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Marks the calling thread, for the scope's lifetime, the way a pool
/// worker is marked: the free parallel_for() runs its body inline here.
/// Scopes nest; each restores the state it found.  A pool worker is
/// already marked, so a scope there changes nothing.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool prev_;
};

/// Process-wide shared pool.
ThreadPool& global_pool();

/// Convenience: parallel loop over [begin, end) using the global pool.
/// body receives a [lo, hi) chunk.  Falls back to serial execution for tiny
/// ranges, inside a pool worker (avoids deadlock) or an InlineScope.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_chunk = 1);

}  // namespace fuse::util
