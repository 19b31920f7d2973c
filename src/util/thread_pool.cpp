#include "util/thread_pool.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <string>

#include "util/log.h"

namespace fuse::util {

namespace {
thread_local bool t_inside_pool_worker = false;
thread_local const void* t_worker_pool = nullptr;  // owning pool, if worker

std::vector<int> cpus_of(const cpu_set_t& set) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// The CPUs the calling thread may run on, ascending; empty when the mask
/// cannot be read.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  return cpus_of(set);
}

/// Restricts t to one CPU.  On failure t keeps the mask it inherited.
void pin(std::thread& t, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string s = "{";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(cpus[i]);
  }
  return s += '}';
}
}  // namespace

ThreadPool::ThreadPool(std::size_t n) {
  const std::vector<int> allowed = allowed_cpus();
  if (n == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    n = !allowed.empty() ? allowed.size() : std::max(hc, 1u);
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
    if (n > 1 && !allowed.empty())
      pin(workers_.back(), allowed[i % allowed.size()]);
  }
  if (log_level() <= LogLevel::kDebug) {
    std::string placement;
    for (const auto& cpus : worker_cpus()) {
      placement += ' ';
      placement += cpu_list(cpus);
    }
    FUSE_LOG_DEBUG("thread pool: %zu workers, allowed CPUs %s, worker CPUs%s",
                   n, cpu_list(allowed).c_str(), placement.c_str());
  }
}

std::vector<std::vector<int>> ThreadPool::worker_cpus() const {
  std::vector<std::vector<int>> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    cpu_set_t set;
    CPU_ZERO(&set);
    auto& t = const_cast<std::thread&>(w);  // native_handle() is non-const
    const bool ok =
        pthread_getaffinity_np(t.native_handle(), sizeof(set), &set) == 0;
    out.push_back(ok ? cpus_of(set) : std::vector<int>{});
  }
  return out;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

bool ThreadPool::inside_pool_worker() { return t_inside_pool_worker; }

InlineScope::InlineScope() : prev_(t_inside_pool_worker) {
  t_inside_pool_worker = true;
}

InlineScope::~InlineScope() { t_inside_pool_worker = prev_; }

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_chunk) {
  if (begin >= end) return;
  // Nested use from inside one of THIS pool's own workers: run inline.
  // Submitting chunks and blocking here would deadlock a pool whose
  // workers are all inside parallel_for (each waits for chunks that only
  // it could pop).  Calls from any other thread DO fan out, an
  // InlineScope caller included — that is how bench/train_throughput
  // confines a workload to an explicit task pool — the caller blocks on a
  // local cv while this pool's workers drain the chunks, which cannot
  // cycle back here.
  if (t_worker_pool == this) {
    body(begin, end);
    return;
  }
  // A single-worker pool cannot overlap anything with the caller: chunking
  // would only add queue/wake handoffs (hundreds of microseconds each on a
  // busy one-core host), so run the body inline.
  if (size() <= 1) {
    body(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t max_chunks = size() * 4;
  std::size_t chunk = std::max<std::size_t>(min_chunk, (n + max_chunks - 1) / max_chunks);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  if (n_chunks <= 1) {
    body(begin, end);
    return;
  }
  // done is updated and signalled under the mutex: the waiter can only
  // observe completion after the last worker has released the lock, so the
  // stack-allocated mutex/cv cannot be destroyed while a worker still
  // touches them.
  std::size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    submit([&, lo, hi] {
      body(lo, hi);
      {
        std::lock_guard<std::mutex> lock(done_mu);
        if (++done == n_chunks) done_cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == n_chunks; });
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_chunk) {
  if (begin >= end) return;
  // Nested parallelism from inside a worker would deadlock on wait, and an
  // InlineScope asked for this thread only; serialize.
  if (t_inside_pool_worker || end - begin <= min_chunk) {
    body(begin, end);
    return;
  }
  global_pool().parallel_for(begin, end, body, min_chunk);
}

}  // namespace fuse::util
