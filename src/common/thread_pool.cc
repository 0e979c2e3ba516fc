#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/check.h"

namespace umgad {

/// Shared state of one ParallelFor call. Workers claim chunks from `next`
/// until the range is exhausted; the caller participates too, withdraws the
/// helper entries still queued, then waits for `active` to reach zero.
struct ThreadPool::Work {
  std::function<void(int64_t, int64_t)> body;
  int64_t end = 0;
  int64_t chunk = 1;
  std::atomic<int64_t> next{0};

  std::mutex mutex;
  std::condition_variable done_cv;
  int active = 0;  // helper entries queued or running (caller excluded)
  std::exception_ptr error;  // first exception thrown by any chunk
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  UMGAD_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(Work* work) {
  for (;;) {
    const int64_t begin = work->next.fetch_add(work->chunk,
                                               std::memory_order_relaxed);
    if (begin >= work->end) return;
    const int64_t end = std::min(begin + work->chunk, work->end);
    try {
      work->body(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(work->mutex);
      if (!work->error) work->error = std::current_exception();
      // Claim the rest of the range so other threads stop early.
      work->next.store(work->end, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Work> work;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      work = queue_.front();
      queue_.pop_front();
    }
    RunChunks(work.get());
    {
      std::lock_guard<std::mutex> lock(work->mutex);
      --work->active;
      if (work->active == 0) work->done_cv.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const int64_t n = end - begin;

  if (n <= grain || num_threads_ == 1) {
    body(begin, end);
    return;
  }

  auto work = std::make_shared<Work>();
  // Oversubscribe chunks 4x over lanes so dynamic claiming absorbs uneven
  // per-index cost (e.g. skewed SpMM rows) without a scheduler.
  const int64_t target_chunks =
      std::min<int64_t>(n, static_cast<int64_t>(num_threads_) * 4);
  work->chunk = std::max(grain, (n + target_chunks - 1) / target_chunks);
  work->end = n;
  work->body = [&body, begin](int64_t s, int64_t e) {
    body(begin + s, begin + e);
  };

  const int64_t num_chunks = (n + work->chunk - 1) / work->chunk;
  const int helpers = static_cast<int>(
      std::min<int64_t>(num_chunks - 1,
                        static_cast<int64_t>(workers_.size())));
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      work->active = helpers;
      for (int i = 0; i < helpers; ++i) queue_.push_back(work);
    }
    queue_cv_.notify_all();
  }

  RunChunks(work.get());

  if (helpers > 0) {
    // The range is fully claimed, so a helper that has not started yet has
    // nothing left to do. Withdraw those entries: every other lane may be
    // busy in an outer fan-out, or blocked on a call enclosing this one, so
    // nothing guarantees they are ever drained.
    int withdrawn = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      const auto kept = std::remove(queue_.begin(), queue_.end(), work);
      withdrawn = static_cast<int>(queue_.end() - kept);
      queue_.erase(kept, queue_.end());
    }
    std::unique_lock<std::mutex> lock(work->mutex);
    work->active -= withdrawn;
    work->done_cv.wait(lock, [&work] { return work->active == 0; });
  }
  if (work->error) std::rethrow_exception(work->error);
}

int ParseThreadCount(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  char* parse_end = nullptr;
  const long parsed = std::strtol(value, &parse_end, 10);
  if (parse_end == value || *parse_end != '\0') return 0;
  if (parsed <= 0 || parsed > 256) return 0;
  return static_cast<int>(parsed);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mutex

int DefaultThreadCount() {
  const int from_env = ParseThreadCount(std::getenv("UMGAD_THREADS"));
  if (from_env > 0) return from_env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *g_pool;
}

int NumThreads() { return GlobalThreadPool().num_threads(); }

void SetNumThreads(int n) {
  n = std::max(1, std::min(n, 256));
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool && g_pool->num_threads() == n) return;
  g_pool.reset();  // join the old workers before spawning the new pool
  g_pool = std::make_unique<ThreadPool>(n);
}

}  // namespace umgad
