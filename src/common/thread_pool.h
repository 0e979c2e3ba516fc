#ifndef UMGAD_COMMON_THREAD_POOL_H_
#define UMGAD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace umgad {

/// Fixed-size worker pool behind every `ParallelFor` in the library.
///
/// Design constraints (see docs/PERFORMANCE.md):
///  - **Determinism**: `ParallelFor` only partitions an index range; every
///    index is processed by exactly one thread with the same per-index
///    arithmetic regardless of the thread count or the partition. All
///    callers keep each output element owned by a single index, so results
///    are bit-identical for UMGAD_THREADS=1 and UMGAD_THREADS=N.
///  - **Nested calls fan out too**: a `ParallelFor` issued from inside a
///    chunk (e.g. a matmul inside a view-level fan-out) queues helpers like
///    any other call, so idle lanes join the inner range. The issuing
///    thread runs chunks itself, then withdraws the helper entries no
///    worker has started and waits only for helpers already running. A
///    thread never waits on a queue entry that nobody will drain, so nesting
///    of any depth cannot deadlock, and no thread runs foreign work while
///    it waits.
///  - **Exceptions propagate**: the first exception thrown by a body is
///    captured and rethrown on the calling thread after all chunks finish;
///    the pool stays usable afterwards.
///
/// `num_threads` counts *lanes*, not spawned threads: the calling thread
/// participates in every `ParallelFor`, so a pool of size T spawns T-1
/// workers and a pool of size 1 spawns none (everything runs inline).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs `body(chunk_begin, chunk_end)` over a disjoint partition of
  /// [begin, end). Blocks until every chunk has finished. `grain` is the
  /// minimum chunk size: ranges of at most `grain` items run inline, and no
  /// chunk is smaller than `grain` except the final remainder.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& body);

 private:
  struct Work;

  void WorkerLoop();
  static void RunChunks(Work* work);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Work>> queue_;
  bool stopping_ = false;
};

/// Process-wide pool shared by every kernel. Sized on first use from the
/// `UMGAD_THREADS` environment variable (unset/invalid/0 means "use
/// std::thread::hardware_concurrency()"); resizable at runtime via
/// SetNumThreads.
ThreadPool& GlobalThreadPool();

/// Lane count of the global pool (>= 1).
int NumThreads();

/// Rebuilds the global pool with `n` lanes (clamped to [1, 256]). Intended
/// for tests and benchmarks; do not call concurrently with running kernels.
void SetNumThreads(int n);

/// Parses an `UMGAD_THREADS`-style value: returns the thread count, or 0
/// when the value is unset/invalid/non-positive (meaning "auto"). Exposed
/// for tests.
int ParseThreadCount(const char* value);

/// Default grains shared by the tensor/autograd kernels: elementwise sweeps
/// dispatch in chunks of 32k entries, row-wise ops in chunks of 256 rows.
/// Memory-bound kernels gain nothing from finer grains, and ranges at or
/// below the grain never touch the pool.
inline constexpr int64_t kParallelElemGrain = int64_t{1} << 15;
inline constexpr int64_t kParallelRowGrain = 256;

/// ParallelFor over [0, n) on the global pool. The template avoids the
/// std::function allocation on the (hot) inline path: small ranges and a
/// pool of one lane dispatch `body(0, n)` directly.
template <typename Body>
inline void ParallelFor(int64_t n, int64_t grain, Body&& body) {
  if (n <= 0) return;
  if (n <= grain) {
    body(int64_t{0}, n);
    return;
  }
  ThreadPool& pool = GlobalThreadPool();
  if (pool.num_threads() == 1) {
    body(int64_t{0}, n);
    return;
  }
  pool.ParallelFor(0, n, grain, body);
}

}  // namespace umgad

#endif  // UMGAD_COMMON_THREAD_POOL_H_
