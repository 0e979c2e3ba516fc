#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace umgad {
namespace {

constexpr auto kLatchTimeout = std::chrono::seconds(5);

/// Opens once `needed` distinct threads have arrived. A test whose bodies
/// wait on it can only finish early if that many lanes run them at once.
class ThreadLatch {
 public:
  explicit ThreadLatch(size_t needed) : needed_(needed) {}

  /// Registers the calling thread, then waits for the latch to open or the
  /// timeout to pass. Returns whether the latch opened.
  bool ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ids_.insert(std::this_thread::get_id());
    cv_.notify_all();
    return cv_.wait_for(lock, kLatchTimeout,
                        [this] { return ids_.size() >= needed_; });
  }

 private:
  const size_t needed_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::set<std::thread::id> ids_;
};

TEST(ThreadPoolTest, ConstructAndDestructRepeatedly) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
  }
  // A pool of one lane spawns no workers and must still work.
  ThreadPool solo(1);
  int calls = 0;
  solo.ParallelFor(0, 5, 1, [&](int64_t b, int64_t e) {
    calls += static_cast<int>(e - b);
  });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, n, 16, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHonorsNonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, 200, 7, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  // sum of [100, 200)
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(ThreadPoolTest, ZeroAndOneItemRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);  // empty range: body never runs
  pool.ParallelFor(7, 8, 1, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(b, 7);
    EXPECT_EQ(e, 8);
  });
  EXPECT_EQ(calls, 1);  // single item: one inline call
}

TEST(ThreadPoolTest, RangeSmallerThanGrainRunsInline) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 100, 1000, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, NestedParallelForReachesOtherLanes) {
  // Each nested call's two chunks wait on a latch that only a second thread
  // can open, so the test passes only if nested calls fan out to idle lanes.
  ThreadPool pool(4);
  const int outer = 2;
  ThreadLatch latches[outer] = {ThreadLatch(2), ThreadLatch(2)};
  std::atomic<int> opened{0};
  pool.ParallelFor(0, outer, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      pool.ParallelFor(0, 2, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          if (latches[o].ArriveAndWait()) opened.fetch_add(1);
        }
      });
    }
  });
  EXPECT_EQ(opened.load(), 2 * outer);
}

constexpr int kStressMid = 6;
constexpr int kStressInner = 200;

/// Three levels of fan-out on the global pool. Every lane runs one outer
/// index and waits until all lanes hold one, so every lane issues its nested
/// calls while the others are busy. Counts each innermost index in `hits`;
/// the body at flat index `throw_at` throws instead.
void NestedRound(std::vector<std::atomic<int>>* hits, int64_t throw_at) {
  const int lanes = NumThreads();
  ThreadLatch all_lanes(static_cast<size_t>(lanes));
  ParallelFor(lanes, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      EXPECT_TRUE(all_lanes.ArriveAndWait());
      ParallelFor(kStressMid, 1, [&](int64_t mb, int64_t me) {
        for (int64_t m = mb; m < me; ++m) {
          ParallelFor(kStressInner, 8, [&](int64_t ib, int64_t ie) {
            for (int64_t i = ib; i < ie; ++i) {
              const int64_t flat = (o * kStressMid + m) * kStressInner + i;
              if (flat == throw_at) throw std::runtime_error("nested");
              (*hits)[flat].fetch_add(1);
            }
          });
        }
      });
    }
  });
}

TEST(ThreadPoolTest, NestedStress) {
  const int prev_threads = NumThreads();
  for (int lanes : {1, 4, 3}) {
    SetNumThreads(lanes);
    const int64_t total = int64_t{lanes} * kStressMid * kStressInner;
    // A body two levels down throws; the outermost caller sees it, and the
    // rounds after it find the pool intact.
    {
      std::vector<std::atomic<int>> hits(total);
      EXPECT_THROW(NestedRound(&hits, total / 2 + 1), std::runtime_error);
    }
    for (int round = 0; round < 10; ++round) {
      std::vector<std::atomic<int>> hits(total);
      for (auto& h : hits) h.store(0);
      NestedRound(&hits, /*throw_at=*/-1);
      for (int64_t i = 0; i < total; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "lanes " << lanes << " index " << i;
      }
    }
  }
  SetNumThreads(prev_threads);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  auto throwing = [&] {
    pool.ParallelFor(0, 1000, 1, [&](int64_t b, int64_t) {
      if (b >= 500) throw std::runtime_error("boom");
    });
  };
  EXPECT_THROW(throwing(), std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int64_t> count{0};
  pool.ParallelFor(0, 256, 1, [&](int64_t b, int64_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 256);
}

TEST(ThreadPoolTest, ExceptionOnInlinePathPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.ParallelFor(0, 10, 1,
                       [](int64_t, int64_t) {
                         throw std::invalid_argument("inline");
                       }),
      std::invalid_argument);
}

TEST(ThreadPoolTest, ParseThreadCount) {
  EXPECT_EQ(ParseThreadCount(nullptr), 0);
  EXPECT_EQ(ParseThreadCount(""), 0);
  EXPECT_EQ(ParseThreadCount("4"), 4);
  EXPECT_EQ(ParseThreadCount("1"), 1);
  EXPECT_EQ(ParseThreadCount("0"), 0);     // "auto"
  EXPECT_EQ(ParseThreadCount("-3"), 0);    // invalid -> auto
  EXPECT_EQ(ParseThreadCount("abc"), 0);   // invalid -> auto
  EXPECT_EQ(ParseThreadCount("4x"), 0);    // trailing junk -> auto
  EXPECT_EQ(ParseThreadCount("1000"), 0);  // out of range -> auto
}

TEST(ThreadPoolTest, SetNumThreadsRebuildsGlobalPool) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  std::atomic<int64_t> sum{0};
  ParallelFor(10000, 8, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), int64_t{9999} * 10000 / 2);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
}

TEST(ThreadPoolTest, FreeParallelForMatchesSerialSum) {
  SetNumThreads(4);
  const int n = 4096;
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 0.0);
  std::vector<double> doubled(n, 0.0);
  ParallelFor(n, 64, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) doubled[i] = 2.0 * values[i];
  });
  for (int i = 0; i < n; ++i) ASSERT_EQ(doubled[i], 2.0 * i);
  SetNumThreads(1);
}

}  // namespace
}  // namespace umgad
