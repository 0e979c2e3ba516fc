// In-memory span recorder for the benchmark harness.
//
// Spans are recorded from the harness's own code around the calls it makes
// into each library layer; nothing inside the library is instrumented. Each
// thread appends to its own buffer (registered once under a mutex), so the
// hot path takes no lock. Buffers are merged by Collect() after every
// recording thread has finished or been synchronised with (pool workers are
// joined through ParallelFor's completion barrier), and written out once at
// exit. A disabled tracer makes ScopedSpan a no-op, which is how the
// end-to-end runs measure with tracing off.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed span. `name` is a string literal "<layer>.<call>"; the layer
/// is the text before the first '.'. `parent` is 0 for a root span.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int thread = 0;

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer* tracer = new Tracer();  // never destroyed: threads may outlive main
    return *tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread. `parent` < 0 means "the innermost
  /// span open on this thread" (0 when none); pass an id explicitly to
  /// parent a span across threads (a view forward on a pool worker under
  /// the fan-out span of the calling thread).
  int64_t Begin(const char* name, int64_t parent) {
    ThreadBuffer* buf = Local();
    SpanRecord s;
    s.name = name;
    s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    s.parent = parent >= 0 ? parent
                           : (buf->open.empty() ? 0 : buf->spans[buf->open.back()].id);
    s.thread = buf->thread;
    s.start_ns = NowNs();
    buf->open.push_back(buf->spans.size());
    buf->spans.push_back(s);
    return s.id;
  }

  void End() {
    const int64_t now = NowNs();
    ThreadBuffer* buf = Local();
    buf->spans[buf->open.back()].end_ns = now;
    buf->open.pop_back();
  }

  /// Every closed span of every thread, ordered by start time. Call only
  /// when no thread is inside a span.
  std::vector<SpanRecord> Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& buf : buffers_) {
      all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    }
    std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
      return a.start_ns < b.start_ns;
    });
    return all;
  }

 private:
  struct ThreadBuffer {
    int thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  // indices into spans, innermost last
  };

  Tracer() = default;

  ThreadBuffer* Local() {
    thread_local ThreadBuffer* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      buffers_.back()->thread = static_cast<int>(buffers_.size()) - 1;
      local = buffers_.back().get();
    }
    return local;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{1};
  std::mutex mu_;  // guards buffers_ (the list, not each buffer's contents)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t parent = -1)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::Get().End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
inline int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo,
                       int64_t hi) {
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (s > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return covered;
}

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its child spans cover.
inline std::vector<double> SelfSeconds(const std::vector<SpanRecord>& spans) {
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return spans[a].id < spans[b].id; });
  auto index_of = [&](int64_t id) -> int64_t {
    auto it = std::lower_bound(order.begin(), order.end(), id,
                               [&](size_t i, int64_t v) { return spans[i].id < v; });
    return (it != order.end() && spans[*it].id == id) ? static_cast<int64_t>(*it) : -1;
  };
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const int64_t p = s.parent == 0 ? -1 : index_of(s.parent);
    if (p >= 0) children[p].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t covered = UnionNs(children[i], spans[i].start_ns, spans[i].end_ns);
    self[i] = 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

/// Writes spans as JSON lines: {"name", "start_ns", "end_ns", "id",
/// "parent", "thread"} per line, times relative to the first span.
inline bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << (s.start_ns - t0)
        << ",\"end_ns\":" << (s.end_ns - t0) << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
