// The benchmark's own trace: spans recorded around each public CaRL call
// the benchmark makes. Armed only in the traced run. Spans are kept in
// memory and written at exit as Chrome trace-event JSON (the format
// CARL_TRACE writes; chrome://tracing and ui.perfetto.dev open it).
//
// Each span has a name, start, end, parent (the span open on the same
// thread when it began, or an explicit parent for spans recorded after
// the fact) and a request id shared by the spans of one request.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock, nanoseconds.
uint64_t NowNs();

/// Milliseconds elapsed since `start_ns` (a NowNs() reading).
double MsSince(uint64_t start_ns);

constexpr int64_t kNoParent = -1;

struct Span {
  const char* name = nullptr;  // string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0 while open
  int64_t parent = kNoParent;
  uint64_t request_id = 0;
  int tid = 0;
};

class SpanLog {
 public:
  static SpanLog& Global();

  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

  /// Opens a span on the calling thread under its innermost open span.
  /// Returns its index, or kNoParent when disarmed.
  int64_t Begin(const char* name, uint64_t request_id);
  void End(int64_t index);

  /// Records a finished span with explicit times and parent (for spans
  /// whose ends are seen on different threads). kNoParent when disarmed.
  int64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                 int64_t parent, uint64_t request_id);

  std::vector<Span> Snapshot() const;
  void Clear();

  /// Writes every recorded span as Chrome trace-event JSON.
  bool WriteChromeJson(const std::string& path) const;

 private:
  // Read and written only by the thread that drives the workload: work
  // seen on other threads is recorded after the fact, through Record().
  bool armed_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread; free when the log is disarmed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request_id = 0)
      : index_(SpanLog::Global().armed()
                   ? SpanLog::Global().Begin(name, request_id)
                   : kNoParent) {}
  ~ScopedSpan() {
    if (index_ != kNoParent) SpanLog::Global().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
