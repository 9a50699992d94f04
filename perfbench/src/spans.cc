#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

std::atomic<int> g_next_tid{0};

int ThreadId() {
  thread_local int tid = g_next_tid.fetch_add(1);
  return tid;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> tl_open;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

SpanLog& SpanLog::Global() {
  static SpanLog* log = new SpanLog();
  return *log;
}

int64_t SpanLog::Begin(const char* name, uint64_t request_id) {
  if (!armed_) return kNoParent;
  Span span;
  span.name = name;
  span.parent = tl_open.empty() ? kNoParent : tl_open.back();
  span.request_id = request_id;
  span.tid = ThreadId();
  span.start_ns = NowNs();
  int64_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(span);
  }
  tl_open.push_back(index);
  return index;
}

void SpanLog::End(int64_t index) {
  uint64_t end = NowNs();
  if (!tl_open.empty() && tl_open.back() == index) tl_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

int64_t SpanLog::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                        int64_t parent, uint64_t request_id) {
  if (!armed_) return kNoParent;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.parent = parent;
  span.request_id = request_id;
  span.tid = ThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    uint64_t end = s.end_ns == 0 ? s.start_ns : s.end_ns;
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"perfbench\","
                 "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"request_id\":%llu}}",
                 i == 0 ? "" : ",\n", s.tid, s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(end - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    uint64_t lo = std::max(s.start_ns, p.start_ns);
    uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    auto& ivs = children[i];
    std::sort(ivs.begin(), ivs.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& iv : ivs) {
      if (open && iv.first <= cur_hi) {
        cur_hi = std::max(cur_hi, iv.second);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = iv.first;
        cur_hi = iv.second;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

}  // namespace perfbench
