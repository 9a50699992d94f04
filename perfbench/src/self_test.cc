// The benchmark's self-test: percentile maths, seeded schedule
// determinism and span self-time arithmetic. Run with --self-test.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(1001 - i));
  Expect(Near(Median(v), 500.5), "median of 1..1000 is 500.5");
  Expect(Near(Median({3.0, 1.0, 2.0}), 2.0), "median of odd sample");
  Expect(Near(Percentile(v, 0.99), 990.0), "nearest-rank p99 of 1..1000");
  Expect(Near(Percentile(v, 0.50), 500.0), "nearest-rank p50 of 1..1000");
  Expect(Near(Percentile(v, 1.0), 1000.0), "p100 is the maximum");
  Expect(Near(Percentile({7.0}, 0.99), 7.0), "p99 of one sample");
  Expect(SamplesBeyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  Expect(PercentileSupported(1000, 0.99), "1000 samples support p99");
  Expect(!PercentileSupported(999, 0.99), "999 samples do not support p99");
  Expect(PercentileSupported(20, 0.5), "20 samples support the median");
  Expect(!PercentileSupported(19, 0.5), "19 samples: 9 beyond the median");
  // 10% trimmed mean of 1..20 drops 1, 2 and 19, 20: mean of 3..18.
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(static_cast<double>(i));
  Expect(Near(TrimmedMean(twenty, 0.1), 10.5), "10% trimmed mean of 1..20");
  Expect(Near(TrimmedMean({1.0, 2.0, 3.0, 1000.0}, 0.25), 2.5),
         "trimmed mean drops the outlier");
  Expect(Near(TrimmedMean({4.0, 8.0}, 0.1), 6.0), "nothing trimmed below 10");
  Expect(Near(Slope({0, 1, 2, 3}, {1, 3, 5, 7}), 2.0), "slope of 2x+1");
  Expect(Near(Slope({0, 1, 2}, {4, 4, 4}), 0.0), "flat slope");
}

void TestSchedule() {
  std::vector<Arrival> a = MakeSchedule(7, 300.0, 2.0, 6);
  std::vector<Arrival> b = MakeSchedule(7, 300.0, 2.0, 6);
  std::vector<Arrival> c = MakeSchedule(8, 300.0, 2.0, 6);
  Expect(a.size() == 600, "schedule has rate x seconds arrivals");
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].offset_ns == b[i].offset_ns && a[i].kind == b[i].kind;
  }
  Expect(same, "same seed gives the same schedule");
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].offset_ns != c[i].offset_ns || a[i].kind != c[i].kind;
  }
  Expect(differs, "another seed gives another schedule");
  size_t per_kind[6] = {};
  bool sorted = true, in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind >= 0 && a[i].kind < 6) ++per_kind[a[i].kind];
    if (i > 0 && a[i].offset_ns < a[i - 1].offset_ns) sorted = false;
    if (a[i].offset_ns >= 2'000'000'000ull || a[i].kind < 0 || a[i].kind > 5) {
      in_range = false;
    }
  }
  Expect(sorted && in_range, "arrivals sorted within the window");
  Expect(per_kind[0] == 360, "exactly 60% hot requests");
  bool even = true;
  for (int k = 1; k < 6; ++k) even = even && per_kind[k] == 48;
  Expect(even, "the other kinds share the rest evenly");
}

void TestSelfTimes() {
  // parent [0,100); children [10,30) and [20,50) overlap -> cover 40;
  // child [90,120) is clipped to [90,100) -> 10. Self = 100 - 50 = 50.
  // Grandchild [12,18) lies under child 1 (self 20 - 6 = 14).
  std::vector<Span> spans(5);
  spans[0] = {"p", 0, 100, kNoParent, 1, 0};
  spans[1] = {"c", 10, 30, 0, 1, 0};
  spans[2] = {"c", 20, 50, 0, 1, 0};
  spans[3] = {"c", 90, 120, 0, 1, 0};
  spans[4] = {"g", 12, 18, 1, 1, 0};
  std::vector<uint64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 50, "parent self time with overlapping/clipped children");
  Expect(self[1] == 14, "child self time minus grandchild");
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self times");
}

}  // namespace

int RunSelfTest() {
  g_failures = 0;
  TestPercentiles();
  TestSchedule();
  TestSelfTimes();
  return g_failures;
}

}  // namespace perfbench
