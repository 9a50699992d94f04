#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace perfbench {

double Median(std::vector<double> samples) {
  CARL_CHECK(!samples.empty()) << "median of an empty sample";
  const size_t n = samples.size();
  const size_t mid = n / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  double upper = samples[mid];
  if (n % 2 == 1) return upper;
  double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

static size_t NearestRank(size_t n, double p) {
  // ceil(p*n) computed with a small tolerance so 0.99 * 1000 ranks 990,
  // not 991, despite binary rounding.
  double exact = p * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double Percentile(std::vector<double> samples, double p) {
  CARL_CHECK(!samples.empty()) << "percentile of an empty sample";
  CARL_CHECK(p > 0.0 && p <= 1.0) << "percentile out of range: " << p;
  size_t index = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double TrimmedMean(std::vector<double> samples, double trim) {
  CARL_CHECK(!samples.empty()) << "trimmed mean of an empty sample";
  CARL_CHECK(trim >= 0.0 && trim < 0.5) << "trim out of range: " << trim;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t cut = static_cast<size_t>(std::floor(trim * static_cast<double>(n)));
  double sum = 0.0;
  for (size_t i = cut; i < n - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(n - 2 * cut);
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinBeyond;
}

double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

}  // namespace perfbench

