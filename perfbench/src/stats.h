// Sample statistics of the benchmark: median and nearest-rank
// percentiles, with the rule that a percentile is reported only when at
// least kMinBeyond samples lie beyond it.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

constexpr size_t kMinBeyond = 10;

/// Median; the mean of the two middle values for an even count.
/// Requires a non-empty sample.
double Median(std::vector<double> samples);

/// Nearest-rank percentile: the smallest sample with at least p*n
/// samples at or below it (1-based rank ceil(p*n)). p in (0, 1].
double Percentile(std::vector<double> samples, double p);

/// Mean of the samples left after dropping floor(trim*n) from each end
/// (trim in [0, 0.5)). Robust to a few outliers like the median, but moves
/// smoothly when the sample mixes a fast and a slow regime, where the
/// median jumps from one regime to the other.
double TrimmedMean(std::vector<double> samples, double trim);

/// Samples strictly beyond the nearest-rank p-th percentile of n.
size_t SamplesBeyond(size_t n, double p);

/// True when n samples support the p-th percentile (>= kMinBeyond
/// samples beyond it).
bool PercentileSupported(size_t n, double p);

/// Least-squares slope of y over x; 0 for fewer than two points or a
/// degenerate x range.
double Slope(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
