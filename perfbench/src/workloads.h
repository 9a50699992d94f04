// The benchmark's workloads and the metric names they report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

/// End-to-end metrics: every run with --trace 0 reports each of these.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// Per-layer metrics: every run with --trace 1 reports each of these. A
/// workload adds those of the layers it calls; main.cc fills the rest
/// from short traced runs of the other workloads.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Each adds its metrics to `report` and its answers to `outcome`.
void RunServeRepeat(const RunArgs& args, Report* report, Outcome* outcome);
void RunPipelineCold(const RunArgs& args, Report* report, Outcome* outcome);
void RunIngestQuery(const RunArgs& args, Report* report, Outcome* outcome);

/// The serve_repeat arrival schedule (exposed for the self-test).
struct Arrival {
  uint64_t offset_ns = 0;  // from the rung start
  int kind = 0;            // index into the request mix; 0 = hot
};
std::vector<Arrival> MakeSchedule(uint64_t seed, double rate_per_s,
                                  double seconds, int num_kinds);

/// Runs the self-test; returns the number of failed checks.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
