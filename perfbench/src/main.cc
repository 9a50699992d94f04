// carl_perfbench: the seeded CaRL benchmark (see perfbench/README.md).
//
//   carl_perfbench --workload <serve_repeat|pipeline_cold|ingest_query>
//                  --seed <n> --seconds <s> --trace <0|1>
//   carl_perfbench --self-test
//
// Prints one `metric ...` line per metric, then the JSON result line
// {"correct", "attempted", "failed", "metrics"} as the last line of
// stdout. Exits 1 when any answer was failed, refused or wrong, 2 on bad
// arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"setup_s", "s"},
          {"trimmed_mean_ms", "ms"},
          {"peak_rss_mb", "MiB"},
      };
  return *metrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"lang.parse_program_ms", "ms"},
          {"lang.parse_query_us", "us"},
          {"core.ground_s", "s"},
          {"core.ground.node_build_s", "s"},
          {"core.ground.enumerate_s", "s"},
          {"core.ground.merge_s", "s"},
          {"core.ground.splice_s", "s"},
          {"core.ground.finalize_s", "s"},
          {"core.ground.speedup_t4_t1", "ratio"},
          {"core.extend_ms", "ms"},
          {"relational.mutate_us", "us"},
          {"relational.delta_us", "us"},
          {"core.session.hit_ratio", "ratio"},
          {"core.session.extends", "count"},
          {"core.session.full_grounds", "count"},
          {"core.unit_table_ms", "ms"},
          {"core.unit_table.allocs_per_unit", "count"},
          {"core.resolve_ms", "ms"},
          {"core.estimate_ms", "ms"},
          {"serve.queue_ms_p50", "ms"},
          {"serve.queue_ms_p99", "ms"},
          {"serve.coalesce_ratio", "ratio"},
          {"serve.waves", "count"},
          {"serve.rejected", "count"},
          {"serve.preempted", "count"},
          {"serve.engine_ms", "ms"},
          {"serve.wire.encode_us", "us"},
          {"serve.wire.decode_us", "us"},
          {"serve.wire.bytes_per_request", "B"},
          {"serve.tcp.overhead_ms", "ms"},
          {"serve.slo_rps", "1/s"},
          {"alloc.per_request", "count"},
          {"alloc.per_pipeline", "count"},
          {"exec.morsel_steals", "count"},
          {"gen.late_ms_p99", "ms"},
          {"gen.backlog_slope_rps", "1/s"},
          {"trace.overhead_ms", "ms"},
          {"trace.span_coverage", "ratio"},
      };
  return *metrics;
}

namespace {

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, Report*, Outcome*);
  // Run length when it only fills in the layers another workload does not
  // call: long enough for its traced part to support its percentiles.
  double filler_seconds;
};

// Filler order: ingest_query first, so core.session.* on serve_repeat
// comes from the workload that extends.
constexpr Workload kWorkloads[] = {
    {"ingest_query", RunIngestQuery, 1.0},
    {"pipeline_cold", RunPipelineCold, 1.0},
    {"serve_repeat", RunServeRepeat, 24.0},
};

int Usage() {
  std::fprintf(stderr,
               "usage: carl_perfbench --workload "
               "<serve_repeat|pipeline_cold|ingest_query> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       carl_perfbench --self-test\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    char* end = nullptr;
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      std::string v = value;
      if (v != "0" && v != "1") return false;
      args->trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    int failures = RunSelfTest();
    std::printf("self-test: %s (%d failed checks)\n",
                failures == 0 ? "ok" : "FAILED", failures);
    return failures == 0 ? 0 : 1;
  }
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d cpus=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, NumCpus());
  const Workload* primary = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) primary = &w;
  }
  if (primary == nullptr) return Usage();
  Report report;
  Outcome outcome;
  primary->run(args, &report, &outcome);

  if (args.trace) {
    std::string path = ".bench_build/perfbench_trace_" + args.workload + "_" +
                       std::to_string(args.seed) + ".json";
    if (SpanLog::Global().WriteChromeJson(path)) {
      std::printf("trace: %s\n", path.c_str());
    }
    // Layers the named workload does not call are measured by short
    // traced runs of the workloads that do, so every per-layer metric
    // comes from a workload whose path includes its layer.
    for (const Workload& w : kWorkloads) {
      bool missing = false;
      for (const auto& m : PerLayerMetrics()) missing |= !report.Has(m.first);
      if (!missing) break;
      if (&w == primary) continue;
      RunArgs filler = args;
      filler.workload = w.name;
      filler.seconds = w.filler_seconds;
      Report part;
      SpanLog::Global().Clear();
      w.run(filler, &part, &outcome);
      for (const auto& m : PerLayerMetrics()) {
        if (!report.Has(m.first) && part.Has(m.first)) {
          report.CopyFrom(part, m.first, w.name);
        }
      }
    }
  }

  // Every run reports exactly its metric set: the end-to-end metrics
  // untraced, the per-layer metrics traced.
  const auto& expected = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::set<std::string> want;
  for (const auto& m : expected) want.insert(m.first);
  std::vector<std::string> names = report.names();
  std::set<std::string> have(names.begin(), names.end());
  if (want != have) {
    std::fprintf(stderr, "perfbench: internal error: metric set mismatch\n");
    return 3;
  }
  report.Print(outcome);
  return outcome.correct() ? 0 : 1;
}
