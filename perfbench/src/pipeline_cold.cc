// pipeline_cold: the paper's Table 2 wait (§5-6.1). Closed loop, one
// caller, carl_exec at every hardware thread. Each pass gives every
// dataset a fresh QuerySession: parse the program, CarlEngine::Create
// (a full ground), then answer the dataset's queries. The REVIEW program
// omits its AVG_Score rule, so the AVG_Score query derives it (§4.3) and
// re-grounds through the session's BindingCache; its WHEN ... PEERS
// TREATED query reuses that variant.
//
// Every pass starts on freshly generated instances: an Instance keeps
// the CSR match indexes a ground builds, so reusing one would leave index
// construction out of every pass after the first. Generation runs before
// the pass's clock and span start.
//
// Set-up (timed three times, median reported): generate the datasets
// and run one warm-up pass, whose answers every later pass must match
// bit for bit. The traced run also re-runs one pass at one thread; its
// answers must match too.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "exec/exec_context.h"
#include "obs/metrics.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using carl::datagen::Dataset;

// Full-size datasets: the MIMIC ground dominates a pass. REVIEW is
// Table 2's REVIEWDATA configuration (RealisticReviewConfig).
constexpr size_t kMimicPatients = 40000;
constexpr size_t kMimicCaregivers = 1300;
constexpr size_t kNisAdmissions = 80000;
constexpr size_t kNisHospitals = 1035;
constexpr int kSetups = 3;

struct DatasetPlan {
  const char* name;
  Dataset (*generate)(uint64_t seed);
  std::vector<std::string> queries;
  std::unique_ptr<Dataset> data;
  bool used = false;  // a pass has run on `data`
};

struct PassResult {
  double pass_ms = 0.0;
  double ground_s = 0.0;  // full grounds (CarlEngine::Create), all datasets
  carl::GroundingPhaseStats phases;
  std::vector<carl::QueryTiming> timings;
  std::vector<AnswerBits> answers;
  carl::QuerySession::SessionStats sessions;
  std::vector<double> parse_program_ms;
  std::vector<double> parse_query_us;
};

std::vector<DatasetPlan> MakePlans() {
  std::vector<DatasetPlan> plans;
  plans.push_back({"MIMIC",
                   [](uint64_t seed) {
                     return MakeMimic(seed, kMimicPatients, kMimicCaregivers);
                   },
                   {"Death[P] <= SelfPay[P]?", "Len[P] <= SelfPay[P]?"},
                   nullptr});
  plans.push_back({"NIS",
                   [](uint64_t seed) {
                     return MakeNis(seed, kNisAdmissions, kNisHospitals);
                   },
                   {"HighBill[P] <= AdmittedToLarge[P]?"},
                   nullptr});
  plans.push_back(
      {"REVIEW",
       [](uint64_t seed) {
         return MakeReview(seed, carl::datagen::RealisticReviewConfig(), true);
       },
       {"AVG_Score[A] <= Prestige[A]?",
        "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED"},
       nullptr});
  return plans;
}

// Gives every plan a dataset no pass has run on yet.
void Refresh(std::vector<DatasetPlan>& plans, uint64_t seed) {
  for (DatasetPlan& plan : plans) {
    if (plan.data != nullptr && !plan.used) continue;
    plan.data.reset();
    plan.data = std::make_unique<Dataset>(plan.generate(seed));
    plan.used = false;
  }
}

void AddPhases(carl::GroundingPhaseStats* sum,
               const carl::GroundingPhaseStats& p) {
  sum->node_build_s += p.node_build_s;
  sum->enumerate_s += p.enumerate_s;
  sum->merge_s += p.merge_s;
  sum->splice_s += p.splice_s;
  sum->finalize_s += p.finalize_s;
}

// One cold pass over every dataset, on fresh instances generated from
// `seed` before the pass is timed. Failures are charged to `outcome`.
PassResult RunPass(std::vector<DatasetPlan>& plans, uint64_t seed,
                   Outcome* outcome) {
  Refresh(plans, seed);
  PassResult result;
  uint64_t pass_start = NowNs();
  ScopedSpan pass_span("pipeline.pass");
  for (DatasetPlan& plan : plans) {
    plan.used = true;
    auto session =
        std::make_shared<carl::QuerySession>(plan.data->instance.get());
    carl::Result<carl::RelationalCausalModel> model =
        carl::Status::Internal("unparsed");
    uint64_t t0 = NowNs();
    {
      ScopedSpan span("lang.parse_program");
      model = carl::RelationalCausalModel::Parse(*plan.data->schema,
                                                 plan.data->model_text);
    }
    double parse_ms = MsSince(t0);
    result.parse_program_ms.push_back(parse_ms);
    if (!model.ok()) {
      outcome->Attempt(plan.queries.size());
      for (size_t i = 0; i < plan.queries.size(); ++i) {
        outcome->Fail(std::string(plan.name) + " parse: " +
                      model.status().ToString());
      }
      continue;
    }
    t0 = NowNs();
    carl::Result<std::unique_ptr<carl::CarlEngine>> engine =
        carl::Status::Internal("not created");
    {
      ScopedSpan span("core.create");
      engine = carl::CarlEngine::Create(session, std::move(*model));
    }
    double create_ms = MsSince(t0);
    result.ground_s += create_ms / 1e3;
    if (!engine.ok()) {
      outcome->Attempt(plan.queries.size());
      for (size_t i = 0; i < plan.queries.size(); ++i) {
        outcome->Fail(std::string(plan.name) + " create: " +
                      engine.status().ToString());
      }
      continue;
    }
    AddPhases(&result.phases, (*engine)->grounded().phase_stats());
    for (const std::string& text : plan.queries) {
      outcome->Attempt();
      t0 = NowNs();
      carl::Result<carl::CausalQuery> query =
          carl::Status::Internal("unparsed");
      {
        ScopedSpan span("lang.parse_query");
        query = carl::ParseQuery(text);
      }
      double parse_us = MsSince(t0) * 1e3;
      result.parse_query_us.push_back(parse_us);
      if (!query.ok()) {
        outcome->Fail(text + ": " + query.status().ToString());
        result.answers.push_back(AnswerBits{});
        continue;
      }
      carl::QueryResponse response;
      {
        ScopedSpan span("core.answer");
        response = (*engine)->Answer(carl::QueryRequest(std::move(*query)));
      }
      if (!response.status.ok()) {
        outcome->Fail(text + ": " + response.status.ToString());
        result.answers.push_back(AnswerBits{});
        continue;
      }
      result.timings.push_back(response.timing);
      result.answers.push_back(BitsOf(response.answer));
    }
    carl::QuerySession::SessionStats stats = session->SnapshotStats();
    result.sessions.cache_hits += stats.cache_hits;
    result.sessions.ground_full += stats.ground_full;
    result.sessions.ground_extends += stats.ground_extends;
  }
  result.pass_ms = MsSince(pass_start);
  return result;
}

void CheckAnswers(const std::vector<AnswerBits>& reference,
                  const std::vector<AnswerBits>& got, const char* what,
                  Outcome* outcome) {
  if (reference.size() != got.size()) {
    outcome->Fail(carl::StrFormat("%s: %zu answers, reference has %zu", what,
                                  got.size(), reference.size()));
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == reference[i])) {
      outcome->Fail(carl::StrFormat("%s: answer %zu is %s, reference %s", what,
                                    i, got[i].ToString().c_str(),
                                    reference[i].ToString().c_str()));
    }
  }
}

// Passes until `seconds` elapse (at least one); each checked against the
// reference answers.
std::vector<PassResult> RunPasses(std::vector<DatasetPlan>& plans,
                                  uint64_t seed,
                                  const std::vector<AnswerBits>& reference,
                                  double seconds, Outcome* outcome) {
  std::vector<PassResult> passes;
  uint64_t start = NowNs();
  do {
    passes.push_back(RunPass(plans, seed, outcome));
    CheckAnswers(reference, passes.back().answers, "pass vs warm-up",
                 outcome);
  } while (static_cast<double>(NowNs() - start) / 1e9 < seconds);
  return passes;
}

std::vector<double> Field(const std::vector<PassResult>& passes,
                          double (*get)(const PassResult&)) {
  std::vector<double> out;
  for (const PassResult& p : passes) out.push_back(get(p));
  return out;
}

}  // namespace

void RunPipelineCold(const RunArgs& args, Report* report, Outcome* outcome) {
  const int cpus = NumCpus();
  carl::ExecContext::Global().set_threads(cpus);

  std::vector<DatasetPlan> plans;
  std::vector<AnswerBits> reference;
  Outcome warmup_outcome;
  std::vector<double> setups = TimeRepeatedSetup(
      args.trace ? 1 : kSetups, [&] { plans.clear(); },
      [&] {
        plans = MakePlans();
        reference = RunPass(plans, args.seed, &warmup_outcome).answers;
      });
  if (warmup_outcome.failed() > 0) {
    outcome->Fail("warm-up pass failed");
  }
  std::printf("pipeline_cold: %d threads; datasets MIMIC(%zu patients) "
              "NIS(%zu admissions) REVIEW(%zu authors, %zu papers), fresh "
              "instances each pass; %zu queries per pass\n",
              cpus, kMimicPatients, kNisAdmissions,
              carl::datagen::RealisticReviewConfig().num_authors,
              carl::datagen::RealisticReviewConfig().num_papers,
              reference.size());

  if (!args.trace) {
    std::vector<PassResult> passes =
        RunPasses(plans, args.seed, reference, args.seconds, outcome);
    std::vector<double> pass_ms =
        Field(passes, [](const PassResult& p) { return p.pass_ms; });
    const std::string n = carl::StrFormat("%zu passes", pass_ms.size());
    report->Add("setup_s", Median(setups), "s",
                carl::StrFormat("median of %d set-ups: datagen + warm-up pass",
                                kSetups));
    report->Add("trimmed_mean_ms", TrimmedMean(pass_ms, 0.1), "ms",
                carl::StrFormat("cold pass (pipeline_s x 1000), p50 %.4f, "
                                "slowest %.4f, ",
                                Median(pass_ms),
                                *std::max_element(pass_ms.begin(),
                                                  pass_ms.end())) +
                    n);
    report->Add("peak_rss_mb", PeakRssMb(), "MiB", "whole process");
    return;
  }

  // Untraced and traced passes alternate, so drift in machine speed
  // falls on both sides of the overhead estimate alike.
  std::vector<PassResult> untraced, traced;
  std::vector<double> allocs;
  uint64_t steals = 0;
  uint64_t start = NowNs();
  while (traced.size() < 2 ||
         static_cast<double>(NowNs() - start) / 1e9 < args.seconds) {
    untraced.push_back(RunPass(plans, args.seed, outcome));
    CheckAnswers(reference, untraced.back().answers, "pass vs warm-up",
                 outcome);
    SpanLog::Global().set_armed(true);
    ArmAllocCounting(true);
    carl::obs::Snapshot before = carl::obs::Registry::Global().TakeSnapshot();
    uint64_t a0 = AllocCount();
    traced.push_back(RunPass(plans, args.seed, outcome));
    allocs.push_back(static_cast<double>(AllocCount() - a0));
    ArmAllocCounting(false);
    carl::obs::Snapshot after = carl::obs::Registry::Global().TakeSnapshot();
    steals += carl::obs::SnapshotDelta(before, after)
                  .CounterDelta("exec.morsel_steals");
    SpanLog::Global().set_armed(false);
    CheckAnswers(reference, traced.back().answers, "traced pass", outcome);
  }
  ArmAllocCounting(true);

  // Unit-table allocations on the MIMIC Death query, through the
  // benchmark's own BuildUnitTableForQuery call.
  {
    auto session =
        std::make_shared<carl::QuerySession>(plans[0].data->instance.get());
    auto engine = carl::CarlEngine::Create(session, ParseModel(*plans[0].data));
    CARL_CHECK_OK(engine.status());
    auto query = carl::ParseQuery(plans[0].queries[0]);
    CARL_CHECK_OK(query.status());
    uint64_t a0 = AllocCount();
    carl::Result<carl::UnitTable> table =
        (*engine)->BuildUnitTableForQuery(*query);
    uint64_t table_allocs = AllocCount() - a0;
    CARL_CHECK_OK(table.status());
    report->Add("core.unit_table.allocs_per_unit",
                static_cast<double>(table_allocs) /
                    static_cast<double>(std::max<size_t>(1, table->units.size())),
                "count",
                carl::StrFormat("%llu allocations / %zu MIMIC units",
                                static_cast<unsigned long long>(table_allocs),
                                table->units.size()));
  }
  ArmAllocCounting(false);

  // One pass at one thread: answers must match; grounds give the speedup.
  carl::ExecContext::Global().set_threads(1);
  PassResult single = RunPass(plans, args.seed, outcome);
  CheckAnswers(reference, single.answers, "CARL_THREADS=1 pass", outcome);
  carl::ExecContext::Global().set_threads(cpus);

  const std::string n = carl::StrFormat("%zu traced passes", traced.size());
  std::vector<double> parse_program, parse_query, unit_table, resolve,
      estimate, coverage;
  for (const PassResult& p : traced) {
    parse_program.insert(parse_program.end(), p.parse_program_ms.begin(),
                         p.parse_program_ms.end());
    parse_query.insert(parse_query.end(), p.parse_query_us.begin(),
                       p.parse_query_us.end());
    for (const carl::QueryTiming& t : p.timings) {
      unit_table.push_back(t.unit_table_s * 1e3);
      resolve.push_back(t.resolve_s * 1e3);
      estimate.push_back(t.estimate_s * 1e3);
    }
  }
  // Share of each pass covered by the spans of the public calls under it.
  std::vector<Span> spans = SpanLog::Global().Snapshot();
  std::vector<uint64_t> self_ns = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "pipeline.pass") continue;
    double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    if (dur > 0.0) coverage.push_back(1.0 - static_cast<double>(self_ns[i]) / dur);
  }
  double ground_s =
      Median(Field(traced, [](const PassResult& p) { return p.ground_s; }));
  report->Add("lang.parse_program_ms", Median(parse_program), "ms",
              "median per program, " + n);
  report->Add("lang.parse_query_us", Median(parse_query), "us",
              "median per query, " + n);
  report->Add("core.ground_s", ground_s, "s",
              "full grounds (CarlEngine::Create) per pass, median, " + n);
  auto phase = [&](const char* name, double carl::GroundingPhaseStats::*field) {
    std::vector<double> v;
    for (const PassResult& p : traced) v.push_back(p.phases.*field);
    report->Add(name, Median(v), "s", "phase_stats() summed per pass, " + n);
  };
  phase("core.ground.node_build_s", &carl::GroundingPhaseStats::node_build_s);
  phase("core.ground.enumerate_s", &carl::GroundingPhaseStats::enumerate_s);
  phase("core.ground.merge_s", &carl::GroundingPhaseStats::merge_s);
  phase("core.ground.splice_s", &carl::GroundingPhaseStats::splice_s);
  phase("core.ground.finalize_s", &carl::GroundingPhaseStats::finalize_s);
  report->Add("core.ground.speedup_t4_t1", single.ground_s / ground_s, "ratio",
              carl::StrFormat("ground at 1 thread / at %d threads", cpus));
  const PassResult& last = traced.back();
  uint64_t lookups = last.sessions.cache_hits + last.sessions.ground_full +
                     last.sessions.ground_extends;
  report->Add("core.session.hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(last.sessions.cache_hits) /
                                 static_cast<double>(lookups),
              "ratio", "session cache hits / lookups per pass");
  report->Add("core.session.extends",
              static_cast<double>(last.sessions.ground_extends), "count",
              "per pass");
  report->Add("core.session.full_grounds",
              static_cast<double>(last.sessions.ground_full), "count",
              "per pass, incl. the derived-aggregate re-ground");
  report->Add("core.unit_table_ms", Median(unit_table), "ms",
              "median per query (QueryTiming), " + n);
  report->Add("core.resolve_ms", Median(resolve), "ms",
              "median per query (QueryTiming), " + n);
  report->Add("core.estimate_ms", Median(estimate), "ms",
              "median per query (QueryTiming), " + n);
  report->Add("alloc.per_pipeline", Median(allocs), "count",
              "heap allocations per pass, median, " + n);
  report->Add("exec.morsel_steals",
              static_cast<double>(steals) / static_cast<double>(traced.size()),
              "count", "per pass");
  std::vector<double> traced_ms =
      Field(traced, [](const PassResult& p) { return p.pass_ms; });
  std::vector<double> untraced_ms =
      Field(untraced, [](const PassResult& p) { return p.pass_ms; });
  report->Add("trace.overhead_ms",
              TrimmedMean(traced_ms, 0.1) - TrimmedMean(untraced_ms, 0.1),
              "ms",
              carl::StrFormat("trimmed-mean pass traced - untraced, alternating "
                              "(%zu vs %zu)",
                              traced_ms.size(), untraced_ms.size()));
  report->Add("trace.span_coverage", Median(coverage), "ratio",
              "blocking-path spans / pass, median, " + n);
}

}  // namespace perfbench
