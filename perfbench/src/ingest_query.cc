// ingest_query: the write-beside-read wait. Closed loop, one thread
// (carl_exec at one thread too), in process. Each step admits one seeded
// patient into MIMIC and then gets an answer that reflects it:
// QuerySession::Ground takes the extend path, CarlEngine::Create hits
// the cache, Answer builds the unit table and estimates. A step's latency
// runs from the admission's first write to the answer.
//
// The run is a sequence of episodes of kStepsPerEpisode steps. Each
// episode starts from a freshly generated instance (the set-up, timed;
// setup_s is the median over episodes), so the instance size at step k
// is the same in every run whatever the speed of the code. At the end
// of an episode the answer and the graph fingerprint must be
// bit-identical to a fresh session's full ground of the mutated
// instance; after every step the unit count must have grown by one.
//
// Episodes run on the CPUs in turn (EpisodeCpus). On a shared VM the
// vCPUs' speeds drift apart for seconds to minutes, so a one-thread loop
// left on one vCPU takes that vCPU's speed for the run's; rotating
// averages a run over all of them. In alternating runs it halved the
// run-to-run spread of trimmed_mean_ms (0.25 -> 0.12 over 6 seeds).

#include <sched.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/exec_context.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using carl::datagen::Dataset;

constexpr size_t kPatients = 2000;
constexpr size_t kCaregivers = 80;
constexpr int kStepsPerEpisode = 250;
constexpr int kMinEpisodes = 3;
constexpr char kQuery[] = "Death[P] <= SelfPay[P]?";

struct Episode {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<carl::RelationalCausalModel> model;
  std::shared_ptr<carl::QuerySession> session;
  carl::CausalQuery query;
  uint64_t units = 0;  // unit count of the last answer
};

struct StepSample {
  double latency_ms = 0.0;
  double mutate_us = 0.0;
  double delta_us = 0.0;  // traced run only
  double extend_ms = 0.0;
  carl::QueryTiming timing;
  uint64_t allocs = 0;
};

// Set-up of one episode: generate, parse, ground, answer once.
std::unique_ptr<Episode> SetUp(uint64_t seed, Outcome* outcome) {
  auto ep = std::make_unique<Episode>();
  ep->data = std::make_unique<Dataset>(MakeMimic(seed, kPatients, kCaregivers));
  ep->model = std::make_unique<carl::RelationalCausalModel>(ParseModel(*ep->data));
  ep->session =
      std::make_shared<carl::QuerySession>(ep->data->instance.get());
  carl::Result<carl::CausalQuery> query = carl::ParseQuery(kQuery);
  CARL_CHECK_OK(query.status());
  ep->query = *query;
  auto engine = carl::CarlEngine::Create(ep->session, *ep->model);
  CARL_CHECK_OK(engine.status());
  outcome->Attempt();
  carl::QueryResponse response =
      (*engine)->Answer(carl::QueryRequest(ep->query));
  if (!response.status.ok()) {
    outcome->Fail("warm-up answer: " + response.status.ToString());
  } else {
    ep->units = BitsOf(response.answer).units;
  }
  return ep;
}

// One admission, the way bench_table2_runtime's AddAdmission writes it,
// with seeded demographics.
void Admit(carl::Instance& db, int step, carl::Rng& rng) {
  const std::string pat = "ing_p" + std::to_string(step);
  const std::string rx = "ing_rx" + std::to_string(step);
  const std::string caregiver =
      "c" + std::to_string(rng.UniformInt(0, kCaregivers - 1));
  CARL_CHECK_OK(db.AddFact("Pa", {pat}));
  CARL_CHECK_OK(db.SetAttribute(
      "Eth", {pat}, carl::Value(static_cast<double>(rng.UniformInt(0, 4)))));
  CARL_CHECK_OK(db.SetAttribute(
      "Religion", {pat},
      carl::Value(static_cast<double>(rng.UniformInt(0, 3)))));
  CARL_CHECK_OK(db.SetAttribute("Sex", {pat}, carl::Value(rng.Bernoulli(0.5))));
  CARL_CHECK_OK(
      db.SetAttribute("Age", {pat}, carl::Value(rng.Uniform(18.0, 99.0))));
  CARL_CHECK_OK(
      db.SetAttribute("SelfPay", {pat}, carl::Value(rng.Bernoulli(0.2))));
  CARL_CHECK_OK(
      db.SetAttribute("Diag", {pat}, carl::Value(rng.Normal(0.4, 0.3))));
  CARL_CHECK_OK(
      db.SetAttribute("Severe", {pat}, carl::Value(rng.Bernoulli(0.3))));
  CARL_CHECK_OK(
      db.SetAttribute("Len", {pat}, carl::Value(rng.Uniform(24.0, 400.0))));
  CARL_CHECK_OK(
      db.SetAttribute("Death", {pat}, carl::Value(rng.Bernoulli(0.1))));
  CARL_CHECK_OK(db.AddFact("Prescription", {rx}));
  CARL_CHECK_OK(
      db.SetAttribute("Dose", {rx}, carl::Value(rng.Uniform(0.5, 2.0))));
  CARL_CHECK_OK(db.AddFact("Care", {caregiver, pat}));
  CARL_CHECK_OK(db.AddFact("Drug", {caregiver, rx}));
  CARL_CHECK_OK(db.AddFact("Given", {rx, pat}));
}

// One step: admission -> answer that reflects it.
StepSample Step(Episode* ep, int step, carl::Rng& rng, bool probe_delta,
                Outcome* outcome) {
  StepSample s;
  carl::Instance& db = *ep->data->instance;
  outcome->Attempt();
  uint64_t a0 = AllocCount();
  uint64_t gen = db.generation();
  uint64_t t0 = NowNs();
  ScopedSpan step_span("ingest.step", static_cast<uint64_t>(step));
  {
    ScopedSpan span("relational.mutate", static_cast<uint64_t>(step));
    Admit(db, step, rng);
  }
  s.mutate_us = MsSince(t0) * 1e3;
  if (probe_delta) {
    uint64_t d0 = NowNs();
    ScopedSpan span("relational.delta", static_cast<uint64_t>(step));
    carl::InstanceDelta delta = db.DeltaSince(gen);
    s.delta_us = MsSince(d0) * 1e3;
    if (!delta.complete) outcome->Fail("delta log trimmed mid-step");
  }
  uint64_t g0 = NowNs();
  {
    ScopedSpan span("core.session_ground", static_cast<uint64_t>(step));
    carl::Result<std::shared_ptr<const carl::GroundedModel>> grounded =
        ep->session->Ground(*ep->model);
    if (!grounded.ok()) {
      outcome->Fail("extend: " + grounded.status().ToString());
      return s;
    }
  }
  s.extend_ms = MsSince(g0);
  carl::Result<std::unique_ptr<carl::CarlEngine>> engine =
      carl::Status::Internal("not created");
  {
    ScopedSpan span("core.create", static_cast<uint64_t>(step));
    engine = carl::CarlEngine::Create(ep->session, *ep->model);
  }
  if (!engine.ok()) {
    outcome->Fail("create: " + engine.status().ToString());
    return s;
  }
  carl::QueryResponse response;
  {
    ScopedSpan span("core.answer", static_cast<uint64_t>(step));
    response = (*engine)->Answer(carl::QueryRequest(ep->query));
  }
  s.latency_ms = MsSince(t0);
  s.allocs = AllocCount() - a0;
  s.timing = response.timing;
  if (!response.status.ok()) {
    outcome->Fail("answer: " + response.status.ToString());
    return s;
  }
  uint64_t units = BitsOf(response.answer).units;
  if (units != ep->units + 1) {
    outcome->Fail(carl::StrFormat(
        "step %d: answer has %llu units, expected %llu (admission not "
        "reflected)",
        step, static_cast<unsigned long long>(units),
        static_cast<unsigned long long>(ep->units + 1)));
  }
  ep->units = units;
  return s;
}

// The maintained (extended) grounding and answer must equal a fresh
// session's full ground of the mutated instance, bit for bit.
void CheckAgainstFresh(Episode* ep, Outcome* outcome) {
  outcome->Attempt();
  auto maintained = carl::CarlEngine::Create(ep->session, *ep->model);
  auto fresh_session =
      std::make_shared<carl::QuerySession>(ep->data->instance.get());
  auto fresh = carl::CarlEngine::Create(fresh_session, *ep->model);
  if (!maintained.ok() || !fresh.ok()) {
    outcome->Fail("episode check: engine creation failed");
    return;
  }
  if (CanonicalGraphFingerprint((*maintained)->grounded()) !=
      CanonicalGraphFingerprint((*fresh)->grounded())) {
    outcome->Fail("extended grounding differs from a fresh ground");
  }
  carl::QueryResponse a =
      (*maintained)->Answer(carl::QueryRequest(ep->query));
  carl::QueryResponse b = (*fresh)->Answer(carl::QueryRequest(ep->query));
  if (!a.status.ok() || !b.status.ok() ||
      !(BitsOf(a.answer) == BitsOf(b.answer))) {
    outcome->Fail("final answer differs from a fresh-session answer");
  }
}

// Pins the calling thread to one of the CPUs it may run on, chosen by
// turn; restores its former CPU set on destruction.
class EpisodeCpus {
 public:
  EpisodeCpus() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) CPU_ZERO(&saved_);
  }
  ~EpisodeCpus() {
    if (CPU_COUNT(&saved_) > 0) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  EpisodeCpus(const EpisodeCpus&) = delete;
  EpisodeCpus& operator=(const EpisodeCpus&) = delete;

  // Runs the calling thread on the turn-th allowed CPU (mod their count).
  void Pin(int turn) {
    const int count = CPU_COUNT(&saved_);
    if (count == 0) return;
    int k = turn % count;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || k-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }

 private:
  cpu_set_t saved_;
};

struct Segment {
  std::vector<StepSample> steps;
  std::vector<double> setup_s;
  uint64_t full_grounds = 0, extends = 0, hits = 0;
  int episodes = 0;
};

// One whole episode, appended to `seg`; `index` seeds its admissions.
void RunEpisode(uint64_t seed, int index, bool probe_delta, Segment* seg,
                Outcome* outcome) {
  uint64_t s0 = NowNs();
  std::unique_ptr<Episode> ep = SetUp(seed, outcome);
  seg->setup_s.push_back(static_cast<double>(NowNs() - s0) / 1e9);
  carl::Rng rng(SubSeed(seed, 1000 + static_cast<uint64_t>(index)));
  for (int i = 0; i < kStepsPerEpisode; ++i) {
    seg->steps.push_back(Step(ep.get(), i, rng, probe_delta, outcome));
  }
  carl::QuerySession::SessionStats stats = ep->session->SnapshotStats();
  seg->full_grounds += stats.ground_full;
  seg->extends += stats.ground_extends;
  seg->hits += stats.cache_hits;
  CheckAgainstFresh(ep.get(), outcome);
  ++seg->episodes;
}

std::vector<double> Latencies(const Segment& seg) {
  std::vector<double> out;
  for (const StepSample& s : seg.steps) out.push_back(s.latency_ms);
  return out;
}

}  // namespace

void RunIngestQuery(const RunArgs& args, Report* report, Outcome* outcome) {
  carl::ExecContext::Global().set_threads(1);
  std::printf("ingest_query: 1 thread; MIMIC(%zu patients), %d admissions "
              "per episode\n",
              kPatients, kStepsPerEpisode);
  if (!args.trace) {
    Segment seg;
    EpisodeCpus cpus;
    uint64_t start = NowNs();
    while (seg.episodes < kMinEpisodes ||
           static_cast<double>(NowNs() - start) / 1e9 < args.seconds) {
      cpus.Pin(seg.episodes);
      RunEpisode(args.seed, seg.episodes, false, &seg, outcome);
    }
    std::vector<double> lat = Latencies(seg);
    const std::string n = carl::StrFormat(
        "%zu steps in %d episodes", lat.size(), seg.episodes);
    report->Add("setup_s", Median(seg.setup_s), "s",
                carl::StrFormat("median of %zu episode set-ups: datagen + "
                                "ground + warm answer",
                                seg.setup_s.size()));
    report->Add("trimmed_mean_ms", TrimmedMean(lat, 0.1), "ms",
                "admission -> answer, " + PercentileNote(lat) + ", " + n);
    report->Add("peak_rss_mb", PeakRssMb(), "MiB", "whole process");
    return;
  }

  // Untraced and traced episodes alternate, each pair on one CPU, so
  // drift in machine speed falls on both sides of the overhead estimate
  // alike.
  Segment untraced, traced;
  EpisodeCpus cpus;
  uint64_t start = NowNs();
  for (int i = 0; traced.episodes < 1 ||
                  static_cast<double>(NowNs() - start) / 1e9 < args.seconds;
       ++i) {
    cpus.Pin(i);
    RunEpisode(args.seed, 2 * i, false, &untraced, outcome);
    SpanLog::Global().set_armed(true);
    ArmAllocCounting(true);
    RunEpisode(args.seed, 2 * i + 1, true, &traced, outcome);
    ArmAllocCounting(false);
    SpanLog::Global().set_armed(false);
  }
  ArmAllocCounting(true);

  // Unit-table allocations on the same query, through the benchmark's own
  // BuildUnitTableForQuery call on a fresh episode.
  {
    Outcome probe_outcome;
    std::unique_ptr<Episode> ep = SetUp(args.seed, &probe_outcome);
    auto engine = carl::CarlEngine::Create(ep->session, *ep->model);
    CARL_CHECK_OK(engine.status());
    uint64_t a0 = AllocCount();
    carl::Result<carl::UnitTable> table =
        (*engine)->BuildUnitTableForQuery(ep->query);
    uint64_t allocs = AllocCount() - a0;
    CARL_CHECK_OK(table.status());
    report->Add("core.unit_table.allocs_per_unit",
                static_cast<double>(allocs) /
                    static_cast<double>(std::max<size_t>(1, table->units.size())),
                "count",
                carl::StrFormat("%llu allocations / %zu MIMIC units",
                                static_cast<unsigned long long>(allocs),
                                table->units.size()));
  }
  ArmAllocCounting(false);

  const std::string n = carl::StrFormat("%zu traced steps", traced.steps.size());
  std::vector<double> mutate, delta, extend, unit_table, resolve, estimate,
      allocs;
  for (const StepSample& s : traced.steps) {
    mutate.push_back(s.mutate_us);
    delta.push_back(s.delta_us);
    extend.push_back(s.extend_ms);
    unit_table.push_back(s.timing.unit_table_s * 1e3);
    resolve.push_back(s.timing.resolve_s * 1e3);
    estimate.push_back(s.timing.estimate_s * 1e3);
    allocs.push_back(static_cast<double>(s.allocs));
  }
  double eps = static_cast<double>(traced.episodes);
  report->Add("relational.mutate_us", Median(mutate), "us",
              "one admission's AddFact/SetAttribute calls, median, " + n);
  report->Add("relational.delta_us", Median(delta), "us",
              "DeltaSince over one admission, median, " + n);
  report->Add("core.extend_ms", Median(extend), "ms",
              "QuerySession::Ground on the extend path, median, " + n);
  uint64_t lookups = traced.hits + traced.full_grounds + traced.extends;
  report->Add("core.session.hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(traced.hits) /
                                 static_cast<double>(lookups),
              "ratio", "session cache hits / lookups");
  report->Add("core.session.extends", static_cast<double>(traced.extends) / eps,
              "count", "per episode");
  report->Add("core.session.full_grounds",
              static_cast<double>(traced.full_grounds) / eps, "count",
              "per episode (the set-up ground)");
  report->Add("core.unit_table_ms", Median(unit_table), "ms",
              "per step (QueryTiming), median, " + n);
  report->Add("core.resolve_ms", Median(resolve), "ms",
              "per step (QueryTiming), median, " + n);
  report->Add("core.estimate_ms", Median(estimate), "ms",
              "per step (QueryTiming), median, " + n);
  report->Add("alloc.per_request", Median(allocs), "count",
              "heap allocations per step, median, " + n);
  report->Add("trace.overhead_ms",
              TrimmedMean(Latencies(traced), 0.1) -
                  TrimmedMean(Latencies(untraced), 0.1),
              "ms",
              carl::StrFormat("trimmed-mean step traced - untraced, alternating "
                              "episodes (%zu vs %zu)",
                              traced.steps.size(), untraced.steps.size()));
  std::vector<Span> spans = SpanLog::Global().Snapshot();
  std::vector<uint64_t> self_ns = SelfTimesNs(spans);
  std::vector<double> coverage;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "ingest.step") continue;
    double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    if (dur > 0.0) coverage.push_back(1.0 - static_cast<double>(self_ns[i]) / dur);
  }
  report->Add("trace.span_coverage", Median(coverage), "ratio",
              "public-call spans / step, median, " + n);
}

}  // namespace perfbench
