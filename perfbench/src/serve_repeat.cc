// serve_repeat: the serving wait. Open loop at fixed offered rates over
// loopback TCP against carl_serve (ServeService with one worker per CPU,
// carl_exec at one thread, TcpServer) in this process. The load uses one
// connection: one sender thread writes request frames on their seeded
// arrival schedule (a Poisson process conditioned on its count), one
// reader thread decodes responses. At the reference rate requests seldom
// overlap, so few threads are busy at once and the latency measures the
// service rather than the scheduler; the workers take waves in turn, so
// requests run on every CPU and a run averages over vCPUs of uneven
// speed. Latency runs from each request's scheduled send time, so a stall
// is charged to every request it delays.
//
// Traffic is repeat-skewed over warm MIMIC + NIS + REVIEW shards: 60% one
// hot request, the rest spread over the other bench_serve queries, one
// WHERE-filtered query and one WHEN ... PEERS TREATED query. Every
// response must be bit-identical to a direct CarlEngine answer computed
// at set-up.
//
// The untraced run offers the reference rate for the whole run; its
// trimmed-mean latency is the workload's end-to-end figure. The traced
// run alternates untraced and traced chunks at the reference rate, then
// searches a fixed ladder of rates for serve.slo_rps: the completed rate
// of the highest rung found to meet the limit (p99 within kLimitMs, no
// failed request, no growing backlog). slo_rps is a per-layer figure, not
// an end-to-end one, because its run-to-run spread on a shared VM
// exceeds the bound an end-to-end metric may have (see README.md).

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/exec_context.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "serve/wire.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using carl::datagen::Dataset;

// The reference rate stays well below capacity (about 1/7 of what the
// service sustains here: a shard's waves run on one worker at a time, so
// the MIMIC shard, 68% of the traffic, caps the rate near 200 req/s at
// carl_exec 1), so its latency tracks service time more than queueing,
// which multiplies any slowdown of the machine. The ladder (steps of 1.1x from
// 66 req/s) is searched from a measured start (SearchSlo), each probed
// rung with kProbeRequests requests. A probe stops early once more than
// 1% of its requests are certain to exceed the limit, so overloaded rungs
// cost little time. p99 latency limit: kLimitMs.
constexpr double kReferenceRate = 30.0;
constexpr double kLadder[] = {
    66.0,  73.0,  80.0,  88.0,  97.0,  106.0, 117.0,  129.0,
    141.0, 156.0, 171.0, 188.0, 207.0, 228.0, 251.0,  276.0,
    303.0, 334.0, 367.0, 404.0, 444.0, 488.0, 537.0,  591.0,
    650.0, 715.0, 787.0, 865.0, 952.0, 1047.0, 1152.0, 1267.0};
constexpr int kLadderSize = static_cast<int>(sizeof(kLadder) / sizeof(kLadder[0]));
constexpr size_t kProbeRequests = 1000;
constexpr size_t kBurstRequests = 400;
constexpr double kStartHeadroom = 1.2;
constexpr double kLimitMs = 100.0;
constexpr double kHotShare = 0.6;
// Backlog counts as growing when outstanding requests rise faster than
// this share of the offered rate.
constexpr double kBacklogGrowthShare = 0.05;
constexpr int kSetups = 5;
// Shard sizes of bench_serve's full mode.
constexpr size_t kMimicPatients = 2000;
constexpr size_t kMimicCaregivers = 80;
constexpr size_t kNisAdmissions = 6000;
constexpr size_t kNisHospitals = 100;
constexpr size_t kReviewAuthors = 800;
constexpr size_t kReviewInstitutions = 20;
constexpr size_t kReviewPapers = 6000;
constexpr size_t kReviewVenues = 10;
constexpr double kDrainTimeoutS = 30.0;
// The sender spins for the last kSpinNs before each send at rates whose
// mean gap is at least ten times that: a timer wake-up on an idle VM CPU
// can be late by milliseconds.
constexpr uint64_t kSpinNs = 2'000'000;

struct Kind {
  const char* instance;
  const Dataset* data;
  std::string query;
  AnswerBits expected;
  double direct_ms = 0.0;  // direct engine answer time at set-up
};

struct ServeState {
  std::unique_ptr<Dataset> mimic, nis, review;
  std::vector<Kind> kinds;
  std::unique_ptr<carl::CarlEngine> hot_engine;  // direct, for probes
  std::unique_ptr<carl::serve::ServeService> service;
  std::unique_ptr<carl::serve::TcpServer> server;

  ~ServeState() {
    if (server) server->Stop();
    if (service) service->Shutdown();
  }
};

AnswerBits BitsOfResponse(const carl::serve::ServeResponse& r) {
  AnswerBits bits;
  bits.units = r.num_units;
  if (r.kind == carl::serve::kAnswerEffects) {
    bits.effects = true;
    bits.a = r.aie.value;
    bits.b = r.are.value;
    bits.c = r.aoe.value;
  } else {
    bits.a = r.ate.value;
    bits.b = r.naive_diff;
  }
  return bits;
}

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CARL_CHECK(fd >= 0) << "socket failed";
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  CARL_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0)
      << "connect to 127.0.0.1:" << port << " failed";
  return fd;
}

carl::serve::ServeRequest MakeRequest(const Kind& kind, uint64_t id) {
  carl::serve::ServeRequest request;
  request.request_id = id;
  request.instance = kind.instance;
  request.program = kind.data->model_text;
  request.query = kind.query;
  return request;
}

std::unique_ptr<ServeState> SetUp(uint64_t seed, Outcome* outcome) {
  auto st = std::make_unique<ServeState>();
  st->mimic = std::make_unique<Dataset>(
      MakeMimic(seed, kMimicPatients, kMimicCaregivers));
  st->nis = std::make_unique<Dataset>(MakeNis(seed, kNisAdmissions,
                                              kNisHospitals));
  carl::datagen::ReviewConfig review;
  review.num_authors = kReviewAuthors;
  review.num_institutions = kReviewInstitutions;
  review.num_papers = kReviewPapers;
  review.num_venues = kReviewVenues;
  st->review = std::make_unique<Dataset>(MakeReview(seed, review, false));
  const char* kReviewQuery = "AVG_Score[A] <= Prestige[A]?";
  st->kinds = {
      {"mimic", st->mimic.get(), "Death[P] <= SelfPay[P]?", {}},
      {"mimic", st->mimic.get(), "Len[P] <= SelfPay[P]?", {}},
      {"nis", st->nis.get(), "HighBill[P] <= AdmittedToLarge[P]?", {}},
      {"review", st->review.get(), kReviewQuery, {}},
      {"review", st->review.get(),
       std::string(kReviewQuery) + " WHERE Submitted(S, C), Blind[C] = TRUE",
       {}},
      {"review", st->review.get(),
       std::string(kReviewQuery) + " WHEN MORE THAN 1/3 PEERS TREATED",
       {}},
  };
  // Reference answers from direct engines.
  for (Kind& kind : st->kinds) {
    auto engine = carl::CarlEngine::Create(kind.data->instance.get(),
                                           ParseModel(*kind.data));
    CARL_CHECK_OK(engine.status());
    carl::QueryResponse response =
        (*engine)->Answer(carl::QueryRequest(kind.query));
    CARL_CHECK_OK(response.status);
    kind.expected = BitsOf(response.answer);
    kind.direct_ms = response.timing.total_s * 1e3;
    if (st->hot_engine == nullptr) st->hot_engine = std::move(*engine);
  }

  carl::serve::ServeOptions options;
  options.num_workers = NumCpus();
  options.max_queue_depth = 1 << 16;
  st->service = std::make_unique<carl::serve::ServeService>(options);
  CARL_CHECK_OK(st->service->RegisterInstance("mimic", st->mimic->schema.get(),
                                              st->mimic->instance.get()));
  CARL_CHECK_OK(st->service->RegisterInstance("nis", st->nis->schema.get(),
                                              st->nis->instance.get()));
  CARL_CHECK_OK(st->service->RegisterInstance(
      "review", st->review->schema.get(), st->review->instance.get()));
  st->service->Start();
  st->server = std::make_unique<carl::serve::TcpServer>(st->service.get());
  CARL_CHECK_OK(st->server->Listen(0));

  // Warm-up: every kind once over TCP, which grounds every shard.
  int fd = Connect(st->server->port());
  for (size_t k = 0; k < st->kinds.size(); ++k) {
    outcome->Attempt();
    CARL_CHECK_OK(carl::serve::WriteFrame(
        fd, carl::serve::EncodeRequest(MakeRequest(st->kinds[k], k + 1))));
    std::string payload;
    carl::serve::ServeResponse response;
    if (!carl::serve::ReadFrame(fd, &payload).ok() ||
        !carl::serve::DecodeResponse(payload, &response).ok() ||
        !response.ok() || !(BitsOfResponse(response) == st->kinds[k].expected)) {
      outcome->Fail("warm-up request " + st->kinds[k].query);
    }
  }
  ::close(fd);
  return st;
}

struct RungResult {
  double rate = 0.0;
  size_t requests = 0;   // sent
  bool stopped = false;  // stopped early: certain to miss the limit
  size_t completed = 0;  // responses received
  size_t failed = 0;     // missing, refused or wrong
  double active_s = 0.0;  // first send to last response
  double achieved_rps = 0.0;
  double backlog_slope = 0.0;
  bool backlog_growing = false;
  bool passed = false;
  std::vector<double> latency_ms, late_ms, queue_ms, engine_ms, encode_us,
      decode_us, tcp_ms, unit_table_ms, resolve_ms, estimate_ms;
  // Per request: share of the latency covered by the directly measured
  // terms (lateness, encode, write, queue, engine, decode).
  std::vector<double> covered;
  uint64_t bytes = 0;
};

// Per-request records. The sender owns the send-side fields, each reader
// the receive-side fields of the requests it receives; the main thread
// reads both after joining.
struct SendSide {
  uint64_t enc_start = 0, enc_end = 0, write_end = 0;
  uint32_t bytes = 0;
};
struct RecvSide {
  uint64_t recv = 0, dec_end = 0;
  bool ok = false;
  uint32_t bytes = 0;
  double queue_ms = 0.0;
  carl::QueryTiming timing;
};

// Runs one rate. With `may_stop`, sending stops once more than the
// requests the p99 may exceed the limit by are certain to exceed it
// (answered late, or unanswered past the limit): such a rung misses.
RungResult RunRung(ServeState* st, double rate, double seconds, uint64_t seed,
                   uint64_t id_base, bool may_stop, Outcome* outcome) {
  RungResult r;
  r.rate = rate;
  std::vector<Arrival> schedule = MakeSchedule(
      seed, rate, seconds, static_cast<int>(st->kinds.size()));
  const size_t n = schedule.size();
  std::vector<SendSide> sent(n);
  std::vector<RecvSide> recv(n);
  std::vector<std::atomic<uint8_t>> answered(n);
  std::atomic<size_t> received{0};
  std::atomic<size_t> over_limit{0};
  std::atomic<size_t> stray{0};
  const uint64_t limit_ns = static_cast<uint64_t>(kLimitMs * 1e6);
  const size_t allowed_over = SamplesBeyond(n, 0.99);
  const uint64_t t0 = NowNs() + 5'000'000;  // 5 ms to let the reader block

  const int fd = Connect(st->server->port());
  std::thread reader([&] {
    std::string payload;
    for (;;) {
      if (!carl::serve::ReadFrame(fd, &payload).ok()) return;
      uint64_t t = NowNs();
      carl::serve::ServeResponse response;
      bool decoded = carl::serve::DecodeResponse(payload, &response).ok();
      uint64_t t_dec = NowNs();
      uint64_t idx = response.request_id - id_base;
      if (!decoded || response.request_id < id_base || idx >= n) {
        stray.fetch_add(1);
        continue;
      }
      RecvSide& rs = recv[idx];
      rs.recv = t;
      rs.dec_end = t_dec;
      rs.bytes = static_cast<uint32_t>(payload.size() + 4);
      rs.queue_ms = response.queue_ms;
      rs.timing = response.timing;
      rs.ok = response.ok() &&
              BitsOfResponse(response) ==
                  st->kinds[static_cast<size_t>(schedule[idx].kind)].expected;
      answered[idx].store(1, std::memory_order_release);
      if (t > t0 + schedule[idx].offset_ns + limit_ns) {
        over_limit.fetch_add(1, std::memory_order_release);
      }
      received.fetch_add(1, std::memory_order_release);
    }
  });

  // Sender: the calling thread.
  std::vector<double> backlog_t, backlog_n;
  backlog_t.reserve(n);
  backlog_n.reserve(n);
  const bool spin = 1e9 / rate >= 10.0 * static_cast<double>(kSpinNs);
  const auto clock_t0 = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(t0 - NowNs());
  size_t num_sent = 0;
  for (size_t i = 0; i < n; ++i) {
    if (may_stop && i % 8 == 0) {
      // Requests past the limit: answered late, or not answered by now.
      size_t over = over_limit.load(std::memory_order_acquire);
      const uint64_t now = NowNs();
      for (size_t k = 0; k < i && t0 + schedule[k].offset_ns + limit_ns < now;
           ++k) {
        if (answered[k].load(std::memory_order_acquire) == 0) ++over;
      }
      if (over > allowed_over) {
        r.stopped = true;
        break;
      }
    }
    // At low rates, sleep to just short of the send time, then spin: a
    // timer wake-up on an idle VM CPU can be late by milliseconds, which
    // would charge the generator's own jitter to the service. At high
    // rates spinning would take CPU from the service, so it only sleeps.
    const uint64_t due = t0 + schedule[i].offset_ns;
    const uint64_t spin_ns = spin ? kSpinNs : 0;
    if (due > NowNs() + spin_ns) {
      std::this_thread::sleep_until(
          clock_t0 + std::chrono::nanoseconds(schedule[i].offset_ns - spin_ns));
    }
    while (NowNs() < due) {
    }
    SendSide& ss = sent[i];
    ss.enc_start = NowNs();
    std::string frame = carl::serve::EncodeRequest(MakeRequest(
        st->kinds[static_cast<size_t>(schedule[i].kind)], id_base + i));
    ss.enc_end = NowNs();
    ss.bytes = static_cast<uint32_t>(frame.size() + 4);
    if (!carl::serve::WriteFrame(fd, frame).ok()) {
      outcome->Fail("WriteFrame failed");
    }
    ss.write_end = NowNs();
    backlog_t.push_back(static_cast<double>(ss.write_end - t0) / 1e9);
    backlog_n.push_back(static_cast<double>(
        i + 1 - received.load(std::memory_order_acquire)));
    num_sent = i + 1;
  }
  r.requests = num_sent;
  const uint64_t drain_deadline =
      NowNs() + static_cast<uint64_t>(kDrainTimeoutS * 1e9);
  while (received.load(std::memory_order_acquire) < num_sent &&
         NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::shutdown(fd, SHUT_RDWR);
  reader.join();
  ::close(fd);

  // Aggregate, record spans, account correctness.
  uint64_t last_recv = t0;
  for (size_t i = 0; i < num_sent; ++i) {
    outcome->Attempt();
    const SendSide& ss = sent[i];
    const RecvSide& rs = recv[i];
    const uint64_t scheduled = t0 + schedule[i].offset_ns;
    r.late_ms.push_back(static_cast<double>(ss.enc_start - scheduled) / 1e6);
    if (rs.recv == 0 || !rs.ok) {
      ++r.failed;
      outcome->Fail(carl::StrFormat(
          "request %zu (%s): %s", i,
          st->kinds[static_cast<size_t>(schedule[i].kind)].query.c_str(),
          rs.recv == 0 ? "no response" : "error or answer differs"));
      continue;
    }
    ++r.completed;
    last_recv = std::max(last_recv, rs.recv);
    double latency = static_cast<double>(rs.recv - scheduled) / 1e6;
    double encode = static_cast<double>(ss.enc_end - ss.enc_start) / 1e6;
    double decode = static_cast<double>(rs.dec_end - rs.recv) / 1e6;
    double write = static_cast<double>(ss.write_end - ss.enc_end) / 1e6;
    double late = r.late_ms.back();
    double engine = rs.timing.total_s * 1e3;
    r.latency_ms.push_back(latency);
    r.queue_ms.push_back(rs.queue_ms);
    r.engine_ms.push_back(engine);
    r.encode_us.push_back(encode * 1e3);
    r.decode_us.push_back(decode * 1e3);
    r.tcp_ms.push_back(latency - late - encode - rs.queue_ms - engine - decode);
    r.covered.push_back((late + encode + write + rs.queue_ms + engine + decode) /
                        latency);
    r.unit_table_ms.push_back(rs.timing.unit_table_s * 1e3);
    r.resolve_ms.push_back(rs.timing.resolve_s * 1e3);
    r.estimate_ms.push_back(rs.timing.estimate_s * 1e3);
    r.bytes += ss.bytes + rs.bytes;
    if (SpanLog::Global().armed()) {
      uint64_t id = id_base + i;
      int64_t req = SpanLog::Global().Record("serve.request", scheduled,
                                             rs.dec_end, kNoParent, id);
      SpanLog::Global().Record("gen.late", scheduled, ss.enc_start, req, id);
      SpanLog::Global().Record("serve.wire.encode", ss.enc_start, ss.enc_end,
                               req, id);
      SpanLog::Global().Record("serve.tcp.write", ss.enc_end, ss.write_end,
                               req, id);
      SpanLog::Global().Record("serve.wire.decode", rs.recv, rs.dec_end, req,
                               id);
    }
  }
  if (stray.load() > 0) {
    outcome->Fail(carl::StrFormat("%zu stray responses", stray.load()));
  }
  r.active_s = static_cast<double>(last_recv - t0) / 1e9;
  r.achieved_rps = static_cast<double>(r.completed) / r.active_s;
  r.backlog_slope = Slope(backlog_t, backlog_n);
  r.backlog_growing = r.backlog_slope > kBacklogGrowthShare * rate;
  return r;
}

// Appends a chunk run at the same offered rate to `pooled`.
void Pool(RungResult* pooled, const RungResult& part) {
  pooled->rate = part.rate;
  pooled->requests += part.requests;
  pooled->stopped = pooled->stopped || part.stopped;
  pooled->completed += part.completed;
  pooled->failed += part.failed;
  pooled->active_s += part.active_s;
  pooled->achieved_rps =
      static_cast<double>(pooled->completed) / pooled->active_s;
  pooled->backlog_slope = std::max(pooled->backlog_slope, part.backlog_slope);
  pooled->backlog_growing = pooled->backlog_growing || part.backlog_growing;
  pooled->bytes += part.bytes;
  for (auto [to, from] :
       {std::pair{&pooled->latency_ms, &part.latency_ms},
        {&pooled->late_ms, &part.late_ms},
        {&pooled->queue_ms, &part.queue_ms},
        {&pooled->engine_ms, &part.engine_ms},
        {&pooled->encode_us, &part.encode_us},
        {&pooled->decode_us, &part.decode_us},
        {&pooled->tcp_ms, &part.tcp_ms},
        {&pooled->unit_table_ms, &part.unit_table_ms},
        {&pooled->resolve_ms, &part.resolve_ms},
        {&pooled->estimate_ms, &part.estimate_ms},
        {&pooled->covered, &part.covered}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
}

// Decides whether a rate met the limit and prints its line, with the
// count of requests over the limit.
void Judge(RungResult* r) {
  size_t over = 0;
  for (double ms : r->latency_ms) over += ms > kLimitMs ? 1 : 0;
  const double p99 =
      r->latency_ms.empty() ? 0.0 : Percentile(r->latency_ms, 0.99);
  r->passed = r->failed == 0 && !r->stopped && !r->backlog_growing &&
              !r->latency_ms.empty() && p99 <= kLimitMs;
  std::printf(
      "rate %6.0f req/s: %zu sent%s, %zu ok, p50 %.3f ms, %zu over %.0f ms, "
      "late p99 %.3f ms, backlog slope %.2f/s -> %s\n",
      r->rate, r->requests, r->stopped ? " (stopped early)" : "",
      r->completed, r->latency_ms.empty() ? 0.0 : Median(r->latency_ms),
      over, kLimitMs,
      r->late_ms.empty() ? 0.0 : Percentile(r->late_ms, 0.99),
      r->backlog_slope, r->passed ? "meets limit" : "misses limit");
}

// Searches the ladder for the highest rate meeting the limit; returns
// the completed rate there (0 when no rung meets it) and sets `offered`.
// A burst at the top rung measures the rate the service completes
// requests at; the search starts at the highest rung within
// kStartHeadroom of it. From a miss it descends one rung at a time until
// a rung meets the limit (a miss stops early, so it is cheap); from a
// pass it ascends until a rung misses.
double SearchSlo(ServeState* st, uint64_t seed, Outcome* outcome,
                 double* offered) {
  const double top = kLadder[kLadderSize - 1];
  RungResult burst =
      RunRung(st, top, static_cast<double>(kBurstRequests) / top,
              SubSeed(seed, 299), 500'000'000, false, outcome);
  int rung = kLadderSize - 1;
  while (rung > 0 && kLadder[rung] > kStartHeadroom * burst.achieved_rps) {
    --rung;
  }
  std::printf("burst at %.0f req/s: %zu requests completed at %.1f req/s; "
              "search starts at %.0f req/s\n",
              top, burst.completed, burst.achieved_rps, kLadder[rung]);
  double slo = 0.0;
  *offered = 0.0;
  int direction = 0;  // +1 ascending, -1 descending, 0 first probe
  for (int probe = 0;; ++probe) {
    RungResult r = RunRung(
        st, kLadder[rung], static_cast<double>(kProbeRequests) / kLadder[rung],
        SubSeed(seed, 300 + probe), 501'000'000 + 1'000'000 * probe, true,
        outcome);
    Judge(&r);
    if (r.passed && r.rate > *offered) {
      slo = r.achieved_rps;
      *offered = r.rate;
    }
    const int step = r.passed ? 1 : -1;
    if (direction == -step || rung + step < 0 || rung + step >= kLadderSize) {
      return slo;
    }
    direction = step;
    rung += step;
  }
}

}  // namespace

std::vector<Arrival> MakeSchedule(uint64_t seed, double rate_per_s,
                                  double seconds, int num_kinds) {
  carl::Rng rng(seed);
  const size_t n = static_cast<size_t>(std::llround(rate_per_s * seconds));
  std::vector<Arrival> arrivals(n);
  const double span_ns = seconds * 1e9;
  for (Arrival& a : arrivals) {
    a.offset_ns = static_cast<uint64_t>(rng.Uniform(0.0, span_ns));
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) {
              return x.offset_ns < y.offset_ns;
            });
  // Exact mix, seeded order: the hot share, then the other kinds in
  // turn, shuffled. Counts do not vary with the seed, so neither does
  // the share of slow kinds in a run.
  std::vector<int> kinds(n, 0);
  const size_t hot =
      num_kinds <= 1 ? n : static_cast<size_t>(std::llround(kHotShare * n));
  const size_t others = static_cast<size_t>(std::max(1, num_kinds - 1));
  for (size_t i = hot; i < n; ++i) {
    kinds[i] = 1 + static_cast<int>((i - hot) % others);
  }
  rng.Shuffle(&kinds);
  for (size_t i = 0; i < n; ++i) arrivals[i].kind = kinds[i];
  return arrivals;
}

void RunServeRepeat(const RunArgs& args, Report* report, Outcome* outcome) {
  carl::ExecContext::Global().set_threads(1);
  std::unique_ptr<ServeState> st;
  std::vector<double> setups = TimeRepeatedSetup(
      1, [] {}, [&] { st = SetUp(args.seed, outcome); });
  std::printf("serve_repeat: %d workers, carl_exec 1, 1 connection + 1 "
              "sender thread, limit p99 <= %.0f ms\n",
              NumCpus(), kLimitMs);
  for (const Kind& kind : st->kinds) {
    std::printf("  %-7s %-72s direct %.3f ms\n", kind.instance,
                kind.query.c_str(), kind.direct_ms);
  }

  const double ref_rate = kReferenceRate;
  if (!args.trace) {
    RungResult ref = RunRung(st.get(), ref_rate, args.seconds,
                             SubSeed(args.seed, 200), 1'000'000, false,
                             outcome);
    Judge(&ref);
    // The peak covers one set-up and the run, as a serving process has
    // them. The further set-ups setup_s takes its median over come after
    // it: a torn-down set-up leaves allocator fragments to the next one.
    const double peak_rss_mb = PeakRssMb();
    std::vector<double> more = TimeRepeatedSetup(
        kSetups - 1, [&] { st.reset(); },
        [&] { st = SetUp(args.seed, outcome); });
    setups.insert(setups.end(), more.begin(), more.end());
    report->Add("setup_s", Median(setups), "s",
                carl::StrFormat("median of %d set-ups: datagen, direct "
                                "answers, service + TCP start, warm-up",
                                kSetups));
    report->Add("trimmed_mean_ms",
                ref.latency_ms.empty() ? 0.0 : TrimmedMean(ref.latency_ms, 0.1),
                "ms",
                "from scheduled send, " + PercentileNote(ref.latency_ms) +
                    carl::StrFormat(", %zu requests at %.0f req/s",
                                    ref.latency_ms.size(), ref.rate));
    report->Add("peak_rss_mb", peak_rss_mb, "MiB",
                "whole process: server and load generator, one set-up and "
                "the run");
    return;
  }

  // Untraced and traced chunks alternate, so drift in machine speed falls
  // on both sides of the overhead estimate alike. Traced chunks get six
  // times the untraced time, 1.5x the run's seconds, so the p99s they
  // report have 10 samples beyond them (1,080 requests in a 24 s run).
  constexpr int kTraceChunks = 3;
  const double untraced_s = args.seconds * 0.25 / kTraceChunks;
  const double traced_s = args.seconds * 1.5 / kTraceChunks;
  RungResult untraced, traced;
  carl::serve::ServeStats served;  // service deltas over the traced chunks
  uint64_t rung_allocs = 0;
  for (int i = 0; i < kTraceChunks; ++i) {
    Pool(&untraced,
         RunRung(st.get(), ref_rate, untraced_s, SubSeed(args.seed, 400 + 2 * i),
                 100'000'000 + 2'000'000 * i, false, outcome));
    carl::serve::ServeStats before = st->service->Snapshot();
    SpanLog::Global().set_armed(true);
    ArmAllocCounting(true);
    uint64_t a0 = AllocCount();
    Pool(&traced,
         RunRung(st.get(), ref_rate, traced_s, SubSeed(args.seed, 401 + 2 * i),
                 101'000'000 + 2'000'000 * i, false, outcome));
    rung_allocs += AllocCount() - a0;
    ArmAllocCounting(false);
    SpanLog::Global().set_armed(false);
    carl::serve::ServeStats after = st->service->Snapshot();
    served.admitted += after.admitted - before.admitted;
    served.rejected += after.rejected - before.rejected;
    served.deadline_preempted +=
        after.deadline_preempted - before.deadline_preempted;
    served.waves += after.waves - before.waves;
    served.coalesced += after.coalesced - before.coalesced;
  }
  Judge(&untraced);
  Judge(&traced);

  ArmAllocCounting(true);
  {
    auto query = carl::ParseQuery(st->kinds[0].query);
    CARL_CHECK_OK(query.status());
    uint64_t u0 = AllocCount();
    carl::Result<carl::UnitTable> table =
        st->hot_engine->BuildUnitTableForQuery(*query);
    uint64_t allocs = AllocCount() - u0;
    CARL_CHECK_OK(table.status());
    report->Add("core.unit_table.allocs_per_unit",
                static_cast<double>(allocs) /
                    static_cast<double>(std::max<size_t>(1, table->units.size())),
                "count",
                carl::StrFormat("%llu allocations / %zu units, hot query",
                                static_cast<unsigned long long>(allocs),
                                table->units.size()));
  }
  ArmAllocCounting(false);

  const std::string n = carl::StrFormat("%zu traced requests at %.0f req/s",
                                        traced.latency_ms.size(), ref_rate);
  const double requests = static_cast<double>(std::max<size_t>(1, traced.requests));
  const uint64_t admitted = served.admitted;
  report->Add("serve.queue_ms_p50", Median(traced.queue_ms), "ms", n);
  report->Add("serve.queue_ms_p99", Percentile(traced.queue_ms, 0.99), "ms", n);
  report->Add("serve.coalesce_ratio",
              admitted == 0 ? 0.0
                            : static_cast<double>(served.coalesced) /
                                  static_cast<double>(admitted),
              "ratio", "wave followers / admitted");
  report->Add("serve.waves",
              static_cast<double>(served.waves) / requests * 1000.0,
              "count", "waves per 1000 requests");
  report->Add("serve.rejected",
              static_cast<double>(served.rejected), "count",
              "admission rejections in the traced chunks");
  report->Add("serve.preempted",
              static_cast<double>(served.deadline_preempted), "count",
              "deadline pre-emptions in the traced chunks");
  report->Add("serve.engine_ms", Median(traced.engine_ms), "ms",
              "engine QueryTiming.total, median, " + n);
  report->Add("core.unit_table_ms", Median(traced.unit_table_ms), "ms",
              "served requests (QueryTiming), median, " + n);
  report->Add("core.resolve_ms", Median(traced.resolve_ms), "ms",
              "served requests (QueryTiming), median, " + n);
  report->Add("core.estimate_ms", Median(traced.estimate_ms), "ms",
              "served requests (QueryTiming), median, " + n);
  report->Add("serve.wire.encode_us", Median(traced.encode_us), "us",
              "EncodeRequest, median, " + n);
  report->Add("serve.wire.decode_us", Median(traced.decode_us), "us",
              "DecodeResponse, median, " + n);
  report->Add("serve.wire.bytes_per_request",
              static_cast<double>(traced.bytes) /
                  static_cast<double>(std::max<size_t>(1, traced.completed)),
              "B", "request + response frames");
  double tcp = Median(traced.tcp_ms);
  report->Add("serve.tcp.overhead_ms", tcp, "ms",
              "latency - lateness - encode - queue - engine - decode, median");
  report->Add("alloc.per_request",
              static_cast<double>(rung_allocs) / requests, "count",
              "process-wide heap allocations per request (server + client)");
  report->Add("gen.late_ms_p99", Percentile(traced.late_ms, 0.99), "ms",
              "sender lateness vs schedule, " + n);
  report->Add("gen.backlog_slope_rps", traced.backlog_slope, "1/s",
              "growth of outstanding requests over the traced rung");
  double offered = 0.0;
  double slo = SearchSlo(st.get(), args.seed, outcome, &offered);
  report->Add("serve.slo_rps", slo, "1/s",
              carl::StrFormat("untraced; completed rate at the highest rung "
                              "meeting p99 <= %.0f ms (%.0f req/s offered)",
                              kLimitMs, offered));
  report->Add("trace.overhead_ms",
              TrimmedMean(traced.latency_ms, 0.1) -
                  TrimmedMean(untraced.latency_ms, 0.1),
              "ms",
              carl::StrFormat("trimmed-mean latency traced - untraced, alternating "
                              "chunks (%zu vs %zu)",
                              traced.latency_ms.size(),
                              untraced.latency_ms.size()));
  // The TCP term is the residual of the latency, so adding it back would
  // make the coverage 1 by construction. Coverage counts only the terms
  // measured directly; what they miss is the TCP term less the write.
  report->Add("trace.span_coverage", Median(traced.covered), "ratio",
              "(lateness + encode + write + queue + engine + decode) / "
              "latency per request, median; the residual TCP term excluded");
}

}  // namespace perfbench
