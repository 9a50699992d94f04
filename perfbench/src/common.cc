#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/str_util.h"
#include "datagen/mimic.h"
#include "datagen/nis.h"
#include "datagen/review.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int NumCpus() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

uint64_t Fnv(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

uint64_t CanonicalGraphFingerprint(const carl::GroundedModel& grounded) {
  const carl::CausalGraph& graph = grounded.graph();
  std::vector<uint64_t> items;
  for (carl::NodeId id = 0; id < static_cast<carl::NodeId>(graph.num_nodes());
       ++id) {
    const std::string name = grounded.NodeName(id);
    std::optional<double> v = grounded.NodeValue(id);
    uint64_t bits = 0;
    if (v.has_value()) {
      std::memcpy(&bits, &*v, sizeof(bits));
      bits += 1;
    }
    items.push_back(Fnv(name) ^ (bits * 0x9e3779b97f4a7c15ull));
    for (carl::NodeId p : graph.Parents(id)) {
      items.push_back(Fnv(name, Fnv(grounded.NodeName(p) + " -> ")));
    }
  }
  std::sort(items.begin(), items.end());
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t item : items) {
    h ^= item + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  }
  return h;
}

void Outcome::Fail(const std::string& message) {
  if (++failed_ <= 8) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", message.c_str());
  }
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_[name] = Metric{value, unit, note};
}

void Report::CopyFrom(const Report& other, const std::string& name,
                      const std::string& workload) {
  Metric m = other.metrics_.at(name);
  m.note = workload + ": " + m.note;
  metrics_[name] = m;
}

std::vector<std::string> Report::names() const {
  std::vector<std::string> out;
  for (const auto& entry : metrics_) out.push_back(entry.first);
  return out;
}

void Report::Print(const Outcome& outcome) const {
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-34s = %.6g %s  (%s)\n", name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  double error_rate =
      outcome.attempted() == 0
          ? 1.0
          : static_cast<double>(outcome.failed()) /
                static_cast<double>(outcome.attempted());
  std::printf("error_rate = %.6g (%llu failed, refused or wrong of %llu "
              "attempted)\n",
              error_rate, static_cast<unsigned long long>(outcome.failed()),
              static_cast<unsigned long long>(outcome.attempted()));
  std::string json = "{\"correct\": ";
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted());
  json += ", \"failed\": " + std::to_string(outcome.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += carl::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            name.c_str(), m.value, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string PercentileNote(const std::vector<double>& latency_ms) {
  if (latency_ms.empty()) return "no samples";
  std::string p99 = "n/a";
  if (PercentileSupported(latency_ms.size(), 0.99)) {
    p99 = carl::StrFormat("%.4f", Percentile(latency_ms, 0.99));
  }
  return carl::StrFormat("p50 %.4f, p99 %s", Median(latency_ms), p99.c_str());
}

std::vector<double> TimeRepeatedSetup(int times,
                                      const std::function<void()>& teardown,
                                      const std::function<void()>& build) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    teardown();
    uint64_t t0 = NowNs();
    build();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return seconds;
}

carl::datagen::Dataset MakeMimic(uint64_t seed, size_t patients,
                                 size_t caregivers) {
  carl::datagen::MimicConfig config;
  config.num_patients = patients;
  config.num_caregivers = caregivers;
  config.seed = SubSeed(seed, 101);
  carl::Result<carl::datagen::Dataset> data = carl::datagen::GenerateMimic(config);
  CARL_CHECK_OK(data.status());
  return std::move(*data);
}

carl::datagen::Dataset MakeNis(uint64_t seed, size_t admissions,
                               size_t hospitals) {
  carl::datagen::NisConfig config;
  config.num_admissions = admissions;
  config.num_hospitals = hospitals;
  config.seed = SubSeed(seed, 102);
  carl::Result<carl::datagen::Dataset> data = carl::datagen::GenerateNis(config);
  CARL_CHECK_OK(data.status());
  return std::move(*data);
}

carl::datagen::Dataset MakeReview(uint64_t seed,
                                  carl::datagen::ReviewConfig config,
                                  bool drop_avg_rule) {
  config.seed = SubSeed(seed, 103);
  carl::Result<carl::datagen::ReviewData> data =
      carl::datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());
  carl::datagen::Dataset dataset = std::move(data->dataset);
  if (drop_avg_rule) {
    const std::string rule = "AVG_Score[A] <= Score[S] WHERE Author(A, S)";
    size_t at = dataset.model_text.find(rule);
    CARL_CHECK(at != std::string::npos) << "REVIEW model lost its AVG rule";
    dataset.model_text.erase(at, rule.size());
  }
  return dataset;
}

carl::RelationalCausalModel ParseModel(const carl::datagen::Dataset& data) {
  carl::Result<carl::RelationalCausalModel> model =
      carl::RelationalCausalModel::Parse(*data.schema, data.model_text);
  CARL_CHECK_OK(model.status());
  return std::move(*model);
}

bool AnswerBits::operator==(const AnswerBits& o) const {
  return effects == o.effects && BitEqual(a, o.a) && BitEqual(b, o.b) &&
         BitEqual(c, o.c) && units == o.units;
}

std::string AnswerBits::ToString() const {
  return carl::StrFormat("%s(%.17g, %.17g, %.17g, units=%llu)",
                         effects ? "effects" : "ate", a, b, c,
                         static_cast<unsigned long long>(units));
}

AnswerBits BitsOf(const carl::QueryAnswer& answer) {
  AnswerBits bits;
  if (answer.effects.has_value()) {
    bits.effects = true;
    bits.a = answer.effects->aie.value;
    bits.b = answer.effects->are.value;
    bits.c = answer.effects->aoe.value;
    bits.units = answer.effects->num_units;
  } else if (answer.ate.has_value()) {
    bits.a = answer.ate->ate.value;
    bits.b = answer.ate->naive.difference;
    bits.units = answer.ate->num_units;
  }
  return bits;
}

}  // namespace perfbench
