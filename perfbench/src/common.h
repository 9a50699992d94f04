// Shared pieces of the three workloads: run arguments, seeded inputs,
// correctness accounting and the result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/dataset.h"
#include "datagen/review.h"
#include "lang/parser.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Deterministic per-purpose seed derived from the run seed (splitmix64).
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// Hardware threads, at least 1.
int NumCpus();

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Canonical fingerprint of a grounded graph: the sorted set of nodes
/// (name and value bits) and edges (parent and child names). Node ids and
/// edge order do not enter, so an extended grounding and a fresh ground of
/// the same instance agree exactly when they hold the same graph and
/// bit-identical values.
uint64_t CanonicalGraphFingerprint(const carl::GroundedModel& grounded);

/// Correctness accounting of one run. A failed, refused or wrong answer
/// counts once; the first few are described on stderr.
class Outcome {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& message);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Metrics of one run, printed as `metric <name> = <value> <unit> (...)`
/// lines followed by the final JSON result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  /// Copies metric `name` from `other`, noting which workload measured it.
  void CopyFrom(const Report& other, const std::string& name,
                const std::string& workload);
  std::vector<std::string> names() const;
  /// Prints every metric line, the error rate, and the JSON result line.
  void Print(const Outcome& outcome) const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::string note;
  };
  std::map<std::string, Metric> metrics_;
};

/// "p50 <ms>, p99 <ms>" of a latency sample; p99 reads "n/a" when fewer
/// than kMinBeyond samples lie beyond it.
std::string PercentileNote(const std::vector<double>& latency_ms);

/// Times `build` `times` times, running `teardown` (untimed) before
/// each rebuild; returns the seconds of each build.
std::vector<double> TimeRepeatedSetup(int times,
                                      const std::function<void()>& teardown,
                                      const std::function<void()>& build);

// ---- seeded inputs -------------------------------------------------------

carl::datagen::Dataset MakeMimic(uint64_t seed, size_t patients,
                                 size_t caregivers);
carl::datagen::Dataset MakeNis(uint64_t seed, size_t admissions,
                               size_t hospitals);
/// REVIEW data of `config`'s sizes and effects, seeded from `seed`; with
/// `drop_avg_rule` the model omits its AVG_Score aggregate rule, so a
/// query on AVG_Score derives it (paper §4.3).
carl::datagen::Dataset MakeReview(uint64_t seed,
                                  carl::datagen::ReviewConfig config,
                                  bool drop_avg_rule);

/// Parses `data`'s program; aborts on failure.
carl::RelationalCausalModel ParseModel(const carl::datagen::Dataset& data);

/// The comparable bits of an answer: ATE (value, naive difference, unit
/// count) or relational effects (AIE, ARE, AOE, unit count).
struct AnswerBits {
  bool effects = false;
  double a = 0.0, b = 0.0, c = 0.0;
  uint64_t units = 0;
  bool operator==(const AnswerBits& o) const;
  std::string ToString() const;
};
AnswerBits BitsOf(const carl::QueryAnswer& answer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
