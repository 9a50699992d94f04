// QuerySession: cached grounded state shared by every query (and every
// engine) over one relational instance.
//
// Grounding dominates end-to-end query cost (docs/benchmarks.md), and the
// engine's §4.3 unification re-grounds whenever a query derives a new
// aggregate attribute. A session interns each distinct grounding once,
// keyed by the model's full serialized rule set (fingerprints only route
// to a bucket; entries compare the exact text) — so a pipeline of queries
// grounds each *variant* once instead of once per query.
//
// Instance mutations do not blow the cache away. Each entry remembers the
// instance generation it was grounded at; on the next Ground() the
// session pulls the delta since then (Instance::DeltaSince) and picks the
// cheapest sound path:
//   1. the delta cannot touch this model's graph (facts of predicates
//      bearing no schema attribute and referenced by no rule atom) — the
//      cached grounding is served as a hit;
//   2. the delta is inside the incremental-extend contract
//      (DeltaSupportsIncrementalExtend) — the cached graph is extended in
//      delta-sized time (ExtendGroundedModel) instead of re-grounded;
//      counted as a ground_extends tick;
//   3. otherwise (trimmed log, overflow write, constraint-attribute
//      write, new rule constant) — full re-ground.
//
// Node values live only in the GroundedModel (NodeValue), refreshed by
// the same pass that grounds or extends it. The session also keeps a
// BindingCache of rule-condition binding tables (columnar, see
// binding_table.h): when a query derives an aggregate variant, the
// variant shares every base rule with its parent model, so re-grounding
// it reuses the parent's binding tables instead of re-running the joins.
// On mutation the binding cache is invalidated per-dependency (only
// tables whose atom predicates or constraint attributes were touched
// drop). Every full ground stages its inserts and commits them only when
// the pass succeeds, so a failed pass leaves the cache untouched.
//
// Sessions are not thread-safe; share one per pipeline thread. Cached
// GroundedModels reference a model copy owned by the session, so they
// stay valid for as long as the returned shared_ptr lives — even after
// the session itself is destroyed the entry keeps the model alive.

#ifndef CARL_CORE_QUERY_SESSION_H_
#define CARL_CORE_QUERY_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/causal_model.h"
#include "core/grounding.h"

namespace carl {

class QuerySession {
 public:
  /// The instance must outlive the session. Mutating it between queries
  /// is detected through the generation counter; cached groundings are
  /// then served, incrementally extended, or re-grounded per the delta
  /// (see the file comment) — never answered stale.
  explicit QuerySession(const Instance* instance);

  const Instance& instance() const { return *instance_; }

  /// The cached grounding of `model` against the session's instance,
  /// grounding on a miss. The model is copied into the cache entry; the
  /// returned GroundedModel references that stable copy.
  Result<std::shared_ptr<const GroundedModel>> Ground(
      const RelationalCausalModel& model);

  /// The session's cache counters — one per event, and the only copy:
  /// relaxed atomics, so this snapshot is safe to take from ANY thread,
  /// including while another thread (holding whatever external lock
  /// serializes Ground calls) is mutating the session. A server reports
  /// per-session cache efficacy from it without stopping the serving
  /// path. ground_full and ground_extends count *successful*
  /// passes only: a failed or guard-aborted Ground() leaves every field
  /// untouched, so ground_full + ground_extends is the number of
  /// groundings the session actually built.
  struct SessionStats {
    uint64_t cache_hits = 0;      ///< groundings served from cache
    uint64_t ground_full = 0;     ///< successful from-scratch grounds
    uint64_t ground_extends = 0;  ///< successful incremental extends
    uint64_t ground_evictions = 0;
  };
  SessionStats SnapshotStats() const;

  /// The session's rule-condition binding cache (columnar tables shared
  /// across groundings of model variants over the same instance state).
  const BindingCache& binding_cache() const { return binding_cache_; }

  /// Cache capacity in distinct groundings; inserting beyond it evicts
  /// the oldest entry (FIFO). Engines holding a shared_ptr to an evicted
  /// grounding keep it alive; only future reuse is lost.
  void set_max_cached_groundings(size_t max) {
    max_cached_groundings_ = max == 0 ? 1 : max;
  }

  /// Cached grounding count (distinct model variants).
  size_t num_cached_groundings() const;

 private:
  // A grounding and the model copy it references, owned together: the
  // cached shared_ptr<const GroundedModel> aliases into the holder, so
  // the model cannot outlive-race the grounding.
  struct GroundingHolder {
    std::shared_ptr<const RelationalCausalModel> model;
    GroundedModel grounded;
  };

  struct Entry {
    std::string model_text;  // exact key; fingerprints only route
    std::shared_ptr<GroundingHolder> holder;
    std::shared_ptr<const GroundedModel> grounded;  // aliases holder
    uint64_t grounded_generation = 0;  // instance state of the grounding
  };

  void EvictOldestEntry();
  // Grounds `model` from scratch through the staged binding cache: the
  // staged tables commit only when the pass succeeds. Ticks ground_full
  // on success.
  Result<std::shared_ptr<GroundingHolder>> GroundFull(
      std::shared_ptr<const RelationalCausalModel> model);
  // Installs a freshly grounded/extended model into `entry`, re-aliasing
  // the handed-out pointer.
  void InstallGrounding(Entry* entry, std::shared_ptr<GroundingHolder> holder,
                        uint64_t generation);

  const Instance* instance_;
  BindingCache binding_cache_;
  // Instance generation the binding cache was last reconciled to.
  uint64_t binding_cache_generation_ = 0;
  // Fingerprint -> entries (collisions resolved by model_text equality).
  std::unordered_map<uint64_t, std::vector<Entry>> cache_;
  // Insertion order of (fingerprint, model_text), oldest first — the
  // FIFO eviction queue.
  std::vector<std::pair<uint64_t, std::string>> insertion_order_;
  size_t max_cached_groundings_ = 16;
  // Behind SnapshotStats(); see its comment.
  struct LiveStats {
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> ground_full{0};
    std::atomic<uint64_t> ground_extends{0};
    std::atomic<uint64_t> ground_evictions{0};
  };
  LiveStats live_stats_;
};

}  // namespace carl

#endif  // CARL_CORE_QUERY_SESSION_H_
