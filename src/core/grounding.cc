#include "core/grounding.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_map>

#include "common/logging.h"
#include "exec/parallel.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "relational/evaluator.h"

namespace carl {

size_t PlanBindingShards(size_t candidates, int threads) {
  if (threads <= 1) return 1;
  size_t max_by_size = candidates / kBindingShardMinRows;
  size_t shards = std::min(static_cast<size_t>(threads) * 4, max_by_size);
  if (shards <= 1) return 1;
  // Defensive clamp: the balanced split [c*s/n, c*(s+1)/n) has a smallest
  // shard of floor(candidates / shards) rows; shrink until it clears the
  // per-shard floor so no task is woken for under-threshold work.
  while (shards > 1 && candidates / shards < kBindingShardMinRows) {
    --shards;
  }
  return shards;
}

std::shared_ptr<const BindingTable> BindingCache::Find(BindingKeyId key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    return it->second.table;
  }
  if (staging_) {
    for (const auto& [staged_key, entry] : staged_) {
      if (staged_key == key) {
        ++hits_;
        return entry.table;
      }
    }
  }
  ++misses_;
  return nullptr;
}

void BindingCache::Insert(BindingKeyId key,
                          std::shared_ptr<const BindingTable> table,
                          BindingDeps deps) {
  if (staging_) {
    // Staged pass: buffer the insert; committed entries stay untouched
    // until CommitStaging so an abort restores the pre-pass cache exactly.
    for (const auto& [staged_key, entry] : staged_) {
      if (staged_key == key) return;  // first producer wins
    }
    if (entries_.count(key) > 0) return;
    staged_.emplace_back(key,
                         CacheEntry{std::move(table), std::move(deps)});
    return;
  }
  if (entries_.count(key) > 0) return;  // first producer wins
  size_t incoming = table->arena_bytes();
  while (!insertion_order_.empty() &&
         (entries_.size() >= kMaxEntries ||
          total_bytes_ + incoming > kMaxBytes)) {
    auto it = entries_.find(insertion_order_.front());
    if (it != entries_.end()) {
      total_bytes_ -= it->second.table->arena_bytes();
      entries_.erase(it);
    }
    insertion_order_.erase(insertion_order_.begin());
  }
  total_bytes_ += incoming;
  insertion_order_.push_back(key);
  entries_.emplace(key, CacheEntry{std::move(table), std::move(deps)});
}

void BindingCache::Invalidate(const InstanceDelta& delta) {
  if (!delta.complete) {
    CARL_LOG(WARN) << "binding cache cleared wholesale: incomplete instance "
                      "delta (trimmed log) — dropping " << entries_.size()
                   << " cached table(s), " << total_bytes_ << " bytes";
    Clear();
    return;
  }
  if (delta.empty() || entries_.empty()) return;
  std::vector<PredicateId> preds;
  preds.reserve(delta.facts.size());
  for (const InstanceDelta::FactDelta& f : delta.facts) {
    preds.push_back(f.predicate);
  }
  std::sort(preds.begin(), preds.end());
  std::vector<AttributeId> attrs;
  attrs.reserve(delta.attributes.size());
  for (const InstanceDelta::AttributeDelta& a : delta.attributes) {
    attrs.push_back(a.attribute);
  }
  std::sort(attrs.begin(), attrs.end());
  auto intersects = [](const auto& sorted_a, const auto& sorted_b) {
    auto a = sorted_a.begin();
    auto b = sorted_b.begin();
    while (a != sorted_a.end() && b != sorted_b.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        return true;
      }
    }
    return false;
  };
  for (auto it = entries_.begin(); it != entries_.end();) {
    const BindingDeps& deps = it->second.deps;
    if (intersects(deps.predicates, preds) ||
        intersects(deps.attributes, attrs)) {
      total_bytes_ -= it->second.table->arena_bytes();
      insertion_order_.erase(std::remove(insertion_order_.begin(),
                                         insertion_order_.end(), it->first),
                             insertion_order_.end());
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void BindingCache::Clear() {
  entries_.clear();
  insertion_order_.clear();
  total_bytes_ = 0;
}

void BindingCache::CommitStaging() {
  staging_ = false;
  std::vector<std::pair<BindingKeyId, CacheEntry>> staged;
  staged.swap(staged_);
  for (auto& [key, entry] : staged) {
    Insert(key, std::move(entry.table), std::move(entry.deps));
  }
}

void BindingCache::AbortStaging() {
  staging_ = false;
  staged_.clear();
}

std::vector<std::pair<BindingKeyId, const BindingTable*>>
BindingCache::SnapshotEntries() const {
  std::vector<std::pair<BindingKeyId, const BindingTable*>> snapshot;
  snapshot.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    snapshot.emplace_back(key, entry.table.get());
  }
  std::sort(snapshot.begin(), snapshot.end());
  return snapshot;
}

namespace {

// Distinguished variables of a rule: all variables appearing in the head
// and body attribute references, in first-occurrence order.
std::vector<std::string> DistinguishedVars(
    const AttributeRef& head, const std::vector<const AttributeRef*>& body) {
  std::vector<std::string> vars;
  auto add = [&vars](const Term& t) {
    if (!t.is_variable()) return;
    for (const std::string& v : vars) {
      if (v == t.text) return;
    }
    vars.push_back(t.text);
  };
  for (const Term& t : head.args) add(t);
  for (const AttributeRef* ref : body) {
    for (const Term& t : ref->args) add(t);
  }
  return vars;
}

// An attribute reference compiled against the binding layout: each
// argument is either a binding slot or a pre-interned constant, so
// resolving a grounding is a flat array fill (no per-binding hash
// lookups or string interning).
struct CompiledRef {
  AttributeId attribute = kInvalidAttribute;
  std::vector<int> slots;            // >= 0: binding slot; -1: constant
  std::vector<SymbolId> constants;   // aligned with slots
  bool unresolvable = false;  // a constant was never interned -> no grounding
  // True when the resolved grounding IS the binding row (slots are the
  // identity permutation over the full row): probes and interns can pass
  // the binding's memoized row hash instead of re-hashing. Head refs hit
  // this constantly — DistinguishedVars orders head variables first.
  bool identity = false;

  size_t arity() const { return slots.size(); }

  // Fills out[0..arity) from a binding row; false when unresolvable.
  bool Resolve(TupleView binding, SymbolId* out) const {
    if (unresolvable) return false;
    for (size_t i = 0; i < slots.size(); ++i) {
      out[i] = slots[i] >= 0 ? binding[slots[i]] : constants[i];
    }
    return true;
  }
};

CompiledRef CompileRef(
    const Instance& instance, AttributeId attribute, const AttributeRef& ref,
    const std::unordered_map<std::string, size_t>& var_slots) {
  CompiledRef out;
  out.attribute = attribute;
  out.slots.reserve(ref.args.size());
  out.constants.reserve(ref.args.size());
  for (const Term& t : ref.args) {
    if (t.is_variable()) {
      auto it = var_slots.find(t.text);
      CARL_CHECK(it != var_slots.end())
          << "unbound variable in grounded ref: " << t.text;
      out.slots.push_back(static_cast<int>(it->second));
      out.constants.push_back(kInvalidSymbol);
    } else {
      SymbolId id = instance.LookupConstant(t.text);
      if (id == kInvalidSymbol) out.unresolvable = true;
      out.slots.push_back(-1);
      out.constants.push_back(id);
    }
  }
  out.identity = out.slots.size() == var_slots.size();
  for (size_t i = 0; i < out.slots.size() && out.identity; ++i) {
    if (out.slots[i] != static_cast<int>(i)) out.identity = false;
  }
  return out;
}

// Enumerates a rule condition's bindings into one columnar table,
// sharding the root atom's candidate rows across the pool when the input
// is large enough. The query is compiled once and the plan shared by
// every shard. Shard tables stream first-occurrence in shard order into
// the merged table, which reproduces the serial Evaluate() result exactly
// — so the binding sequence (and with it every downstream node/edge id)
// is thread-count independent. No owned Tuple is built anywhere.
Result<BindingTable> EnumerateBindings(
    const QueryEvaluator& evaluator, const ConjunctiveQuery& where,
    const std::vector<std::string>& vars, ExecContext& ctx) {
  CARL_TRACE_SCOPE("grounding.rule.enumerate");
  CARL_ASSIGN_OR_RETURN(PreparedQuery prepared, evaluator.Prepare(where));
  if (ctx.serial()) return evaluator.Evaluate(prepared, vars);
  CARL_ASSIGN_OR_RETURN(size_t candidates,
                        evaluator.CountRootCandidates(prepared));
  size_t shards = PlanBindingShards(candidates, ctx.threads());
  if (shards <= 1) return evaluator.Evaluate(prepared, vars);

  std::vector<BindingTable> shard_results(shards);
  std::vector<Status> shard_status(shards);
  ParallelFor(ctx, shards, [&](size_t begin, size_t end, size_t) {
    for (size_t s = begin; s < end; ++s) {
      Result<BindingTable> r =
          evaluator.EvaluateShard(prepared, vars, s, shards);
      if (r.ok()) {
        shard_results[s] = std::move(*r);
      } else {
        shard_status[s] = r.status();
      }
    }
  });
  for (const Status& s : shard_status) CARL_RETURN_IF_ERROR(s);
  // A stopped token makes ParallelFor skip chunks silently; surface it
  // here so a partially-enumerated table is never mistaken for a result.
  CARL_RETURN_IF_ERROR(guard::CheckPoint());

  size_t total = 0;
  for (const BindingTable& sr : shard_results) total += sr.size();
  BindingTable merged(vars.size());
  merged.Reserve(total);
  for (const BindingTable& sr : shard_results) {
    for (size_t r = 0; r < sr.size(); ++r) {
      // Reuse the shard table's memoized row hash — the merge never
      // re-hashes a binding.
      merged.InsertDistinct(sr.row(r).data(), sr.row_hash(r));
    }
  }
  return merged;
}

// Cache key of one rule condition's binding table. The projection order
// matters (it is the row layout), so it is part of the key. The pretty
// ToString forms are NOT sufficient on their own: numeric constraint
// values render at 6 significant digits (two distinct thresholds can
// print identically) and string values embed unescaped — so every
// constraint rhs is additionally encoded exactly (hex-float doubles,
// length-prefixed strings). A key collision here would silently reuse
// the wrong rule's bindings.
std::string BindingCacheKey(const ConjunctiveQuery& where,
                            const std::vector<std::string>& vars) {
  std::string key;
  for (const Atom& atom : where.atoms) {
    key += atom.ToString();
    key += ';';
  }
  for (const AttributeConstraint& c : where.constraints) {
    key += c.attribute;
    key += '(';
    for (const Term& t : c.args) {
      key += t.is_variable() ? 'V' : 'C';
      key += std::to_string(t.text.size());
      key += ':';
      key += t.text;
    }
    key += ')';
    key += CompareOpToString(c.op);
    switch (c.rhs.type()) {
      case ValueType::kNull:
        key += "null";
        break;
      case ValueType::kBool:
        key += c.rhs.bool_value() ? "b1" : "b0";
        break;
      case ValueType::kInt:
        key += 'i';
        key += std::to_string(c.rhs.int_value());
        break;
      case ValueType::kDouble: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "d%a", c.rhs.double_value());
        key += buf;
        break;
      }
      case ValueType::kString:
        key += 's';
        key += std::to_string(c.rhs.string_value().size());
        key += ':';
        key += c.rhs.string_value();
        break;
    }
    key += ';';
  }
  key += '|';
  for (const std::string& v : vars) {
    key += std::to_string(v.size());
    key += ':';
    key += v;
  }
  return key;
}

// The dependency set a cached table of `where`'s bindings is invalidated
// on: its atom predicates and constraint attributes.
BindingDeps DepsOf(const Schema& schema, const ConjunctiveQuery& where) {
  BindingDeps deps;
  for (const Atom& atom : where.atoms) {
    Result<PredicateId> pid = schema.FindPredicate(atom.predicate);
    if (pid.ok()) deps.predicates.push_back(*pid);
  }
  for (const AttributeConstraint& c : where.constraints) {
    Result<AttributeId> aid = schema.FindAttribute(c.attribute);
    if (aid.ok()) deps.attributes.push_back(*aid);
  }
  std::sort(deps.predicates.begin(), deps.predicates.end());
  deps.predicates.erase(
      std::unique(deps.predicates.begin(), deps.predicates.end()),
      deps.predicates.end());
  std::sort(deps.attributes.begin(), deps.attributes.end());
  deps.attributes.erase(
      std::unique(deps.attributes.begin(), deps.attributes.end()),
      deps.attributes.end());
  return deps;
}

Result<std::shared_ptr<const BindingTable>> EnumerateBindingsCached(
    const QueryEvaluator& evaluator, const Schema& schema,
    const ConjunctiveQuery& where, const std::vector<std::string>& vars,
    ExecContext& ctx, BindingCache* cache) {
  // The exact key string is built and hashed once, here; everything
  // downstream (lookup, staging scans, eviction, snapshots) compares the
  // interned dense id.
  BindingKeyId key = kInvalidBindingKey;
  if (cache != nullptr) {
    key = cache->InternKey(BindingCacheKey(where, vars));
    if (std::shared_ptr<const BindingTable> hit = cache->Find(key)) {
      return hit;
    }
  }
  CARL_ASSIGN_OR_RETURN(BindingTable table,
                        EnumerateBindings(evaluator, where, vars, ctx));
  auto shared = std::make_shared<const BindingTable>(std::move(table));
  if (cache != nullptr) {
    cache->Insert(key, shared, DepsOf(schema, where));
  }
  return shared;
}

// One rule ready to merge: its enumerated bindings plus compiled head and
// body references. Causal rules first, aggregate rules after — the vector
// order is the model's rule order, and the merge order.
struct CompiledRule {
  std::shared_ptr<const BindingTable> bindings;
  CompiledRef head;
  std::vector<CompiledRef> body;
  // Causal rules skip only the failing body edge (the head grounding
  // still counts); aggregate rules skip the whole binding unless head
  // and source both resolve.
  bool require_all = false;

  size_t max_arity() const {
    size_t m = std::max<size_t>(head.arity(), 1);
    for (const CompiledRef& b : body) m = std::max(m, b.arity());
    return m;
  }
};

// Per-binding probe slots of one rule (phase A output).
enum : uint8_t { kSkip = 0, kFound = 1, kMiss = 2 };
struct RuleProbe {
  std::vector<NodeId> head_node;
  std::vector<uint8_t> head_state;
  std::vector<NodeId> body_node;
  std::vector<uint8_t> body_state;
};

// Phase A body: resolve bindings [begin, end) of one rule and probe the
// graph's node interner read-only, results into per-binding slots.
void ProbeRuleRange(const CompiledRule& rule, const CausalGraph& graph,
                    size_t begin, size_t end, RuleProbe* probe) {
  CARL_TRACE_SCOPE("grounding.rule.probe");
  const BindingTable& bindings = *rule.bindings;
  const size_t nbody = rule.body.size();
  std::vector<SymbolId> buf(rule.max_arity());
  for (size_t i = begin; i < end; ++i) {
    TupleView binding = bindings.row(i);
    // Identity refs probe with the binding's memoized row hash — the
    // probe never re-hashes a grounding key it already owns.
    if (rule.head.identity) {
      NodeId n = graph.FindNode(rule.head.attribute, binding,
                                bindings.row_hash(i));
      probe->head_state[i] = n == kInvalidNode ? kMiss : kFound;
      probe->head_node[i] = n;
    } else if (rule.head.Resolve(binding, buf.data())) {
      NodeId n = graph.FindNode(rule.head.attribute,
                                TupleView(buf.data(), rule.head.arity()));
      probe->head_state[i] = n == kInvalidNode ? kMiss : kFound;
      probe->head_node[i] = n;
    }
    for (size_t b = 0; b < nbody; ++b) {
      NodeId n;
      if (rule.body[b].identity) {
        n = graph.FindNode(rule.body[b].attribute, binding,
                           bindings.row_hash(i));
      } else {
        if (!rule.body[b].Resolve(binding, buf.data())) continue;
        n = graph.FindNode(rule.body[b].attribute,
                           TupleView(buf.data(), rule.body[b].arity()));
      }
      probe->body_state[i * nbody + b] = n == kInvalidNode ? kMiss : kFound;
      probe->body_node[i * nbody + b] = n;
    }
  }
}

// Whether binding `i` of one rule survives the skip checks: the head
// resolves and, for aggregate rules, every body ref resolves too.
inline bool AcceptedBinding(const CompiledRule& rule, const RuleProbe& probe,
                            size_t i, size_t nbody) {
  if (probe.head_state[i] == kSkip) return false;
  if (rule.require_all) {
    for (size_t b = 0; b < nbody; ++b) {
      if (probe.body_state[i * nbody + b] == kSkip) return false;
    }
  }
  return true;
}

// Merges every rule's groundings into the graph, cross-rule parallel, in
// the same steps at every thread count. Phase A resolves every rule's
// references and probes the graph's node interner read-only across ALL
// rules at once (the hash-heavy part — after step 1's bulk build nearly
// every grounding already has a node, and the rules only conflict on node
// interning, which the probe never mutates). Phase B is the splice:
// per-chunk prefix sums over the accepted probes compute every edge's
// destination up front, a serial pass interns the rare misses in exact
// rule/binding order, the chunks then fill one flat edge array
// concurrently at disjoint offsets, and one AddEdges commits it in rule
// order. Node ids, edge order, and num_groundings are bit-identical for
// every thread count. `splice_s` (optional) receives phase B's wall time.
void MergeAllRuleGroundings(const std::vector<CompiledRule>& rules,
                            ExecContext& ctx, CausalGraph* graph,
                            size_t* num_groundings, double* splice_s) {
  // Phase A (parallel): one flat job list over every rule's deterministic
  // chunk plan, so small rules ride along with large ones and the pool
  // stays balanced across rules.
  struct ProbeChunk {
    size_t rule;
    size_t begin;
    size_t end;
  };
  std::vector<ProbeChunk> chunks;
  std::vector<RuleProbe> probes(rules.size());
  for (size_t r = 0; r < rules.size(); ++r) {
    const size_t nb = rules[r].bindings->size();
    const size_t nbody = rules[r].body.size();
    probes[r].head_node.assign(nb, kInvalidNode);
    probes[r].head_state.assign(nb, kSkip);
    probes[r].body_node.assign(nb * nbody, kInvalidNode);
    probes[r].body_state.assign(nb * nbody, kSkip);
    for (const auto& [begin, end] : ctx.Chunks(nb)) {
      chunks.push_back(ProbeChunk{r, begin, end});
    }
  }
  ParallelFor(ctx, chunks.size(), [&](size_t begin, size_t end, size_t) {
    for (size_t c = begin; c < end; ++c) {
      const ProbeChunk& chunk = chunks[c];
      ProbeRuleRange(rules[chunk.rule], *graph, chunk.begin, chunk.end,
                     &probes[chunk.rule]);
    }
  });
  // A stopped token leaves probe chunks unwritten (all-kSkip); committing
  // a splice over them would record a wrong-but-plausible merge.
  if (guard::StopRequested()) return;

  obs::MonotonicTimer splice_timer;

  // B1 (parallel): count each chunk's accepted groundings and live edges,
  // and flag chunks that intern at least one miss.
  std::vector<size_t> chunk_edges(chunks.size(), 0);
  std::vector<size_t> chunk_groundings(chunks.size(), 0);
  std::vector<uint8_t> chunk_has_miss(chunks.size(), 0);
  {
    CARL_TRACE_SCOPE("splice.prefix_sum");
    ParallelFor(ctx, chunks.size(), [&](size_t begin, size_t end, size_t) {
      for (size_t c = begin; c < end; ++c) {
        const ProbeChunk& chunk = chunks[c];
        const CompiledRule& rule = rules[chunk.rule];
        const RuleProbe& probe = probes[chunk.rule];
        const size_t nbody = rule.body.size();
        size_t edges = 0, groundings = 0;
        uint8_t has_miss = 0;
        for (size_t i = chunk.begin; i < chunk.end; ++i) {
          if (!AcceptedBinding(rule, probe, i, nbody)) continue;
          ++groundings;
          has_miss |= probe.head_state[i] == kMiss;
          for (size_t b = 0; b < nbody; ++b) {
            uint8_t state = probe.body_state[i * nbody + b];
            if (state == kSkip) continue;
            ++edges;
            has_miss |= state == kMiss;
          }
        }
        chunk_edges[c] = edges;
        chunk_groundings[c] = groundings;
        chunk_has_miss[c] = has_miss;
      }
    });
  }
  if (guard::StopRequested()) return;

  // Serial exclusive scan: each chunk's base offset within the flat edge
  // array (chunks are in rule-then-binding order, so the array is too),
  // plus the grand grounding count.
  std::vector<size_t> chunk_edge_base(chunks.size(), 0);
  size_t total_edges = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    chunk_edge_base[c] = total_edges;
    total_edges += chunk_edges[c];
    *num_groundings += chunk_groundings[c];
  }

  // B2 (serial): intern the probe misses in the exact order the serial
  // merge would — rule order, binding order, head before bodies — writing
  // the fresh node ids back into the probe slots. Only miss-flagged
  // chunks are walked; after step 1's bulk build they are rare.
  {
    std::vector<SymbolId> scratch;
    for (size_t c = 0; c < chunks.size(); ++c) {
      if (!chunk_has_miss[c]) continue;
      const ProbeChunk& chunk = chunks[c];
      const CompiledRule& rule = rules[chunk.rule];
      RuleProbe& probe = probes[chunk.rule];
      const BindingTable& bindings = *rule.bindings;
      const size_t nbody = rule.body.size();
      scratch.resize(rule.max_arity());
      for (size_t i = chunk.begin; i < chunk.end; ++i) {
        if (!AcceptedBinding(rule, probe, i, nbody)) continue;
        if (probe.head_state[i] == kMiss) {
          TupleView binding = bindings.row(i);
          probe.head_node[i] =
              rule.head.identity
                  ? graph->AddNode(rule.head.attribute, binding,
                                   bindings.row_hash(i))
                  : (rule.head.Resolve(binding, scratch.data()),
                     graph->AddNode(
                         rule.head.attribute,
                         TupleView(scratch.data(), rule.head.arity())));
          probe.head_state[i] = kFound;
        }
        for (size_t b = 0; b < nbody; ++b) {
          if (probe.body_state[i * nbody + b] != kMiss) continue;
          TupleView binding = bindings.row(i);
          const CompiledRef& ref = rule.body[b];
          probe.body_node[i * nbody + b] =
              ref.identity
                  ? graph->AddNode(ref.attribute, binding,
                                   bindings.row_hash(i))
                  : (ref.Resolve(binding, scratch.data()),
                     graph->AddNode(ref.attribute,
                                    TupleView(scratch.data(), ref.arity())));
          probe.body_state[i * nbody + b] = kFound;
        }
      }
    }
  }

  // B3 (parallel): every node id is now known, so the chunks fill the
  // flat edge array concurrently at the disjoint offsets the prefix sums
  // assigned.
  std::vector<CausalGraph::Edge> edges(total_edges);
  {
    CARL_TRACE_SCOPE("splice.parallel");
    ParallelFor(ctx, chunks.size(), [&](size_t begin, size_t end, size_t) {
      for (size_t c = begin; c < end; ++c) {
        const ProbeChunk& chunk = chunks[c];
        const CompiledRule& rule = rules[chunk.rule];
        const RuleProbe& probe = probes[chunk.rule];
        const size_t nbody = rule.body.size();
        size_t at = chunk_edge_base[c];
        for (size_t i = chunk.begin; i < chunk.end; ++i) {
          if (!AcceptedBinding(rule, probe, i, nbody)) continue;
          NodeId h = probe.head_node[i];
          for (size_t b = 0; b < nbody; ++b) {
            if (probe.body_state[i * nbody + b] == kSkip) continue;
            CARL_DCHECK(at < edges.size());
            edges[at++] = CausalGraph::Edge{probe.body_node[i * nbody + b], h};
          }
        }
        CARL_DCHECK(at == chunk_edge_base[c] + chunk_edges[c]);
      }
    });
  }
  // A stop mid-fill leaves default Edge slots; committing them would
  // splice garbage edges.
  if (guard::StopRequested()) return;

  // B4: one commit, rule order == array order.
  graph->AddEdges(edges);
  if (splice_s != nullptr) *splice_s += splice_timer.Seconds();
}

// Compiles every rule of `model` into a merge job whose bindings come
// from `enumerate`. Causal rules first, then aggregate rules (all-or-
// nothing per binding: head and source must both resolve) — the vector
// order is the merge order.
Result<std::vector<CompiledRule>> CompileRules(
    const Instance& instance, const RelationalCausalModel& model,
    const BindingSource& enumerate) {
  const Schema& schema = model.extended_schema();
  std::vector<CompiledRule> compiled;
  compiled.reserve(model.rules().size() + model.aggregate_rules().size());
  auto compile = [&](const AttributeRef& head,
                     const std::vector<const AttributeRef*>& body,
                     const ConjunctiveQuery& where,
                     bool require_all) -> Status {
    std::vector<std::string> vars = DistinguishedVars(head, body);
    std::unordered_map<std::string, size_t> var_slots;
    for (size_t i = 0; i < vars.size(); ++i) var_slots.emplace(vars[i], i);

    CompiledRule job;
    job.require_all = require_all;
    CARL_ASSIGN_OR_RETURN(job.bindings, enumerate(where, vars));
    CARL_ASSIGN_OR_RETURN(AttributeId head_attr,
                          schema.FindAttribute(head.attribute));
    job.head = CompileRef(instance, head_attr, head, var_slots);
    job.body.reserve(body.size());
    for (const AttributeRef* b : body) {
      CARL_ASSIGN_OR_RETURN(AttributeId aid,
                            schema.FindAttribute(b->attribute));
      job.body.push_back(CompileRef(instance, aid, *b, var_slots));
    }
    compiled.push_back(std::move(job));
    return Status::OK();
  };
  for (const CausalRule& rule : model.rules()) {
    std::vector<const AttributeRef*> body;
    body.reserve(rule.body.size());
    for (const AttributeRef& b : rule.body) body.push_back(&b);
    CARL_RETURN_IF_ERROR(compile(rule.head, body, rule.where,
                                 /*require_all=*/false));
  }
  for (const AggregateRule& rule : model.aggregate_rules()) {
    CARL_RETURN_IF_ERROR(compile(rule.head, {&rule.source}, rule.where,
                                 /*require_all=*/true));
  }
  return compiled;
}

}  // namespace

void GroundedModel::TagAggregateNodes(size_t first_node) {
  const size_t n = graph_.num_nodes();
  node_has_aggregate_.resize(n, 0);
  node_aggregate_.resize(n, AggregateKind::kAvg);
  const Schema& schema = model_->extended_schema();
  for (const AggregateRule& rule : model_->aggregate_rules()) {
    Result<AttributeId> aid = schema.FindAttribute(rule.head.attribute);
    if (!aid.ok()) continue;
    for (NodeId node : graph_.NodesOfAttribute(*aid)) {
      if (static_cast<size_t>(node) >= first_node) {
        node_has_aggregate_[node] = 1;
        node_aggregate_[node] = rule.aggregate;
      }
    }
  }
}

std::optional<AggregateKind> GroundedModel::NodeAggregate(NodeId id) const {
  CARL_CHECK(id >= 0 && static_cast<size_t>(id) < node_has_aggregate_.size());
  if (!node_has_aggregate_[id]) return std::nullopt;
  return node_aggregate_[id];
}

std::optional<double> GroundedModel::NodeValue(NodeId id) const {
  CARL_CHECK(id >= 0 && static_cast<size_t>(id) < value_state_.size());
  if (value_state_[id] != 2) return std::nullopt;
  return value_cache_[id];
}

void GroundedModel::UpdateValues(
    const std::vector<uint32_t>& watermarks,
    const std::vector<InstanceDelta::AttributeDelta>& written,
    size_t nodes_before, size_t edges_before,
    const std::vector<NodeId>& topo_order) {
  const size_t n = graph_.num_nodes();
  value_state_.resize(n, 1);
  value_cache_.resize(n, 0.0);

  // Base attributes: the fact rows at or past the watermark, plus the
  // rows written in the window, read off the instance's typed column.
  // An attribute's first NumRows(predicate) nodes are row-aligned with
  // that column (step 1 builds and extends them in row order), so the hot
  // path is a present-masked copy, no per-node hash probe. The one
  // FindAttributeValue fallback serves values living in the overflow map
  // (set before their fact existed) and the non-fact groundings this pass
  // added. Extended-schema attributes (derived aggregates) are unknown to
  // the instance: every one of their nodes is aggregate-tagged and valued
  // by the topological pass below, never by a column read.
  auto slow_path = [this](NodeId id) {
    const GroundedAttribute g = graph_.node(id);
    const Value* v = instance_->FindAttributeValue(
        g.attribute, g.args.data(), g.args.size());
    const bool numeric = v != nullptr && v->is_numeric();
    if (numeric) value_cache_[id] = v->AsDouble();
    value_state_[id] = numeric ? 2 : 1;
  };
  const std::vector<AttributeDef>& attrs = instance_->schema().attributes();
  std::vector<const std::vector<uint32_t>*> written_rows(attrs.size(),
                                                         nullptr);
  for (const InstanceDelta::AttributeDelta& ad : written) {
    written_rows[ad.attribute] = &ad.rows;
  }
  ParallelFor(ExecContext::Global(), attrs.size(),
              [&](size_t begin, size_t end, size_t) {
    for (size_t a = begin; a < end; ++a) {
      const AttributeDef& attr = attrs[a];
      const std::vector<NodeId>& nodes = graph_.NodesOfAttribute(attr.id);
      const size_t facts =
          std::min(nodes.size(), instance_->NumRows(attr.predicate));
      const Instance::NumericColumn col = instance_->NumericColumnOf(attr.id);
      auto read_row = [&](size_t r) {
        NodeId id = nodes[r];
        if (node_has_aggregate_[id]) return;
        if (r < col.num_rows && col.present[r]) {
          value_cache_[id] = col.values[r];
          value_state_[id] = 2;
        } else if (col.may_overflow) {
          slow_path(id);
        } else {
          value_state_[id] = 1;
        }
      };
      const size_t watermark = watermarks[attr.predicate];
      for (size_t r = watermark; r < facts; ++r) read_row(r);
      if (written_rows[a] != nullptr) {
        for (uint32_t r : *written_rows[a]) {
          if (r < watermark && r < facts) read_row(r);
        }
      }
      // Non-fact groundings keep creation order past the row-aligned
      // prefix, so the ones this pass added are that tail's suffix.
      for (size_t r = nodes.size(); r > facts && nodes[r - 1] >=
                                        static_cast<NodeId>(nodes_before);
           --r) {
        if (!node_has_aggregate_[nodes[r - 1]]) slow_path(nodes[r - 1]);
      }
    }
  });

  // Aggregates to recompute: every aggregate node this pass added, and
  // the older ones a change reaches — targets of new edges and children
  // of written rows, closed under aggregate children. A fresh ground adds
  // every aggregate, so nothing older exists to reach.
  std::vector<char> dirty(n, 0);
  for (size_t id = nodes_before; id < n; ++id) {
    dirty[id] = node_has_aggregate_[id];
  }
  if (nodes_before > 0) {
    std::vector<NodeId> reached;
    auto touch = [&](NodeId id) {
      if (node_has_aggregate_[id] && !dirty[id]) {
        dirty[id] = 1;
        reached.push_back(id);
      }
    };
    const std::vector<CausalGraph::Edge>& edge_log = graph_.edge_log();
    for (size_t e = edges_before; e < edge_log.size(); ++e) {
      touch(edge_log[e].to);
    }
    for (const InstanceDelta::AttributeDelta& ad : written) {
      const std::vector<NodeId>& nodes = graph_.NodesOfAttribute(ad.attribute);
      for (uint32_t row : ad.rows) {
        if (row >= nodes.size()) continue;
        for (NodeId c : graph_.Children(nodes[row])) touch(c);
      }
    }
    while (!reached.empty()) {
      NodeId id = reached.back();
      reached.pop_back();
      for (NodeId c : graph_.Children(id)) touch(c);
    }
  }

  // Parents precede children in topological order, so parent values
  // (including aggregate-of-aggregate chains) are already final. Parent
  // values are sorted before aggregation — parent list order is an
  // edge-commit-order artifact that differs between a from-scratch ground
  // and an incremental extend, and floating-point accumulation is not
  // commutative; the sorted form makes aggregate values a function of the
  // parent value SET, bit-identical across both paths.
  std::vector<double> parent_values;
  for (NodeId id : topo_order) {
    if (!dirty[id]) continue;
    parent_values.clear();
    for (NodeId p : graph_.Parents(id)) {
      if (value_state_[p] == 2) parent_values.push_back(value_cache_[p]);
    }
    if (parent_values.empty()) {
      value_state_[id] = 1;
      continue;
    }
    std::sort(parent_values.begin(), parent_values.end());
    value_cache_[id] = ApplyAggregate(node_aggregate_[id], parent_values);
    value_state_[id] = 2;
  }
}

Status GroundedModel::RunPass(
    const std::vector<uint32_t>& watermarks,
    const std::vector<InstanceDelta::AttributeDelta>& written,
    const BindingSource& enumerate) {
  ExecContext& ctx = ExecContext::Global();
  const Instance& instance = *instance_;
  const Schema& schema = model_->extended_schema();
  // The stats describe this pass only — never a blend with a reused
  // struct's or the base grounding's timings.
  phase_stats_ = GroundingPhaseStats{};
  const size_t nodes_before = graph_.num_nodes();
  const size_t edges_before = graph_.num_edges();
  obs::MonotonicTimer phase_timer;

  // 1. A node for every fact row at or past its predicate's watermark, in
  // every attribute. An empty graph is bulk-built with ids in (attribute,
  // row) order — the same ids a serial AddNode loop assigns; an extend
  // splices the new rows into the row-aligned per-attribute id columns
  // (rule-added non-fact nodes are promoted when a new row re-derives
  // them). Aggregate-defined attributes get nodes here too, so response
  // lookups are uniform even for groundings with no sources.
  {
    CARL_TRACE_SCOPE("grounding.node_build");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.node_build"));
    std::vector<CausalGraph::NodeBatch> batches;
    std::vector<size_t> prior_rows;
    for (const AttributeDef& attr : schema.attributes()) {
      const size_t prior = watermarks[attr.predicate];
      if (nodes_before == 0 || prior < instance.NumRows(attr.predicate)) {
        batches.push_back(
            CausalGraph::NodeBatch{attr.id, instance.Rows(attr.predicate)});
        prior_rows.push_back(prior);
      }
    }
    if (nodes_before == 0) {
      graph_.AddNodesBulk(batches, ctx);
    } else {
      graph_.ExtendNodesBulk(batches, prior_rows);
    }
  }
  phase_stats_.node_build_s = phase_timer.Seconds();

  // 2. Compile every rule and enumerate its condition through `enumerate`.
  // Causal rules first, then aggregate rules (all-or-nothing per binding:
  // head and source must both resolve) — the vector order is the merge
  // order.
  phase_timer.Reset();
  std::vector<CompiledRule> compiled;
  {
    CARL_TRACE_SCOPE("grounding.enumerate");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.enumerate"));
    CARL_ASSIGN_OR_RETURN(compiled, CompileRules(instance, *model_, enumerate));
  }
  phase_stats_.enumerate_s = phase_timer.Seconds();

  // 3. Merge every rule's nodes and edges: cross-rule parallel read-only
  // probe, prefix-summed parallel splice with serial miss interning, one
  // edge commit in rule order. AddNode and the edge commit dedupe, so an
  // extend binding the base already committed (its projection also has an
  // all-old witness) changes nothing in the graph — only num_groundings_
  // counts it again, which is why the extend contract excludes that
  // counter.
  phase_timer.Reset();
  {
    CARL_TRACE_SCOPE("grounding.merge");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.merge"));
    MergeAllRuleGroundings(compiled, ctx, &graph_, &num_groundings_,
                           &phase_stats_.splice_s);
    CARL_RETURN_IF_ERROR(guard::CheckPoint());
  }
  phase_stats_.merge_s = phase_timer.Seconds();

  // 4. Tag the new nodes of aggregate-defined attributes with their kind.
  TagAggregateNodes(nodes_before);

  // 5. The paper requires non-recursive models; reject cyclic groundings
  // (an extend could close a cycle). The topological order then drives
  // the value pass.
  phase_timer.Reset();
  {
    CARL_TRACE_SCOPE("grounding.finalize");
    CARL_RETURN_IF_ERROR(guard::PhaseCheck("grounding.finalize"));
    CARL_ASSIGN_OR_RETURN(std::vector<NodeId> topo_order,
                          graph_.TopologicalOrder());
    UpdateValues(watermarks, written, nodes_before, edges_before, topo_order);
  }
  phase_stats_.finalize_s = phase_timer.Seconds();
  return Status::OK();
}

std::string GroundedModel::NodeName(NodeId id) const {
  return graph_.NodeName(id, schema(), instance_->interner());
}

Result<GroundedModel> GroundModel(const Instance& instance,
                                  const RelationalCausalModel& model,
                                  BindingCache* binding_cache) {
  CARL_TRACE_SCOPE("grounding.ground_model");
  static obs::Counter& pass_counter =
      obs::Registry::Global().GetCounter("grounding.ground_model_passes");
  static obs::Histogram& pass_hist = obs::Registry::Global().GetHistogram(
      "grounding.ground_model_seconds",
      obs::Histogram::ExponentialBounds(1e-4, 4.0, 10));
  pass_counter.Increment();
  obs::MonotonicTimer pass_timer;

  GroundedModel grounded;
  grounded.instance_ = &instance;
  grounded.model_ = &model;
  // Every fact row is new: bindings come in parallel shards of one shared
  // compiled plan as a columnar table, reused from the binding cache when
  // the same condition was enumerated before.
  QueryEvaluator evaluator(&instance);
  auto enumerate = [&](const ConjunctiveQuery& where,
                       const std::vector<std::string>& vars) {
    return EnumerateBindingsCached(evaluator, model.extended_schema(), where,
                                   vars, ExecContext::Global(),
                                   binding_cache);
  };
  CARL_RETURN_IF_ERROR(grounded.RunPass(
      std::vector<uint32_t>(instance.schema().num_predicates(), 0), {},
      enumerate));
  pass_hist.Record(pass_timer.Seconds());
  return grounded;
}

namespace {

// True when any constant named by `terms` was interned inside the delta
// window — its symbol id did not exist when the base grounding compiled
// its rule refs, so an extend could miss groundings the constant now
// resolves.
bool AnyConstantInWindow(const Instance& instance,
                         const std::vector<Term>& terms,
                         size_t prev_num_constants) {
  for (const Term& t : terms) {
    if (t.is_variable()) continue;
    SymbolId id = instance.LookupConstant(t.text);
    if (id != kInvalidSymbol &&
        static_cast<size_t>(id) >= prev_num_constants) {
      return true;
    }
  }
  return false;
}

bool WhereHasWindowConstant(const Instance& instance,
                            const ConjunctiveQuery& where,
                            size_t prev_num_constants) {
  for (const Atom& atom : where.atoms) {
    if (AnyConstantInWindow(instance, atom.args, prev_num_constants)) {
      return true;
    }
  }
  for (const AttributeConstraint& c : where.constraints) {
    if (AnyConstantInWindow(instance, c.args, prev_num_constants)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool DeltaSupportsIncrementalExtend(const Instance& instance,
                                    const RelationalCausalModel& model,
                                    const InstanceDelta& delta) {
  if (!delta.complete) return false;
  const Schema& schema = model.extended_schema();

  // Overflow writes attach values to tuples outside the row-aligned
  // columns; an extend cannot tell which existing nodes they hit.
  // Writes to constraint-referenced attributes are non-monotone: an old
  // binding (over exclusively old rows, invisible to every delta pivot)
  // may newly satisfy or newly fail its constraint.
  std::vector<char> written(instance.schema().num_attributes(), 0);
  for (const InstanceDelta::AttributeDelta& a : delta.attributes) {
    if (a.overflow) return false;
    if (static_cast<size_t>(a.attribute) < written.size()) {
      written[a.attribute] = 1;
    }
  }
  auto constraint_written = [&](const ConjunctiveQuery& where) {
    for (const AttributeConstraint& c : where.constraints) {
      Result<AttributeId> aid = schema.FindAttribute(c.attribute);
      if (aid.ok() && static_cast<size_t>(*aid) < written.size() &&
          written[*aid]) {
        return true;
      }
    }
    return false;
  };
  for (const CausalRule& rule : model.rules()) {
    if (constraint_written(rule.where)) return false;
    if (WhereHasWindowConstant(instance, rule.where,
                               delta.prev_num_constants) ||
        AnyConstantInWindow(instance, rule.head.args,
                            delta.prev_num_constants)) {
      return false;
    }
    for (const AttributeRef& b : rule.body) {
      if (AnyConstantInWindow(instance, b.args, delta.prev_num_constants)) {
        return false;
      }
    }
  }
  for (const AggregateRule& rule : model.aggregate_rules()) {
    if (constraint_written(rule.where)) return false;
    if (WhereHasWindowConstant(instance, rule.where,
                               delta.prev_num_constants) ||
        AnyConstantInWindow(instance, rule.head.args,
                            delta.prev_num_constants) ||
        AnyConstantInWindow(instance, rule.source.args,
                            delta.prev_num_constants)) {
      return false;
    }
  }
  return true;
}

Result<GroundedModel> ExtendGroundedModel(GroundedModel base,
                                          const InstanceDelta& delta) {
  CARL_TRACE_SCOPE("grounding.extend_model");
  static obs::Counter& pass_counter =
      obs::Registry::Global().GetCounter("grounding.extend_passes");
  static obs::Histogram& pass_hist = obs::Registry::Global().GetHistogram(
      "grounding.extend_seconds",
      obs::Histogram::ExponentialBounds(1e-5, 4.0, 10));
  pass_counter.Increment();
  obs::MonotonicTimer pass_timer;

  if (base.instance_ == nullptr || base.model_ == nullptr) {
    return Status::FailedPrecondition(
        "extend needs a grounded model (default-constructed base)");
  }
  const Instance& instance = *base.instance_;
  if (delta.to_generation != instance.generation()) {
    return Status::FailedPrecondition(
        "delta does not end at the instance's current generation");
  }
  if (!DeltaSupportsIncrementalExtend(instance, *base.model_, delta)) {
    return Status::FailedPrecondition(
        "delta is outside the incremental-extend contract (trimmed log, "
        "overflow write, constraint-attribute write, or a rule constant "
        "interned inside the window)");
  }

  // Per-predicate fact watermarks: rows >= watermark are the new facts.
  const size_t num_preds = instance.schema().num_predicates();
  std::vector<uint32_t> watermarks(num_preds);
  for (size_t p = 0; p < num_preds; ++p) {
    watermarks[p] = static_cast<uint32_t>(
        instance.NumRows(static_cast<PredicateId>(p)));
  }
  for (const InstanceDelta::FactDelta& f : delta.facts) {
    watermarks[f.predicate] = f.prior_rows;
  }

  // Only the bindings that touch the delta: one semi-naive plan per rule,
  // pivot atoms watermark-restricted to new rows. No binding cache —
  // delta tables must not collide with the full tables GroundModel caches
  // under the same condition key.
  QueryEvaluator evaluator(&instance);
  auto enumerate = [&](const ConjunctiveQuery& where,
                       const std::vector<std::string>& vars)
      -> Result<std::shared_ptr<const BindingTable>> {
    CARL_ASSIGN_OR_RETURN(PreparedDeltaQuery prepared,
                          evaluator.PrepareDelta(where));
    CARL_ASSIGN_OR_RETURN(BindingTable table,
                          evaluator.EvaluateDelta(prepared, vars, watermarks));
    return std::make_shared<const BindingTable>(std::move(table));
  };
  GroundedModel out = std::move(base);
  CARL_RETURN_IF_ERROR(out.RunPass(watermarks, delta.attributes, enumerate));
  pass_hist.Record(pass_timer.Seconds());
  return out;
}

}  // namespace carl
