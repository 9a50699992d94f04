// Graph-store suite: the arena-backed CausalGraph node store and the
// cross-rule parallel grounding must be invisible to consumers — node-id
// columns stay row-aligned with the instance's fact rows, node args read
// back exactly, the grounded graph (ids, adjacency, values) is
// bit-identical across thread counts on MIMIC and SYNTH-REVIEW, and it
// equals a reference graph built binding by binding from public API only.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "carl/carl.h"
#include "datagen/mimic.h"
#include "exec/morsel.h"
#include "fixtures.h"
#include "relational/storage_stats.h"

namespace carl {
namespace {

using test_fixtures::GraphFingerprint;
using test_fixtures::GraphWorkloads;
using test_fixtures::NamedDataset;
using test_fixtures::ScopedThreads;

// The invariant the node-id columns rely on: for every schema attribute,
// the first NumRows(predicate) entries of NodesOfAttribute are the
// per-row node ids, in row order.
TEST(GraphStoreTest, NodeIdColumnsAreRowAligned) {
  for (NamedDataset& wl : GraphWorkloads()) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name << ": " << model.status();
    Result<GroundedModel> grounded = GroundModel(*wl.dataset.instance, *model);
    ASSERT_TRUE(grounded.ok()) << wl.name << ": " << grounded.status();
    const CausalGraph& graph = grounded->graph();
    const Schema& schema = grounded->schema();

    for (const AttributeDef& attr : schema.attributes()) {
      const RelationView rows = wl.dataset.instance->Rows(attr.predicate);
      const std::vector<NodeId>& col = graph.NodesOfAttribute(attr.id);
      ASSERT_GE(col.size(), rows.size()) << wl.name << " " << attr.name;
      for (size_t r = 0; r < rows.size(); ++r) {
        GroundedAttribute node = graph.node(col[r]);
        ASSERT_EQ(node.attribute, attr.id) << wl.name << " " << attr.name;
        ASSERT_EQ(node.args, rows[r])
            << wl.name << " " << attr.name << " row " << r;
      }
    }
  }
}

// Full structural equality of serial vs cross-rule-parallel grounding:
// node count, per-node attribute/args, adjacency spans, values, and the
// folded fingerprint, at threads 1 vs {2, 4}.
TEST(GraphStoreTest, CrossRuleGroundingIdenticalAcrossThreadCounts) {
  for (NamedDataset& wl : GraphWorkloads()) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name;

    std::optional<GroundedModel> serial;
    uint64_t serial_fp = 0;
    {
      ScopedThreads scoped(1);
      Result<GroundedModel> grounded =
          GroundModel(*wl.dataset.instance, *model);
      ASSERT_TRUE(grounded.ok()) << wl.name << ": " << grounded.status();
      serial_fp = GraphFingerprint(*grounded);
      serial.emplace(std::move(*grounded));
    }
    for (int threads : {2, 4}) {
      ScopedThreads scoped(threads);
      Result<GroundedModel> parallel =
          GroundModel(*wl.dataset.instance, *model);
      ASSERT_TRUE(parallel.ok()) << wl.name;
      ASSERT_EQ(parallel->graph().num_nodes(), serial->graph().num_nodes())
          << wl.name << " threads=" << threads;
      ASSERT_EQ(parallel->graph().num_edges(), serial->graph().num_edges())
          << wl.name << " threads=" << threads;
      EXPECT_EQ(parallel->num_groundings(), serial->num_groundings())
          << wl.name << " threads=" << threads;
      for (NodeId id = 0;
           id < static_cast<NodeId>(serial->graph().num_nodes()); ++id) {
        ASSERT_TRUE(serial->graph().node(id) == parallel->graph().node(id))
            << wl.name << " node " << id << " threads=" << threads;
        ASSERT_EQ(serial->graph().Parents(id), parallel->graph().Parents(id))
            << wl.name << " node " << id << " threads=" << threads;
        ASSERT_EQ(serial->graph().Children(id),
                  parallel->graph().Children(id))
            << wl.name << " node " << id << " threads=" << threads;
      }
      EXPECT_EQ(GraphFingerprint(*parallel), serial_fp)
          << wl.name << " differs at threads=" << threads;
    }
  }
}

// Determinism under stealing, end-to-end: a skew-stressed MIMIC instance
// (MimicConfig::prescription_skew piles ~100x the prescriptions onto the
// head-of-index patients) makes the steal schedule genuinely random —
// the hot slice pins one worker while the others drain and start
// stealing at uncontrolled points. The grounded graph must fingerprint
// identically to the serial build at threads {1, 2, 4}, with the steal
// switch both on and off (static partition), across repeated runs.
TEST(GraphStoreTest, SkewedGroundingIdenticalUnderStealSchedules) {
  datagen::MimicConfig config;
  config.num_patients = 3000;
  config.num_caregivers = 120;
  config.prescription_skew = 100;
  Result<datagen::Dataset> data = datagen::GenerateMimic(config);
  ASSERT_TRUE(data.ok()) << data.status();
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  ASSERT_TRUE(model.ok());

  uint64_t serial_fp = 0;
  {
    ScopedThreads scoped(1);
    Result<GroundedModel> serial = GroundModel(*data->instance, *model);
    ASSERT_TRUE(serial.ok()) << serial.status();
    serial_fp = GraphFingerprint(*serial);
  }
  const uint64_t steals_before = exec::MorselStealCount();
  for (int round = 0; round < 2; ++round) {
    for (bool stealing : {true, false}) {
      exec::SetMorselStealing(stealing);
      for (int threads : {2, 4}) {
        ScopedThreads scoped(threads);
        Result<GroundedModel> parallel = GroundModel(*data->instance, *model);
        ASSERT_TRUE(parallel.ok());
        ASSERT_EQ(GraphFingerprint(*parallel), serial_fp)
            << "threads=" << threads << " stealing=" << stealing
            << " round=" << round;
      }
    }
  }
  exec::SetMorselStealing(true);
  EXPECT_GT(exec::MorselStealCount(), steals_before)
      << "skew-stressed grounding at 4 threads never exercised a steal";
}

// The merge's reference semantics, rebuilt from public API only: bulk
// nodes in schema order, then per rule (causal rules, then aggregate
// rules) and per binding of the rule's WHERE over its head and body
// variables, AddNode for the head and each resolvable body ref, and a
// first-occurrence edge body -> head. A head that does not resolve skips
// the binding; an aggregate rule skips it unless its source resolves
// too. Edges are deduplicated here with a std::set, independently of the
// graph's own edge commit.
struct ReferenceGraph {
  CausalGraph graph;
  std::vector<std::vector<NodeId>> parents;
  std::vector<std::vector<NodeId>> children;
};

ReferenceGraph BuildReferenceGraph(const Instance& instance,
                                   const RelationalCausalModel& model) {
  const Schema& schema = model.extended_schema();
  ReferenceGraph ref;
  std::vector<CausalGraph::NodeBatch> batches;
  for (const AttributeDef& attr : schema.attributes()) {
    batches.push_back({attr.id, instance.Rows(attr.predicate)});
  }
  ExecContext serial(1);
  ref.graph.AddNodesBulk(batches, serial);

  QueryEvaluator evaluator(&instance);
  std::set<std::pair<NodeId, NodeId>> edges;
  std::vector<std::pair<NodeId, NodeId>> edge_order;
  auto merge_rule = [&](const AttributeRef& head,
                        const std::vector<const AttributeRef*>& body,
                        const ConjunctiveQuery& where, bool require_all) {
    // Head variables first, then body variables, in first-occurrence
    // order; var_slots maps each to its binding column.
    std::vector<std::string> vars;
    std::unordered_map<std::string, size_t> var_slots;
    auto add_vars = [&](const AttributeRef& r) {
      for (const Term& t : r.args) {
        if (t.is_variable() && var_slots.emplace(t.text, vars.size()).second) {
          vars.push_back(t.text);
        }
      }
    };
    add_vars(head);
    for (const AttributeRef* b : body) add_vars(*b);
    // Resolves a ref against one binding; false when a constant was
    // never interned.
    auto resolve = [&](const AttributeRef& r, TupleView binding, Tuple* out) {
      out->clear();
      for (const Term& t : r.args) {
        SymbolId id = kInvalidSymbol;
        if (t.is_variable()) {
          id = binding[var_slots.at(t.text)];
        } else {
          id = instance.LookupConstant(t.text);
        }
        if (id == kInvalidSymbol) return false;
        out->push_back(id);
      }
      return true;
    };
    Result<BindingTable> bindings = evaluator.Evaluate(where, vars);
    ASSERT_TRUE(bindings.ok()) << bindings.status();
    Result<AttributeId> head_attr = schema.FindAttribute(head.attribute);
    ASSERT_TRUE(head_attr.ok());
    Tuple head_args, body_args;
    for (size_t i = 0; i < bindings->size(); ++i) {
      TupleView binding = bindings->row(i);
      if (!resolve(head, binding, &head_args)) continue;
      bool skip = false;
      for (const AttributeRef* b : body) {
        skip |= require_all && !resolve(*b, binding, &body_args);
      }
      if (skip) continue;
      NodeId h = ref.graph.AddNode(*head_attr, head_args);
      for (const AttributeRef* b : body) {
        if (!resolve(*b, binding, &body_args)) continue;
        Result<AttributeId> body_attr = schema.FindAttribute(b->attribute);
        ASSERT_TRUE(body_attr.ok());
        NodeId from = ref.graph.AddNode(*body_attr, body_args);
        if (edges.insert({from, h}).second) edge_order.push_back({from, h});
      }
    }
  };
  for (const CausalRule& rule : model.rules()) {
    std::vector<const AttributeRef*> body;
    for (const AttributeRef& b : rule.body) body.push_back(&b);
    merge_rule(rule.head, body, rule.where, /*require_all=*/false);
  }
  for (const AggregateRule& rule : model.aggregate_rules()) {
    merge_rule(rule.head, {&rule.source}, rule.where, /*require_all=*/true);
  }
  ref.parents.resize(ref.graph.num_nodes());
  ref.children.resize(ref.graph.num_nodes());
  for (const auto& [from, to] : edge_order) {
    ref.parents[to].push_back(from);
    ref.children[from].push_back(to);
  }
  return ref;
}

TEST(GraphStoreTest, GroundingMatchesBindingByBindingReference) {
  for (NamedDataset& wl : GraphWorkloads()) {
    const Instance& instance = *wl.dataset.instance;
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name;
    ReferenceGraph ref = BuildReferenceGraph(instance, *model);
    const Schema& schema = model->extended_schema();
    auto span = [](const std::vector<NodeId>& ids) {
      return NodeIdSpan(ids.data(), ids.size());
    };
    for (int threads : {1, 4}) {
      ScopedThreads scoped(threads);
      Result<GroundedModel> grounded = GroundModel(instance, *model);
      ASSERT_TRUE(grounded.ok()) << wl.name << ": " << grounded.status();
      const CausalGraph& graph = grounded->graph();
      ASSERT_EQ(graph.num_nodes(), ref.graph.num_nodes())
          << wl.name << " threads=" << threads;
      size_t ref_edges = 0;
      for (NodeId id = 0; id < static_cast<NodeId>(graph.num_nodes()); ++id) {
        ASSERT_EQ(grounded->NodeName(id),
                  ref.graph.NodeName(id, schema, instance.interner()))
            << wl.name << " node " << id << " threads=" << threads;
        ASSERT_EQ(graph.Parents(id), span(ref.parents[id]))
            << wl.name << " parents of node " << id << " threads=" << threads;
        ASSERT_EQ(graph.Children(id), span(ref.children[id]))
            << wl.name << " children of node " << id << " threads=" << threads;
        ref_edges += ref.parents[id].size();
      }
      EXPECT_EQ(graph.num_edges(), ref_edges)
          << wl.name << " threads=" << threads;
    }
  }
}

// The grounding hot path must intern every node through span fast paths:
// zero owned per-node Tuples, at every thread count.
TEST(GraphStoreTest, GroundingBuildsZeroOwnedNodeTuples) {
  for (NamedDataset& wl : GraphWorkloads()) {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.dataset.schema, wl.dataset.model_text);
    ASSERT_TRUE(model.ok()) << wl.name;
    for (int threads : {1, 4}) {
      ScopedThreads scoped(threads);
      storage_stats::ScopedAllocCounter allocs;
      Result<GroundedModel> grounded =
          GroundModel(*wl.dataset.instance, *model);
      ASSERT_TRUE(grounded.ok()) << wl.name;
      EXPECT_EQ(allocs.graph_node_delta(), 0u)
          << wl.name << " threads=" << threads
          << ": per-node Tuple path crept back into grounding";
      EXPECT_EQ(allocs.eval_result_delta(), 0u)
          << wl.name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace carl
