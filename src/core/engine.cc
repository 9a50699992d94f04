#include "core/engine.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/relational_path.h"
#include "guard/guard.h"
#include "lang/parser.h"
#include "obs/timer.h"
#include "relational/evaluator.h"
#include "stats/bootstrap.h"

namespace carl {
namespace {

// Per-request admission control: Answer(QueryRequest) arms a token from
// the request budget (request fields override the CARL_DEADLINE_MS /
// CARL_MEM_BUDGET environment defaults, see QueryBudget::WithEnvDefaults)
// unless the caller already installed an ambient token — an embedding
// that manages its own ScopedToken keeps full control, and a serving
// layer that admits requests itself (carl_serve) installs its token
// before calling in.
class RequestBudgetToken {
 public:
  explicit RequestBudgetToken(const guard::QueryBudget& request_budget) {
    if (guard::CurrentToken() != nullptr) return;
    guard::QueryBudget budget = request_budget.WithEnvDefaults();
    if (budget.unlimited()) return;
    token_.emplace(budget);
    scoped_.emplace(&*token_);
  }

 private:
  std::optional<guard::ExecToken> token_;
  std::optional<guard::ScopedToken> scoped_;
};

// Evaluates a query WHERE filter into the set of allowed source-unit
// tuples — kept as the evaluator's columnar BindingTable, whose span
// index serves the unit-table membership probes directly. The filter must
// contain exactly one variable whose inferred entity type is the source
// attribute's (entity) predicate; that variable links the filter to the
// response sources.
Result<std::optional<BindingTable>> EvaluateFilter(
    const Instance& instance, const Schema& schema,
    const ConjunctiveQuery& where, PredicateId source_pred) {
  if (where.empty()) {
    return std::optional<BindingTable>();
  }
  const Predicate& source = schema.predicate(source_pred);
  if (source.kind != PredicateKind::kEntity) {
    return Status::Unimplemented(
        "query filters over relationship-attached responses are not "
        "supported; filter on an entity-attached response");
  }

  // Infer variable entity types from atom and constraint positions.
  std::unordered_map<std::string, std::string> var_entity;
  auto note = [&var_entity](const Term& t, const std::string& entity)
      -> Status {
    if (!t.is_variable()) return Status::OK();
    auto [it, inserted] = var_entity.emplace(t.text, entity);
    if (!inserted && it->second != entity) {
      return Status::InvalidArgument("filter variable " + t.text +
                                     " used with two entity types: " +
                                     it->second + " and " + entity);
    }
    return Status::OK();
  };
  for (const Atom& atom : where.atoms) {
    CARL_ASSIGN_OR_RETURN(PredicateId pid,
                          schema.FindPredicate(atom.predicate));
    const Predicate& pred = schema.predicate(pid);
    if (static_cast<int>(atom.args.size()) != pred.arity()) {
      return Status::InvalidArgument("filter atom arity mismatch: " +
                                     atom.ToString());
    }
    for (size_t i = 0; i < atom.args.size(); ++i) {
      CARL_RETURN_IF_ERROR(note(atom.args[i], pred.arg_entities[i]));
    }
  }
  for (const AttributeConstraint& c : where.constraints) {
    CARL_ASSIGN_OR_RETURN(AttributeId aid, schema.FindAttribute(c.attribute));
    const Predicate& pred = schema.predicate(schema.attribute(aid).predicate);
    if (static_cast<int>(c.args.size()) != pred.arity()) {
      return Status::InvalidArgument("filter constraint arity mismatch: " +
                                     c.ToString());
    }
    for (size_t i = 0; i < c.args.size(); ++i) {
      CARL_RETURN_IF_ERROR(note(c.args[i], pred.arg_entities[i]));
    }
  }

  std::vector<std::string> link_vars;
  for (const auto& [var, entity] : var_entity) {
    if (entity == source.name) link_vars.push_back(var);
  }
  if (link_vars.size() != 1) {
    return Status::InvalidArgument(StrFormat(
        "query filter must reference the response unit (%s) through exactly "
        "one variable; found %zu",
        source.name.c_str(), link_vars.size()));
  }

  ConjunctiveQuery cq = where;
  Atom unit_atom;
  unit_atom.predicate = source.name;
  unit_atom.args = {Term::Var(link_vars[0])};
  cq.atoms.push_back(std::move(unit_atom));

  QueryEvaluator evaluator(&instance);
  CARL_ASSIGN_OR_RETURN(BindingTable bindings,
                        evaluator.Evaluate(cq, {link_vars[0]}));
  return std::optional<BindingTable>(std::move(bindings));
}

// Peer-effect queries drop units without peers unless the options keep
// them; ATE queries keep every unit.
UnitTableOptions MakeUnitTableOptions(const CausalQuery& query,
                                      const EngineOptions& options) {
  UnitTableOptions out;
  out.embedding = options.embedding;
  out.embedding_options = options.embedding_options;
  out.include_isolated_units =
      !query.peer_condition.has_value() || options.include_isolated_units;
  return out;
}

void AttachBootstrap(EffectEstimate* estimate, const BootstrapResult& b) {
  estimate->std_error = b.sd;
  estimate->ci_low = b.ci_low;
  estimate->ci_high = b.ci_high;
  estimate->samples = b.samples;
}

}  // namespace

Result<std::unique_ptr<CarlEngine>> CarlEngine::Create(
    const Instance* instance, RelationalCausalModel model) {
  if (instance == nullptr) {
    return Status::InvalidArgument("engine needs an instance");
  }
  return Create(std::make_shared<QuerySession>(instance), std::move(model));
}

Result<std::unique_ptr<CarlEngine>> CarlEngine::Create(
    std::shared_ptr<QuerySession> session, RelationalCausalModel model) {
  if (session == nullptr) {
    return Status::InvalidArgument("engine needs a query session");
  }
  std::unique_ptr<CarlEngine> engine(
      new CarlEngine(std::move(session), std::move(model)));
  CARL_ASSIGN_OR_RETURN(engine->grounded_,
                        engine->session_->Ground(engine->model_));
  return engine;
}

Result<CarlEngine::ResolvedQuery> CarlEngine::ResolveQuery(
    const CausalQuery& query, const EngineOptions& options) {
  const Schema& schema = model_.extended_schema();
  CARL_ASSIGN_OR_RETURN(AttributeId t_attr,
                        schema.FindAttribute(query.treatment.attribute));
  PredicateId t_pred = schema.attribute(t_attr).predicate;

  std::string response_name = query.response.attribute;
  Result<AttributeId> y_attr = schema.FindAttribute(response_name);
  bool reground = false;

  if (y_attr.ok() &&
      schema.attribute(*y_attr).predicate != t_pred) {
    // Existing response on a different predicate: unify along a relational
    // path (§4.3). Reuse a previously derived rule when present.
    CARL_ASSIGN_OR_RETURN(
        AggregateRule rule,
        DeriveUnifyingAggregateRule(schema, query.treatment, query.response,
                                    options.unification_aggregate));
    response_name = rule.head.attribute;
    if (!model_.FindAggregateRule(response_name).ok()) {
      CARL_RETURN_IF_ERROR(model_.AddAggregateRule(std::move(rule)));
      reground = true;
    }
  } else if (!y_attr.ok()) {
    // Unknown response: allow AGG_<base> shorthand, deriving the
    // aggregation over the relational path (the paper's query (36)).
    AggregateKind agg;
    if (!SplitAggregateName(response_name, &agg)) {
      return y_attr.status();
    }
    std::string base_name = response_name.substr(response_name.find('_') + 1);
    CARL_ASSIGN_OR_RETURN(AttributeId base_attr,
                          schema.FindAttribute(base_name));
    if (schema.attribute(base_attr).predicate == t_pred) {
      return Status::InvalidArgument(
          "aggregated response " + response_name +
          " over an attribute already on the treatment's predicate; define "
          "an explicit aggregate rule instead");
    }
    AttributeRef source_ref;
    source_ref.attribute = base_name;
    const Predicate& base_pred =
        schema.predicate(schema.attribute(base_attr).predicate);
    for (int i = 0; i < base_pred.arity(); ++i) {
      source_ref.args.push_back(Term::Var(StrFormat("USRC%d", i)));
    }
    CARL_ASSIGN_OR_RETURN(
        AggregateRule rule,
        DeriveUnifyingAggregateRule(schema, query.treatment, source_ref, agg));
    rule.head.attribute = response_name;
    if (!model_.FindAggregateRule(response_name).ok()) {
      CARL_RETURN_IF_ERROR(model_.AddAggregateRule(std::move(rule)));
      reground = true;
    }
  }

  if (reground) {
    // The derived rule changed the model; fetch (or build) the grounding
    // of the new variant from the session cache.
    CARL_ASSIGN_OR_RETURN(grounded_, session_->Ground(model_));
  }

  const Schema& xschema = model_.extended_schema();
  ResolvedQuery resolved;
  resolved.response_attribute = response_name;
  CARL_ASSIGN_OR_RETURN(resolved.request.response,
                        xschema.FindAttribute(response_name));
  CARL_ASSIGN_OR_RETURN(resolved.request.treatment,
                        xschema.FindAttribute(query.treatment.attribute));

  // The WHERE filter applies to the response sources (aggregate responses
  // filter the aggregated groundings).
  AttributeId source_attr = resolved.request.response;
  Result<const AggregateRule*> agg_rule =
      model_.FindAggregateRule(response_name);
  if (agg_rule.ok()) {
    CARL_ASSIGN_OR_RETURN(source_attr,
                          xschema.FindAttribute((*agg_rule)->source.attribute));
  }
  CARL_ASSIGN_OR_RETURN(
      resolved.request.allowed_sources,
      EvaluateFilter(*instance_, xschema, query.where,
                     xschema.attribute(source_attr).predicate));
  return resolved;
}

Result<std::optional<bool>> CarlEngine::MaybeCheckCriterion(
    const UnitTableRequest& request, const UnitTable& table,
    const EngineOptions& options) {
  if (!options.check_criterion) return std::optional<bool>();
  Rng rng(options.seed);
  size_t sample = std::min<size_t>(
      static_cast<size_t>(std::max(1, options.criterion_sample)),
      table.units.size());
  std::vector<size_t> picks =
      rng.SampleWithoutReplacement(table.units.size(), sample);
  for (size_t idx : picks) {
    CARL_ASSIGN_OR_RETURN(
        bool ok, CheckAdjustmentCriterion(*grounded_, request,
                                          table.units[idx]));
    if (!ok) return std::optional<bool>(false);
  }
  return std::optional<bool>(true);
}

Result<UnitTable> CarlEngine::BuildUnitTableForQuery(
    const CausalQuery& query, const EngineOptions& options) {
  CARL_ASSIGN_OR_RETURN(ResolvedQuery resolved, ResolveQuery(query, options));
  return BuildUnitTable(*grounded_, resolved.request,
                        MakeUnitTableOptions(query, options));
}

Result<QueryAnswer> CarlEngine::AnswerImpl(const CausalQuery& query,
                                           const EngineOptions& options,
                                           QueryTiming* timing) {
  obs::MonotonicTimer phase;
  CARL_ASSIGN_OR_RETURN(ResolvedQuery resolved, ResolveQuery(query, options));
  timing->resolve_s = phase.Seconds();
  phase.Reset();
  CARL_ASSIGN_OR_RETURN(UnitTable table,
                        BuildUnitTable(*grounded_, resolved.request,
                                       MakeUnitTableOptions(query, options)));
  timing->unit_table_s = phase.Seconds();
  phase.Reset();

  // The query form picks the estimands: the ATE (eq. 23) for plain
  // queries; AIE, ARE, AOE (eq. 24–26) and the AIE psi variant for
  // WHEN ... PEERS TREATED queries.
  const std::optional<PeerCondition>& peers = query.peer_condition;
  auto estimate = [&](const FlatTable& data) -> Result<std::vector<double>> {
    if (!peers.has_value()) {
      CARL_ASSIGN_OR_RETURN(double ate,
                            EstimateAte(table, data, options.estimator));
      return std::vector<double>{ate};
    }
    CARL_ASSIGN_OR_RETURN(
        RelationalEffects e,
        EstimateRelationalEffects(table, data, *peers, options.estimator));
    return std::vector<double>{e.aie, e.are, e.aoe, e.aie_psi};
  };

  CARL_ASSIGN_OR_RETURN(NaiveContrast naive,
                        ComputeNaiveContrast(table, table.data));
  CARL_ASSIGN_OR_RETURN(std::vector<double> point, estimate(table.data));
  std::vector<EffectEstimate> effects(point.size());
  for (size_t k = 0; k < point.size(); ++k) {
    effects[k].value = point[k];
    if (options.bootstrap_replicates <= 0) continue;
    auto component = [&](const std::vector<size_t>& rows) -> Result<double> {
      CARL_ASSIGN_OR_RETURN(std::vector<double> e,
                            estimate(table.data.SelectRows(rows)));
      return e[k];
    };
    CARL_ASSIGN_OR_RETURN(
        BootstrapResult b,
        Bootstrap(table.data.num_rows(), options.bootstrap_replicates,
                  options.seed, component));
    AttachBootstrap(&effects[k], b);
  }
  CARL_ASSIGN_OR_RETURN(std::optional<bool> criterion_ok,
                        MaybeCheckCriterion(resolved.request, table, options));
  timing->estimate_s = phase.Seconds();

  auto fill = [&](auto& out) {
    out.naive = naive;
    out.num_units = table.data.num_rows();
    out.dropped_units = table.dropped_units;
    out.response_attribute = resolved.response_attribute;
    out.criterion_ok = criterion_ok;
  };
  QueryAnswer answer;
  if (peers.has_value()) {
    RelationalEffectsAnswer& fx = answer.effects.emplace();
    fill(fx);
    fx.condition = *peers;
    fx.aie = std::move(effects[0]);
    fx.are = std::move(effects[1]);
    fx.aoe = std::move(effects[2]);
    fx.aie_psi = std::move(effects[3]);
  } else {
    AteAnswer& ate = answer.ate.emplace();
    fill(ate);
    ate.relational = table.relational;
    ate.ate = std::move(effects[0]);
  }
  return answer;
}

QueryResponse CarlEngine::Answer(const QueryRequest& request) {
  QueryResponse response;
  obs::MonotonicTimer total;

  const CausalQuery* query = nullptr;
  CausalQuery parsed;
  if (request.query.has_value()) {
    if (!request.query_text.empty()) {
      response.status = Status::InvalidArgument(
          "QueryRequest carries both a parsed query and query text; set "
          "exactly one");
      response.timing.total_s = total.Seconds();
      return response;
    }
    query = &*request.query;
  } else {
    obs::MonotonicTimer parse;
    Result<CausalQuery> r = ParseQuery(request.query_text);
    response.timing.parse_s = parse.Seconds();
    if (!r.ok()) {
      response.status = r.status();
      response.timing.total_s = total.Seconds();
      return response;
    }
    parsed = std::move(*r);
    query = &parsed;
  }

  // Guard admission: the request budget (env-defaulted) holds for the
  // whole dispatch below, grounding included.
  RequestBudgetToken admission(request.budget);
  Result<QueryAnswer> answer =
      AnswerImpl(*query, request.options, &response.timing);
  if (answer.ok()) {
    response.answer = std::move(*answer);
  } else {
    response.status = answer.status();
  }
  response.timing.total_s = total.Seconds();
  return response;
}

}  // namespace carl
