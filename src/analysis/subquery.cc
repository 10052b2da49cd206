#include "analysis/subquery.h"

#include "analysis/algorithm1.h"
#include "expr/normalize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniqopt {

std::string SubqueryVerdict::ExplainProof() const {
  std::string out = "Theorem 2 verdict: ";
  out += at_most_one_match
             ? "at most one inner row matches each outer row"
             : "more than one inner match possible (condition not proven)";
  out += "\n";
  out += proof.ToText();
  return out;
}

Result<SubqueryVerdict> TestSubqueryAtMostOneMatch(
    const ExistsNode& node, const AnalysisOptions& options) {
  obs::Span span("analysis.subquery_theorem2");
  obs::MetricsRegistry::Global().GetCounter("analysis.subquery.runs")
      .Increment();
  SubqueryVerdict verdict;
  if (node.negated()) {
    return Status::InvalidArgument(
        "Theorem 2 applies to positive existential subqueries");
  }
  size_t outer_width = node.outer()->schema().num_columns();
  ProofTrace* proof = &verdict.proof;
  proof->recorded = true;
  AppendColumnNames(node.outer()->schema(), &proof->column_names);
  AppendColumnNames(node.sub()->schema(), &proof->column_names);

  // Decompose the inner plan into base tables and inner-local predicates.
  UNIQOPT_ASSIGN_OR_RETURN(SpecShape inner_shape,
                           ExtractProductShape(node.sub()));

  // Assemble the full C_S ∧ C_{R,S}: inner-local predicates shifted into
  // the combined (outer ⊕ inner) frame, plus the correlation predicate.
  std::vector<ExprPtr> predicates;
  for (const ExprPtr& pred : inner_shape.predicates) {
    predicates.push_back(ShiftColumns(pred, outer_width));
  }
  predicates.push_back(node.correlation());
  bool over_budget = false;
  std::vector<ExprPtr> conjuncts = CnfConjuncts(predicates, &over_budget);
  if (over_budget) {
    verdict.trace.push_back("CNF budget exceeded; condition not proven");
    proof->conclusion = "NOT PROVEN: CNF budget exceeded";
    span.AddAttr("at_most_one_match", false);
    return verdict;
  }

  // Outer columns are constants for each candidate outer row.
  AttributeSet initially_bound = AttributeSet::AllUpTo(outer_width);
  verdict.trace.push_back("outer columns bound: " +
                          initially_bound.ToString());
  KeyCoverageSinks sinks;
  sinks.trace = &verdict.trace;
  sinks.proof = proof;
  if (options.collect_near_misses) {
    sinks.near_misses = &verdict.near_misses;
    sinks.goal = "theorem2.subquery_to_join";
  }
  KeyCoverage coverage =
      ProveKeyCoverage(conjuncts, inner_shape.tables, outer_width,
                       initially_bound, options, sinks);
  verdict.trace.push_back("closure V = " + coverage.closure.ToString());

  // Every inner base table must have a covered candidate key.
  for (size_t i = 0; i < coverage.covering_keys.size(); ++i) {
    const TableDef& table = inner_shape.tables[i].get->table();
    if (const KeyConstraint* key = coverage.covering_keys[i]) {
      verdict.trace.push_back("key " + key->name + " of inner table " +
                              table.name() + " covered");
      continue;
    }
    if (!table.HasAnyKey()) {
      verdict.trace.push_back("inner table " + table.name() +
                              " has no declared key");
      proof->conclusion = "NOT PROVEN: inner table " + table.name() +
                          " has no declared candidate key";
    } else {
      verdict.trace.push_back("no key of inner table " + table.name() +
                              " is bound: more than one match possible");
      proof->conclusion = "NOT PROVEN: no candidate key of inner table " +
                          table.name() + " is covered by V";
    }
    span.AddAttr("at_most_one_match", false);
    return verdict;
  }
  verdict.at_most_one_match = true;
  verdict.trace.push_back(
      "every inner key bound: at most one inner row matches");
  proof->conclusion =
      "PROVEN: every inner table's candidate key is bound; at most one "
      "inner row matches each outer row (Theorem 2)";
  obs::MetricsRegistry::Global().GetCounter("analysis.subquery.proven")
      .Increment();
  span.AddAttr("at_most_one_match", true);
  return verdict;
}

}  // namespace uniqopt
