#include "analysis/algorithm1.h"

#include "analysis/near_miss.h"
#include "expr/equality.h"
#include "expr/normalize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uniqopt {

namespace {

// The bound-column closure V of ProveKeyCoverage. Fills the proof's
// conjuncts / initially_bound / closure_steps / closure fields.
AttributeSet BoundColumnClosure(const std::vector<ExprPtr>& conjuncts,
                                const AttributeSet& initially_bound,
                                const AnalysisOptions& options,
                                std::vector<std::string>* trace,
                                bool* any_equality_kept, ProofTrace* proof) {
  // Lines 6–9: keep only conjuncts that are single atomic Type 1 / Type 2
  // equalities. A conjunct that is a disjunction ("X = 5 OR X = 10") or a
  // non-equality atom is deleted; deletion weakens C, so the final test
  // remains sufficient.
  std::vector<EqualityAtom> kept;
  std::vector<std::string> kept_text;  // aligned with `kept`, for the proof
  auto record_conjunct = [proof](const ExprPtr& conj,
                                 ConjunctDisposition disposition) {
    if (proof != nullptr) {
      proof->conjuncts.push_back({conj->ToString(), disposition});
    }
  };
  for (const ExprPtr& conj : conjuncts) {
    std::vector<ExprPtr> disjuncts = FlattenOr(conj);
    if (disjuncts.size() > 1) {
      if (trace != nullptr) {
        trace->push_back("  delete disjunctive conjunct: " + conj->ToString());
      }
      record_conjunct(conj, ConjunctDisposition::kDeletedDisjunction);
      continue;
    }
    if (conj->IsTrueLiteral()) continue;
    EqualityAtom atom = ClassifyAtom(conj);
    if (atom.type == AtomType::kOther) {
      if (trace != nullptr) {
        trace->push_back("  delete non-equality conjunct: " +
                         conj->ToString());
      }
      record_conjunct(conj, ConjunctDisposition::kDeletedNonEquality);
      continue;
    }
    if (atom.type == AtomType::kType1ColumnConstant &&
        !options.bind_constants) {
      record_conjunct(conj, ConjunctDisposition::kDeletedBySwitch);
      continue;
    }
    if (atom.type == AtomType::kType2ColumnColumn &&
        !options.use_column_equivalence) {
      record_conjunct(conj, ConjunctDisposition::kDeletedBySwitch);
      continue;
    }
    if (trace != nullptr) {
      trace->push_back(
          std::string("  keep ") +
          (atom.type == AtomType::kType1ColumnConstant ? "Type 1" : "Type 2") +
          " conjunct: " + conj->ToString());
    }
    record_conjunct(conj, atom.type == AtomType::kType1ColumnConstant
                              ? ConjunctDisposition::kKeptType1
                              : ConjunctDisposition::kKeptType2);
    kept.push_back(atom);
    if (proof != nullptr) kept_text.push_back(conj->ToString());
  }
  if (any_equality_kept != nullptr) *any_equality_kept = !kept.empty();
  if (proof != nullptr) {
    for (size_t pos : initially_bound.ToVector()) {
      proof->initially_bound.push_back(proof->NameOf(pos));
    }
  }

  // Line 13–14: V starts as the seed (Algorithm 1: the projection
  // attributes) plus every column equated to a constant or host variable.
  AttributeSet bound = initially_bound;
  for (size_t i = 0; i < kept.size(); ++i) {
    const EqualityAtom& atom = kept[i];
    if (atom.type != AtomType::kType1ColumnConstant) continue;
    if (proof != nullptr && !bound.Contains(atom.column)) {
      proof->closure_steps.push_back(
          {atom.column, proof->NameOf(atom.column), kept_text[i], 0});
    }
    bound.Add(atom.column);
  }
  // Lines 15–16: transitive closure of V over Type 2 conditions.
  bool changed = true;
  int round = 0;
  while (changed) {
    changed = false;
    ++round;
    for (size_t i = 0; i < kept.size(); ++i) {
      const EqualityAtom& atom = kept[i];
      if (atom.type != AtomType::kType2ColumnColumn) continue;
      size_t added;
      if (bound.Contains(atom.column) && !bound.Contains(atom.other_column)) {
        added = atom.other_column;
      } else if (bound.Contains(atom.other_column) &&
                 !bound.Contains(atom.column)) {
        added = atom.column;
      } else {
        continue;
      }
      bound.Add(added);
      changed = true;
      if (proof != nullptr) {
        proof->closure_steps.push_back(
            {added, proof->NameOf(added), kept_text[i], round});
      }
    }
  }
  if (proof != nullptr) {
    for (size_t pos : bound.ToVector()) {
      proof->closure.push_back(proof->NameOf(pos));
    }
  }
  return bound;
}

}  // namespace

std::vector<ExprPtr> CnfConjuncts(const std::vector<ExprPtr>& predicates,
                                  bool* over_budget) {
  constexpr size_t kNormalizeBudget = 4096;
  std::vector<ExprPtr> conjuncts;
  for (const ExprPtr& pred : predicates) {
    Result<ExprPtr> cnf = ToCnf(pred, kNormalizeBudget);
    if (!cnf.ok()) {
      *over_budget = true;
      continue;
    }
    for (const ExprPtr& c : FlattenAnd(*cnf)) conjuncts.push_back(c);
  }
  return conjuncts;
}

void AppendColumnNames(const Schema& schema, std::vector<std::string>* names) {
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    names->push_back(schema.column(i).QualifiedName());
  }
}

KeyCoverage ProveKeyCoverage(const std::vector<ExprPtr>& conjuncts,
                             const std::vector<SpecShape::BaseTable>& tables,
                             size_t shift, const AttributeSet& initially_bound,
                             const AnalysisOptions& options,
                             const KeyCoverageSinks& sinks) {
  KeyCoverage out;
  ProofTrace* proof = sinks.proof;
  out.closure = BoundColumnClosure(conjuncts, initially_bound, options,
                                   sinks.trace, &out.any_equality_kept, proof);
  if (sinks.require_equality && !out.any_equality_kept) return out;
  // Line 17: Key(R) ⊕ Key(S) ⊆ V — generalized: every table must have at
  // least one candidate key fully inside V.
  for (const SpecShape::BaseTable& bt : tables) {
    const TableDef& table = bt.get->table();
    const size_t table_shift = shift + bt.offset;
    const KeyConstraint* covering_key = nullptr;
    for (const KeyConstraint& key : table.keys()) {
      if (key.kind == KeyKind::kUnique && !options.use_unique_keys) continue;
      bool covered = AttributeSet::FromVector(key.columns)
                         .Shifted(table_shift)
                         .IsSubsetOf(out.closure);
      if (proof != nullptr) {
        ProofKeyOutcome outcome;
        outcome.table = table.name();
        outcome.alias = bt.get->alias();
        outcome.key_name = key.name;
        outcome.covered = covered;
        for (size_t col : key.columns) {
          size_t pos = table_shift + col;
          outcome.key_columns.push_back(proof->NameOf(pos));
          if (!out.closure.Contains(pos)) {
            outcome.missing_columns.push_back(proof->NameOf(pos));
          }
        }
        proof->keys.push_back(std::move(outcome));
      }
      if (covered) {
        covering_key = &key;
        break;
      }
    }
    out.covering_keys.push_back(covering_key);
    if (covering_key != nullptr) continue;
    if (sinks.near_misses != nullptr) {
      ComputeTableNearMiss(sinks.goal, table, bt.get->alias(), table_shift,
                           out.closure, initially_bound, options,
                           sinks.near_misses);
    }
    if (!sinks.all_tables) break;
  }
  return out;
}

Result<Algorithm1Result> RunAlgorithm1(const SpecShape& shape,
                                       const Algorithm1Options& options) {
  obs::Span span("analysis.algorithm1");
  obs::MetricsRegistry::Global().GetCounter("analysis.algorithm1.runs")
      .Increment();
  static obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram("analysis.algorithm1.ns");
  obs::ScopedLatencyTimer timer(&latency);
  Algorithm1Result result;
  ProofTrace* proof = &result.proof;
  proof->recorded = true;
  AppendColumnNames(shape.project->input()->schema(), &proof->column_names);
  // Line 5: C := C_R ∧ C_S ∧ C_{R,S} ∧ T, in CNF.
  bool over_budget = false;
  std::vector<ExprPtr> conjuncts = CnfConjuncts(shape.predicates, &over_budget);
  if (over_budget) {
    // Predicate too complex to normalize: give up conservatively.
    result.trace.push_back("CNF budget exceeded; answer NO");
    proof->conclusion = "NO: CNF budget exceeded";
    span.AddAttr("answer", "NO");
    return result;
  }
  result.trace.push_back("C has " + std::to_string(conjuncts.size()) +
                         " conjunct(s)");

  // Projection attribute positions (over the product schema).
  AttributeSet projection =
      AttributeSet::FromVector(shape.project->columns());
  result.trace.push_back("V initialized to projection attributes " +
                         projection.ToString());

  KeyCoverageSinks sinks;
  sinks.trace = &result.trace;
  sinks.proof = proof;
  if (options.collect_near_misses) {
    sinks.near_misses = &result.near_misses;
    sinks.goal = "theorem1.distinct";
  }
  sinks.require_equality = options.verbatim_line10;
  KeyCoverage coverage = ProveKeyCoverage(conjuncts, shape.tables, 0,
                                          projection, options, sinks);
  if (!coverage.any_equality_kept && options.verbatim_line10) {
    // Line 10 of the published algorithm: C reduced to T ⇒ NO.
    result.trace.push_back("C = T after deletions; verbatim line 10: NO");
    proof->conclusion = "NO: C = T after deletions (verbatim line 10)";
    span.AddAttr("answer", "NO");
    return result;
  }
  result.trace.push_back("closure V = " + coverage.closure.ToString());
  for (size_t i = 0; i < coverage.covering_keys.size(); ++i) {
    const TableDef& table = shape.tables[i].get->table();
    if (const KeyConstraint* key = coverage.covering_keys[i]) {
      result.trace.push_back("key " + key->name + " of " + table.name() +
                             " covered by V");
      continue;
    }
    if (!table.HasAnyKey()) {
      result.trace.push_back("table " + table.name() +
                             " has no declared key: NO");
      proof->conclusion = "NO: table " + table.name() +
                          " has no declared candidate key";
    } else {
      const std::string& alias = shape.tables[i].get->alias();
      result.trace.push_back("no candidate key of " + table.name() + " (" +
                             alias + ") is covered: NO");
      proof->conclusion = "NO: no candidate key of " + table.name() + " (" +
                          alias + ") is covered by V";
    }
    span.AddAttr("answer", "NO");
    return result;
  }
  result.yes = true;
  result.trace.push_back("all table keys covered: YES");
  proof->conclusion =
      "YES: every FROM table has a candidate key covered by V; "
      "duplicate elimination is unnecessary (Theorem 1)";
  obs::MetricsRegistry::Global().GetCounter("analysis.algorithm1.yes")
      .Increment();
  span.AddAttr("answer", "YES");
  return result;
}

}  // namespace uniqopt
