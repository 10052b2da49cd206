#ifndef UNIQOPT_ANALYSIS_ALGORITHM1_H_
#define UNIQOPT_ANALYSIS_ALGORITHM1_H_

#include <string>
#include <vector>

#include "analysis/proof.h"
#include "analysis/properties.h"
#include "analysis/shape.h"
#include "common/result.h"
#include "fd/attribute_set.h"
#include "obs/advisor.h"

namespace uniqopt {

/// Options for the paper's Algorithm 1 (§4) on top of the shared
/// analysis switches.
struct Algorithm1Options : AnalysisOptions {
  /// Reproduce the published algorithm exactly, including line 10's
  /// `if C = T then return NO`. When false (default), a predicate that
  /// reduces to TRUE proceeds with V = A, so purely-projective queries
  /// such as `SELECT DISTINCT * FROM R` are recognized (a sound
  /// strengthening the paper's theorem clearly admits).
  bool verbatim_line10 = false;
};

/// Outcome of Algorithm 1, with the step-by-step trace the paper walks
/// through in Example 5.
struct Algorithm1Result {
  bool yes = false;  ///< YES: duplicate elimination is unnecessary.
  /// Human-readable trace (one line per algorithm step).
  std::vector<std::string> trace;
  /// Structured proof: normalization decisions, closure steps, per-key
  /// outcomes.
  ProofTrace proof;
  /// On NO: the minimal missing fact for the first failing table
  /// (populated when options.collect_near_misses).
  std::vector<obs::NearMiss> near_misses;
};

/// Line 5 of Algorithm 1: the top-level conjuncts of every predicate,
/// each CNF-normalized individually so that `a = b AND (x = 1 OR y = 2)`
/// keeps its useful first conjunct. A predicate over the normalization
/// budget contributes nothing and sets `*over_budget`.
std::vector<ExprPtr> CnfConjuncts(const std::vector<ExprPtr>& predicates,
                                  bool* over_budget);

/// Appends the qualified display names of `schema`'s columns: callers
/// build an analysis frame's ProofTrace::column_names from its schemas.
void AppendColumnNames(const Schema& schema, std::vector<std::string>* names);

/// Outcome of ProveKeyCoverage.
struct KeyCoverage {
  /// The closed bound-column set V.
  AttributeSet closure;
  /// Whether any Type 1/2 equality survived normalization.
  bool any_equality_kept = false;
  /// covering_keys[i]: the first candidate key of tables[i] inside V, or
  /// null. Ends after the first null unless `KeyCoverageSinks::all_tables`.
  std::vector<const KeyConstraint*> covering_keys;
};

/// Optional outputs and stopping rules of ProveKeyCoverage.
struct KeyCoverageSinks {
  /// Closure trace lines: each conjunct kept or deleted.
  std::vector<std::string>* trace = nullptr;
  /// Closure fields and one ProofKeyOutcome per tested key;
  /// `column_names` must already hold the frame's display names.
  ProofTrace* proof = nullptr;
  /// The minimal missing fact of each uncovered table, labelled `goal`.
  std::vector<obs::NearMiss>* near_misses = nullptr;
  const char* goal = "";
  /// Test every table rather than stopping at the first uncovered one.
  bool all_tables = false;
  /// Test no key when no equality survives normalization (Algorithm 1's
  /// verbatim line 10, where C = T answers NO).
  bool require_equality = false;
};

/// The proof shared by Algorithm 1 (lines 6–17) and the Theorem 2 test.
/// Conjuncts that are not atomic Type 1/2 equalities are deleted (which
/// only weakens the tested condition — sound); V starts as
/// `initially_bound` plus every column equated to a constant or host
/// variable and is closed over column = column equalities; then each of
/// `tables` (whose frame columns start at `shift` + its offset) needs a
/// candidate key inside V. Algorithm 1 seeds V with the projection
/// columns, Theorem 2 with the outer columns; near-misses use the seed
/// as their goal columns.
KeyCoverage ProveKeyCoverage(const std::vector<ExprPtr>& conjuncts,
                             const std::vector<SpecShape::BaseTable>& tables,
                             size_t shift, const AttributeSet& initially_bound,
                             const AnalysisOptions& options,
                             const KeyCoverageSinks& sinks);

/// Runs Algorithm 1 on a decomposed query specification: returns YES iff
/// for every FROM table some candidate key is contained in the closure
/// of the projection attributes. Implements lines 1–20 of the paper,
/// generalized to n tables (the paper's stated extension).
Result<Algorithm1Result> RunAlgorithm1(const SpecShape& shape,
                                       const Algorithm1Options& options = {});

}  // namespace uniqopt

#endif  // UNIQOPT_ANALYSIS_ALGORITHM1_H_
