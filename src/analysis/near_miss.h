#ifndef UNIQOPT_ANALYSIS_NEAR_MISS_H_
#define UNIQOPT_ANALYSIS_NEAR_MISS_H_

#include <string>
#include <vector>

#include "analysis/properties.h"
#include "analysis/shape.h"
#include "catalog/table_def.h"
#include "fd/attribute_set.h"
#include "obs/advisor.h"

namespace uniqopt {

/// Computes the minimal missing fact for one FROM table whose key
/// coverage failed, by diffing the fixpoint closure against the goal
/// set (not by brute force over column subsets):
///
///   B = closure `bound` restricted to the table's columns (the columns
///       the proof *did* establish as bound);
///   G = `goal_columns` (the initially-bound seed: projection or
///       grouping columns) restricted to the table.
///
/// Candidates, cheapest wins (ties prefer the key form):
///   - UNIQUE over G (or over B when no goal column touches the table):
///     declaring those columns a candidate key covers the table
///     outright. Cost = |columns|.
///   - For each declared key K (UNIQUE keys only when
///     `options.use_unique_keys`): the FD B -> K\B would complete K's
///     coverage. Cost = |K\B|.
///
/// Emits nothing when B is empty — no bound column reaches the table,
/// so no single declaration closes the gap. `shift` is the table's
/// first column position within the product schema; `bound` and
/// `goal_columns` are product-schema sets.
void ComputeTableNearMiss(const std::string& goal, const TableDef& table,
                          const std::string& alias, size_t shift,
                          const AttributeSet& bound,
                          const AttributeSet& goal_columns,
                          const AnalysisOptions& options,
                          std::vector<obs::NearMiss>* out);

/// Runs the key-coverage proof (ProveKeyCoverage) over `shape` seeded
/// with `initially_bound`, without recording a proof, and emits one
/// near-miss per table whose candidate keys the closure fails to cover.
/// A predicate over the CNF budget is skipped rather than failing the
/// proof. Used by the rewriter at rejection sites that have a shape but
/// not an Algorithm1Result (set-operation operands, GROUP-BY-on-key,
/// Corollary 1 outer blocks).
std::vector<obs::NearMiss> CollectShapeNearMisses(
    const SpecShape& shape, const AttributeSet& initially_bound,
    const std::string& goal, const AnalysisOptions& options);

/// Convenience over CollectShapeNearMisses: extracts the spec shape of
/// `plan` (projection over a product) and seeds the closure with its
/// projection columns. Returns empty when the plan has no such shape.
std::vector<obs::NearMiss> CollectSpecNearMisses(
    const PlanPtr& plan, const std::string& goal,
    const AnalysisOptions& options);

}  // namespace uniqopt

#endif  // UNIQOPT_ANALYSIS_NEAR_MISS_H_
