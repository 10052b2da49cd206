#ifndef UNIQOPT_TESTS_REFERENCE_INTERPRETER_H_
#define UNIQOPT_TESTS_REFERENCE_INTERPRETER_H_

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "plan/plan.h"
#include "storage/table.h"
#include "types/row.h"

namespace uniqopt {

/// A deliberately naive interpreter of the logical plan, used as the
/// oracle the physical executor is compared against. Each PlanNode kind
/// is evaluated straight from its §2.2 definition: nested loops, full
/// materialization of every non-streaming input, and per-row
/// tree-interpreted predicates (Expr::EvaluatePredicate, never a
/// compiled PredicateProgram). It shares no code with src/exec, so a bug
/// in an operator, in the batch plumbing or in the predicate compiler
/// cannot hide on both sides of a comparison.
///
/// Rows stream through push callbacks so that σ over × filters pairs as
/// they are formed instead of materializing the full product.
class ReferenceInterpreter {
 public:
  ReferenceInterpreter(const Database& db, std::vector<Value> params)
      : db_(db), params_(std::move(params)) {}

  /// All rows of `plan`, in no particular order.
  Result<std::vector<Row>> Run(const PlanPtr& plan) { return Collect(plan); }

 private:
  using Sink = std::function<void(const Row&)>;

  Result<std::vector<Row>> Collect(const PlanPtr& plan) {
    std::vector<Row> rows;
    UNIQOPT_RETURN_NOT_OK(Emit(plan, [&](const Row& r) { rows.push_back(r); }));
    return rows;
  }

  bool Holds(const ExprPtr& predicate, const Row& row) const {
    return predicate->EvaluatePredicate(row, params_) == Tribool::kTrue;
  }

  Status Emit(const PlanPtr& plan, const Sink& sink) {
    switch (plan->kind()) {
      case PlanKind::kGet: {
        UNIQOPT_ASSIGN_OR_RETURN(
            const Table* table,
            db_.GetTable(As<GetNode>(plan)->table().name()));
        TableSnapshot snapshot = table->Snapshot();
        for (const Row& row : snapshot->rows) sink(row);
        return Status::OK();
      }
      case PlanKind::kSelect: {
        const SelectNode* node = As<SelectNode>(plan);
        return Emit(node->input(), [&](const Row& row) {
          if (Holds(node->predicate(), row)) sink(row);
        });
      }
      case PlanKind::kProject: {
        const ProjectNode* node = As<ProjectNode>(plan);
        if (node->mode() == DuplicateMode::kAll) {
          return Emit(node->input(), [&](const Row& row) {
            sink(row.Project(node->columns()));
          });
        }
        std::vector<Row> projected;
        UNIQOPT_RETURN_NOT_OK(Emit(node->input(), [&](const Row& row) {
          projected.push_back(row.Project(node->columns()));
        }));
        for (const Row& row : Distinct(std::move(projected))) sink(row);
        return Status::OK();
      }
      case PlanKind::kProduct: {
        const ProductNode* node = As<ProductNode>(plan);
        UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> right,
                                 Collect(node->right()));
        return Emit(node->left(), [&](const Row& left) {
          for (const Row& r : right) sink(Row::Concat(left, r));
        });
      }
      case PlanKind::kExists: {
        const ExistsNode* node = As<ExistsNode>(plan);
        UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> sub, Collect(node->sub()));
        return Emit(node->outer(), [&](const Row& outer) {
          bool found = false;
          for (const Row& s : sub) {
            if (Holds(node->correlation(), Row::Concat(outer, s))) {
              found = true;
              break;
            }
          }
          if (found != node->negated()) sink(outer);
        });
      }
      case PlanKind::kSetOp:
        return EmitSetOp(*As<SetOpNode>(plan), sink);
      case PlanKind::kAggregate:
        return EmitAggregate(*As<AggregateNode>(plan), sink);
    }
    return Status::Internal("reference interpreter: unhandled plan kind");
  }

  /// One row per `=!`-equal group, each with its multiplicity.
  static std::vector<std::pair<Row, size_t>> Counted(std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end());
    std::vector<std::pair<Row, size_t>> counted;
    for (Row& row : rows) {
      if (!counted.empty() && counted.back().first.NullSafeEquals(row)) {
        ++counted.back().second;
      } else {
        counted.emplace_back(std::move(row), 1);
      }
    }
    return counted;
  }

  static std::vector<Row> Distinct(std::vector<Row> rows) {
    std::vector<Row> out;
    for (auto& [row, count] : Counted(std::move(rows))) {
      out.push_back(std::move(row));
    }
    return out;
  }

  static size_t CountOf(const std::vector<std::pair<Row, size_t>>& counted,
                        const Row& row) {
    for (const auto& [r, count] : counted) {
      if (r.NullSafeEquals(row)) return count;
    }
    return 0;
  }

  /// INTERSECT: min(j, k) copies (ALL) or one if both > 0 (DISTINCT);
  /// EXCEPT: max(j − k, 0) copies (ALL) or one if k = 0 (DISTINCT).
  Status EmitSetOp(const SetOpNode& node, const Sink& sink) {
    UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> left, Collect(node.left()));
    UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> right, Collect(node.right()));
    std::vector<std::pair<Row, size_t>> right_counts =
        Counted(std::move(right));
    const bool all = node.mode() == DuplicateMode::kAll;
    for (const auto& [row, j] : Counted(std::move(left))) {
      size_t k = CountOf(right_counts, row);
      size_t copies = 0;
      if (node.op() == SetOpAlgebra::kIntersect) {
        copies = all ? std::min(j, k) : (k > 0 ? 1 : 0);
      } else {
        copies = all ? (j > k ? j - k : 0) : (k == 0 ? 1 : 0);
      }
      for (size_t c = 0; c < copies; ++c) sink(row);
    }
    return Status::OK();
  }

  /// GROUP BY under `=!` with SQL aggregate semantics, folded naively
  /// over each group's rows in input order. A scalar aggregate over
  /// empty input still yields its one row.
  Status EmitAggregate(const AggregateNode& node, const Sink& sink) {
    UNIQOPT_ASSIGN_OR_RETURN(std::vector<Row> input, Collect(node.input()));
    std::vector<Row> keys;
    std::vector<std::vector<const Row*>> groups;
    for (const Row& row : input) {
      Row key = row.Project(node.group_columns());
      size_t g = 0;
      while (g < keys.size() && !keys[g].NullSafeEquals(key)) ++g;
      if (g == keys.size()) {
        keys.push_back(std::move(key));
        groups.emplace_back();
      }
      groups[g].push_back(&row);
    }
    if (node.group_columns().empty() && keys.empty()) {
      keys.emplace_back();
      groups.emplace_back();
    }
    const Schema& in = node.input()->schema();
    for (size_t g = 0; g < keys.size(); ++g) {
      Row out = keys[g];
      for (const AggregateItem& agg : node.aggregates()) {
        out.Append(Fold(agg, in, groups[g]));
      }
      sink(out);
    }
    return Status::OK();
  }

  static Value Fold(const AggregateItem& agg, const Schema& in,
                    const std::vector<const Row*>& rows) {
    if (agg.func == AggFunc::kCountStar) {
      return Value::Integer(static_cast<int64_t>(rows.size()));
    }
    const TypeId type = in.column(agg.arg_column).type;
    std::vector<Value> vals;
    for (const Row* row : rows) {
      const Value& v = (*row)[agg.arg_column];
      if (!v.is_null()) vals.push_back(v);
    }
    if (agg.func == AggFunc::kCount) {
      return Value::Integer(static_cast<int64_t>(vals.size()));
    }
    if (vals.empty()) {
      return Value::Null(agg.func == AggFunc::kAvg ? TypeId::kDouble : type);
    }
    switch (agg.func) {
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        int64_t sum_int = 0;
        double sum = 0;
        for (const Value& v : vals) {
          if (v.type() == TypeId::kInteger) sum_int += v.AsInteger();
          sum += v.AsNumeric();
        }
        if (agg.func == AggFunc::kAvg) {
          return Value::Double(sum / static_cast<double>(vals.size()));
        }
        return type == TypeId::kInteger ? Value::Integer(sum_int)
                                        : Value::Double(sum);
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        const bool min = agg.func == AggFunc::kMin;
        Value best = vals[0];
        for (const Value& v : vals) {
          int c = v.Compare(best);
          if (min ? c < 0 : c > 0) best = v;
        }
        return best;
      }
      default:
        break;
    }
    return Value::Null(type);
  }

  const Database& db_;
  std::vector<Value> params_;
};

}  // namespace uniqopt

#endif  // UNIQOPT_TESTS_REFERENCE_INTERPRETER_H_
