#include "exec/cost_model.h"

#include <algorithm>
#include <cmath>

#include "exec/index_exec.h"
#include "exec/parallel.h"
#include "expr/equality.h"
#include "expr/normalize.h"

namespace uniqopt {

namespace {

double Log2(double x) { return x <= 2 ? 1.0 : std::log2(x); }

}  // namespace

double CostEstimator::DistinctCount(const std::string& table,
                                    size_t column) const {
  auto t = db_->GetTable(table);
  if (!t.ok()) return 1;
  // The statistics live with the pinned version: concurrent DML commits
  // publish a new version, and this one's counts stay exact for it.
  TableSnapshot snapshot = (*t)->Snapshot();
  return static_cast<double>(
      std::max<size_t>(1, snapshot->DistinctCount(column)));
}

double CostEstimator::ColumnDistinct(const PlanPtr& plan,
                                     size_t column) const {
  switch (plan->kind()) {
    case PlanKind::kGet:
      return DistinctCount(As<GetNode>(plan)->table().name(), column);
    case PlanKind::kSelect:
    case PlanKind::kExists:
      // Filtering can only reduce distinct counts; keep the upper bound.
      return ColumnDistinct(plan->child(0), column);
    case PlanKind::kProject: {
      const ProjectNode* p = As<ProjectNode>(plan);
      return ColumnDistinct(p->input(), p->columns()[column]);
    }
    case PlanKind::kProduct: {
      const ProductNode* p = As<ProductNode>(plan);
      size_t left_width = p->left()->schema().num_columns();
      return column < left_width
                 ? ColumnDistinct(p->left(), column)
                 : ColumnDistinct(p->right(), column - left_width);
    }
    case PlanKind::kSetOp:
      return ColumnDistinct(As<SetOpNode>(plan)->left(), column);
    case PlanKind::kAggregate: {
      const AggregateNode* agg = As<AggregateNode>(plan);
      if (column < agg->group_columns().size()) {
        return ColumnDistinct(agg->input(), agg->group_columns()[column]);
      }
      return EstimateRows(plan);
    }
  }
  return EstimateRows(plan);
}

double CostEstimator::AtomSelectivity(const ExprPtr& atom,
                                      const PlanPtr& input) const {
  EqualityAtom eq = ClassifyAtom(atom);
  switch (eq.type) {
    case AtomType::kType1ColumnConstant:
      return 1.0 / ColumnDistinct(input, eq.column);
    case AtomType::kType2ColumnColumn: {
      double d = std::max(ColumnDistinct(input, eq.column),
                          ColumnDistinct(input, eq.other_column));
      return 1.0 / std::max(1.0, d);
    }
    case AtomType::kOther:
      break;
  }
  switch (atom->kind()) {
    case ExprKind::kComparison:
      return 1.0 / 3;  // range heuristic
    case ExprKind::kIsNull:
      return 0.1;
    case ExprKind::kIsNotNull:
      return 0.9;
    case ExprKind::kOr: {
      double s = 0;
      for (const ExprPtr& d : atom->children()) {
        s += AtomSelectivity(d, input);
      }
      return std::min(1.0, s);
    }
    case ExprKind::kNot:
      return 1.0 - AtomSelectivity(atom->child(0), input);
    case ExprKind::kLiteral:
      if (atom->IsFalseLiteral()) return 0.0;
      return 1.0;
    default:
      return 0.5;
  }
}

double CostEstimator::Selectivity(const ExprPtr& predicate,
                                  const PlanPtr& input) const {
  double s = 1.0;
  for (const ExprPtr& conj : FlattenAnd(predicate)) {
    s *= AtomSelectivity(conj, input);
  }
  return std::clamp(s, 0.0, 1.0);
}

double CostEstimator::EstimateRows(const PlanPtr& plan) const {
  PhysicalOptions defaults;
  return EstimateNode(plan, defaults).rows;
}

PlanEstimate CostEstimator::Estimate(const PlanPtr& plan,
                                     const PhysicalOptions& options) const {
  PlanEstimate e = EstimateNode(plan, options);
  if (options.dop > 1) {
    // Morsel-driven lowering: work divides across workers, but each
    // worker pays a startup cost and the gather point pays one exchange
    // unit per output row (concatenation / merge of thread-local
    // pre-aggregation). Small plans therefore correctly prefer dop=1.
    constexpr double kWorkerStartup = 250;
    double dop = static_cast<double>(options.dop);
    e.cost = e.cost / dop + kWorkerStartup * dop + e.rows;
  }
  return e;
}

PlanEstimate CostEstimator::EstimateNode(
    const PlanPtr& plan, const PhysicalOptions& options) const {
  switch (plan->kind()) {
    case PlanKind::kGet: {
      PlanEstimate e;
      auto t = db_->GetTable(As<GetNode>(plan)->table().name());
      e.rows = t.ok() ? static_cast<double>((*t)->size()) : 1000;
      e.cost = e.rows;  // full scan
      return e;
    }
    case PlanKind::kSelect: {
      const SelectNode* node = As<SelectNode>(plan);
      if (node->predicate()->IsFalseLiteral()) {
        return PlanEstimate{0, 0};  // EmptySourceOp: input never opened
      }
      // Mirror the planner: a Select over a Product is a join.
      const ProductNode* product = As<ProductNode>(node->input());
      if (product != nullptr) {
        PlanEstimate left = EstimateNode(product->left(), options);
        PlanEstimate right = EstimateNode(product->right(), options);
        double sel = Selectivity(node->predicate(), node->input());
        PlanEstimate e;
        e.rows = std::max(1.0, left.rows * right.rows * sel);
        bool has_equi = false;
        size_t left_width = product->left()->schema().num_columns();
        std::vector<size_t> left_keys;
        std::vector<size_t> right_keys;
        for (const ExprPtr& conj : FlattenAnd(node->predicate())) {
          EqualityAtom a = ClassifyAtom(conj);
          if (a.type == AtomType::kType2ColumnColumn &&
              ((a.column < left_width) != (a.other_column < left_width))) {
            has_equi = true;
            size_t lc = a.column < left_width ? a.column : a.other_column;
            size_t rc = a.column < left_width ? a.other_column : a.column;
            left_keys.push_back(lc);
            right_keys.push_back(rc - left_width);
          }
        }
        if (options.join == PhysicalOptions::JoinStrategy::kHash &&
            has_equi) {
          // Mirror the planner: a bare keyed Get on the build side is
          // probed through its unique index — the build phase (and the
          // build-side scan) disappears. Parallel lowerings (dop > 1)
          // keep the shared hash build.
          const GetNode* right_get = As<GetNode>(product->right());
          if (options.use_indexes && options.dop <= 1 &&
              right_get != nullptr &&
              MatchUniqueIndexJoin(right_get->table(), left_keys,
                                   right_keys)
                  .has_value()) {
            e.cost = left.cost + left.rows + e.rows;
          } else {
            e.cost =
                left.cost + right.cost + left.rows + right.rows + e.rows;
          }
        } else {
          e.cost = left.cost + right.cost + left.rows * right.rows;
        }
        return e;
      }
      // A unique-index point lookup touches one hash bucket: constant
      // cost regardless of table size. This is what makes keyed point
      // queries prefer the probe over every scan-based alternative.
      if (options.use_indexes && options.dop <= 1) {
        const GetNode* get = As<GetNode>(node->input());
        if (get != nullptr &&
            MatchIndexLookup(get->table(), node->predicate())
                .has_value()) {
          return PlanEstimate{1, 2};
        }
      }
      PlanEstimate in = EstimateNode(node->input(), options);
      PlanEstimate e;
      e.rows = std::max(1.0, in.rows * Selectivity(node->predicate(),
                                                   node->input()));
      // Predicate evaluation is paid per conjunct per row — this is what
      // makes the RemoveImpliedPredicate rewrite visibly cheaper.
      double conjuncts =
          static_cast<double>(FlattenAnd(node->predicate()).size());
      e.cost = in.cost + in.rows * 0.1 * std::max(1.0, conjuncts);
      return e;
    }
    case PlanKind::kProject: {
      const ProjectNode* node = As<ProjectNode>(plan);
      PlanEstimate in = EstimateNode(node->input(), options);
      PlanEstimate e;
      if (node->mode() == DuplicateMode::kAll) {
        e.rows = in.rows;
        e.cost = in.cost + in.rows * 0.1;
        return e;
      }
      // Distinct output bounded by the product of column NDVs.
      double distinct = 1;
      for (size_t col : node->columns()) {
        distinct *= ColumnDistinct(node->input(), col);
        if (distinct > in.rows) break;
      }
      e.rows = std::min(in.rows, distinct);
      double dedup =
          options.distinct == PhysicalOptions::DistinctStrategy::kSort
              ? in.rows * Log2(in.rows) * 0.5
              : in.rows;
      e.cost = in.cost + in.rows * 0.1 + dedup;
      return e;
    }
    case PlanKind::kProduct: {
      const ProductNode* node = As<ProductNode>(plan);
      PlanEstimate left = EstimateNode(node->left(), options);
      PlanEstimate right = EstimateNode(node->right(), options);
      PlanEstimate e;
      e.rows = left.rows * right.rows;
      e.cost = left.cost + right.cost + e.rows;
      return e;
    }
    case PlanKind::kExists: {
      const ExistsNode* node = As<ExistsNode>(plan);
      PlanEstimate outer = EstimateNode(node->outer(), options);
      PlanEstimate inner = EstimateNode(node->sub(), options);
      PlanEstimate e;
      e.rows = std::max(1.0, outer.rows * (node->negated() ? 0.25 : 0.75));
      bool has_equi = false;
      size_t outer_width = node->outer()->schema().num_columns();
      for (const ExprPtr& conj : FlattenAnd(node->correlation())) {
        EqualityAtom a = ClassifyAtom(conj);
        if (a.type == AtomType::kType2ColumnColumn &&
            ((a.column < outer_width) != (a.other_column < outer_width))) {
          has_equi = true;
        }
      }
      if (options.join == PhysicalOptions::JoinStrategy::kHash && has_equi) {
        e.cost = outer.cost + inner.cost + inner.rows + outer.rows;
      } else {
        // Nested loops; EXISTS stops at the first witness (halved).
        e.cost = outer.cost + inner.cost + outer.rows * inner.rows * 0.5;
      }
      return e;
    }
    case PlanKind::kSetOp: {
      const SetOpNode* node = As<SetOpNode>(plan);
      PlanEstimate left = EstimateNode(node->left(), options);
      PlanEstimate right = EstimateNode(node->right(), options);
      PlanEstimate e;
      e.rows = node->op() == SetOpAlgebra::kIntersect
                   ? std::min(left.rows, right.rows) * 0.5
                   : left.rows * 0.5;
      if (options.sort_merge_intersect &&
          node->op() == SetOpAlgebra::kIntersect &&
          node->mode() == DuplicateMode::kDist) {
        e.cost = left.cost + right.cost + left.rows * Log2(left.rows) * 0.5 +
                 right.rows * Log2(right.rows) * 0.5;
      } else {
        e.cost = left.cost + right.cost + left.rows + right.rows;
      }
      return e;
    }
    case PlanKind::kAggregate: {
      const AggregateNode* node = As<AggregateNode>(plan);
      PlanEstimate in = EstimateNode(node->input(), options);
      PlanEstimate e;
      double groups = 1;
      for (size_t col : node->group_columns()) {
        groups *= ColumnDistinct(node->input(), col);
        if (groups > in.rows) break;
      }
      e.rows = node->group_columns().empty()
                   ? 1
                   : std::max(1.0, std::min(in.rows, groups));
      e.cost = in.cost + in.rows + e.rows;
      return e;
    }
  }
  return PlanEstimate{1, 1};
}

size_t ChooseBestAlternative(const CostEstimator& estimator,
                             std::vector<PlanAlternative>* alternatives) {
  size_t best = 0;
  for (size_t i = 0; i < alternatives->size(); ++i) {
    PlanAlternative& alt = (*alternatives)[i];
    alt.estimate = estimator.Estimate(alt.plan, alt.physical);
    if (alt.estimate.cost < (*alternatives)[best].estimate.cost) best = i;
  }
  return best;
}

std::vector<PlanAlternative> StandardAlternatives(const PlanPtr& original,
                                                  const PlanPtr& rewritten,
                                                  unsigned dop) {
  std::vector<PlanAlternative> out;
  auto add = [&](const PlanPtr& plan, const char* which) {
    PhysicalOptions hash;
    hash.join = PhysicalOptions::JoinStrategy::kHash;
    hash.distinct = PhysicalOptions::DistinctStrategy::kHash;
    out.push_back({plan, hash, std::string(which) + "/hash", {}});
    PhysicalOptions sort;
    sort.join = PhysicalOptions::JoinStrategy::kHash;
    sort.distinct = PhysicalOptions::DistinctStrategy::kSort;
    out.push_back({plan, sort, std::string(which) + "/sort-distinct", {}});
    PhysicalOptions nl;
    nl.join = PhysicalOptions::JoinStrategy::kNestedLoop;
    out.push_back({plan, nl, std::string(which) + "/nested-loop", {}});
    if (plan->kind() == PlanKind::kSetOp) {
      PhysicalOptions merge = hash;
      merge.sort_merge_intersect = true;
      out.push_back({plan, merge, std::string(which) + "/sort-merge", {}});
    }
    if (dop > 1 && SupportsParallelExecution(plan)) {
      PhysicalOptions parallel = hash;
      parallel.dop = dop;
      out.push_back({plan, parallel,
                     std::string(which) + "/parallel-dop" +
                         std::to_string(dop),
                     {}});
    }
  };
  add(original, "original");
  if (rewritten != original) add(rewritten, "rewritten");
  return out;
}

}  // namespace uniqopt
