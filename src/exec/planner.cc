#include "exec/planner.h"

#include <memory>

#include "exec/index_exec.h"
#include "exec/operators.h"
#include "exec/parallel.h"
#include "expr/equality.h"
#include "expr/normalize.h"

namespace uniqopt {

namespace {

/// Classification of a conjunct relative to a left|right column split.
enum class Side { kLeft, kRight, kBoth, kNone };

Side ClassifySide(const ExprPtr& conjunct, size_t left_width) {
  std::vector<size_t> cols;
  conjunct->CollectColumns(&cols);
  if (cols.empty()) return Side::kNone;
  bool any_left = false;
  bool any_right = false;
  for (size_t c : cols) {
    if (c < left_width) {
      any_left = true;
    } else {
      any_right = true;
    }
  }
  if (any_left && any_right) return Side::kBoth;
  return any_left ? Side::kLeft : Side::kRight;
}

/// An equi-join conjunct col_l = col_r crossing the split, if any.
bool ExtractEquiPair(const ExprPtr& conjunct, size_t left_width,
                     size_t* left_col, size_t* right_col) {
  EqualityAtom atom = ClassifyAtom(conjunct);
  if (atom.type != AtomType::kType2ColumnColumn) return false;
  size_t a = atom.column;
  size_t b = atom.other_column;
  if (a < left_width && b >= left_width) {
    *left_col = a;
    *right_col = b - left_width;
    return true;
  }
  if (b < left_width && a >= left_width) {
    *left_col = b;
    *right_col = a - left_width;
    return true;
  }
  return false;
}

class Lowering {
 public:
  Lowering(const Database& db, const PhysicalOptions& options,
           ExecProfile* profile, ParallelLoweringHooks* hooks)
      : db_(db), options_(options), profile_(profile), hooks_(hooks) {}

  /// Lowers one plan node; with a profile attached, the node's operator
  /// (plus any helper operators lowered inline for it, e.g. pushed-down
  /// filters) is wrapped in a metering ProfileOp. Slots register before
  /// children are lowered, so the profile lists operators in preorder.
  Result<OperatorPtr> Lower(const PlanPtr& plan) {
    if (profile_ == nullptr) return LowerNode(plan);
    size_t slot = profile_->Reserve(depth_);
    ++depth_;
    Result<OperatorPtr> lowered = LowerNode(plan);
    --depth_;
    if (!lowered.ok()) return lowered;
    profile_->SetName(slot, (*lowered)->name());
    return OperatorPtr(new ProfileOp(std::move(*lowered), profile_, slot));
  }

 private:
  Result<OperatorPtr> LowerNode(const PlanPtr& plan) {
    switch (plan->kind()) {
      case PlanKind::kGet:
        return LowerGet(*As<GetNode>(plan));
      case PlanKind::kSelect:
        return LowerSelect(*As<SelectNode>(plan));
      case PlanKind::kProject:
        return LowerProject(*As<ProjectNode>(plan));
      case PlanKind::kProduct: {
        const ProductNode& node = *As<ProductNode>(plan);
        UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr l, Lower(node.left()));
        UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr r, Lower(node.right()));
        return OperatorPtr(
            new NestedLoopProductOp(std::move(l), std::move(r)));
      }
      case PlanKind::kExists:
        return LowerExists(*As<ExistsNode>(plan));
      case PlanKind::kSetOp:
        return LowerSetOp(*As<SetOpNode>(plan));
      case PlanKind::kAggregate: {
        const AggregateNode& node = *As<AggregateNode>(plan);
        UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr child, Lower(node.input()));
        return OperatorPtr(new HashAggregateOp(std::move(child),
                                               node.schema(),
                                               node.group_columns(),
                                               node.aggregates()));
      }
    }
    return Status::Internal("unhandled plan kind in lowering");
  }

  Result<OperatorPtr> LowerGet(const GetNode& node) {
    if (hooks_ != nullptr && &node == hooks_->driver) {
      return OperatorPtr(new MorselScanOp(hooks_->driver_snapshot,
                                          node.schema(), hooks_->cursor));
    }
    UNIQOPT_ASSIGN_OR_RETURN(const Table* table,
                             db_.GetTable(node.table().name()));
    return OperatorPtr(new TableScanOp(table, node.schema()));
  }

  Result<OperatorPtr> LowerProject(const ProjectNode& node) {
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr child, Lower(node.input()));
    OperatorPtr project(
        new ProjectOp(std::move(child), node.columns()));
    if (node.mode() == DuplicateMode::kAll) return project;
    if (options_.distinct == PhysicalOptions::DistinctStrategy::kSort) {
      return OperatorPtr(new SortDistinctOp(std::move(project)));
    }
    return OperatorPtr(new HashDistinctOp(std::move(project)));
  }

  /// Select over a Product becomes a join: single-side conjuncts are
  /// pushed below (when enabled), crossing equi-conjuncts become hash
  /// join keys (when enabled), the rest stays as a residual/filter.
  Result<OperatorPtr> LowerSelect(const SelectNode& node) {
    // A constant-FALSE selection produces nothing; skip the input.
    if (node.predicate()->IsFalseLiteral()) {
      return OperatorPtr(new EmptySourceOp(node.schema()));
    }
    const ProductNode* product = As<ProductNode>(node.input());
    if (product == nullptr) {
      // σ over a bare keyed Get whose equality conjuncts cover a
      // declared key is at most one row: probe the unique index instead
      // of scanning. Parallel lowerings keep the scan — a single probe
      // has nothing to parallelize.
      if (options_.use_indexes && hooks_ == nullptr) {
        const GetNode* get = As<GetNode>(node.input());
        if (get != nullptr) {
          std::optional<IndexLookupMatch> match =
              MatchIndexLookup(get->table(), node.predicate());
          if (match.has_value()) {
            UNIQOPT_ASSIGN_OR_RETURN(const Table* table,
                                     db_.GetTable(get->table().name()));
            ExprPtr residual =
                match->residual.empty()
                    ? nullptr
                    : Expr::MakeAnd(std::move(match->residual));
            return OperatorPtr(new IndexLookupOp(
                table, node.schema(), match->key_index,
                std::move(match->probes), std::move(residual),
                KeyDisplayName(get->table(), match->key_index)));
          }
        }
      }
      UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr child, Lower(node.input()));
      return OperatorPtr(new FilterOp(std::move(child), node.predicate()));
    }
    size_t left_width = product->left()->schema().num_columns();
    std::vector<ExprPtr> left_only;
    std::vector<ExprPtr> right_only;
    std::vector<ExprPtr> residual;
    std::vector<size_t> left_keys;
    std::vector<size_t> right_keys;
    for (const ExprPtr& conj : FlattenAnd(node.predicate())) {
      size_t lc = 0;
      size_t rc = 0;
      if (options_.join == PhysicalOptions::JoinStrategy::kHash &&
          ExtractEquiPair(conj, left_width, &lc, &rc)) {
        left_keys.push_back(lc);
        right_keys.push_back(rc);
        continue;
      }
      if (options_.predicate_pushdown) {
        Side side = ClassifySide(conj, left_width);
        if (side == Side::kLeft) {
          left_only.push_back(conj);
          continue;
        }
        if (side == Side::kRight) {
          right_only.push_back(ShiftColumnsDown(conj, left_width));
          continue;
        }
      }
      residual.push_back(conj);
    }
    // When the build side is a bare Get and the build-side equi-columns
    // are exactly a declared key, the committed unique index already IS
    // the hash table: probe it and skip the build phase entirely.
    if (!left_keys.empty() && options_.use_indexes && hooks_ == nullptr) {
      const GetNode* right_get = As<GetNode>(product->right());
      if (right_get != nullptr) {
        std::optional<IndexJoinMatch> match = MatchUniqueIndexJoin(
            right_get->table(), left_keys, right_keys);
        if (match.has_value()) {
          UNIQOPT_ASSIGN_OR_RETURN(const Table* right_table,
                                   db_.GetTable(right_get->table().name()));
          UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr left,
                                   Lower(product->left()));
          if (!left_only.empty()) {
            left = OperatorPtr(new FilterOp(
                std::move(left), Expr::MakeAnd(std::move(left_only))));
          }
          ExprPtr right_filter =
              right_only.empty() ? nullptr
                                 : Expr::MakeAnd(std::move(right_only));
          ExprPtr res = residual.empty()
                            ? nullptr
                            : Expr::MakeAnd(std::move(residual));
          return OperatorPtr(new UniqueIndexJoinOp(
              std::move(left), right_table, right_get->schema(),
              match->key_index, std::move(match->left_keys),
              std::move(right_filter), std::move(res),
              KeyDisplayName(right_get->table(), match->key_index)));
        }
      }
    }
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr left, Lower(product->left()));
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr right, Lower(product->right()));
    if (!left_only.empty()) {
      left = OperatorPtr(
          new FilterOp(std::move(left), Expr::MakeAnd(std::move(left_only))));
    }
    if (!right_only.empty()) {
      right = OperatorPtr(new FilterOp(std::move(right),
                                       Expr::MakeAnd(std::move(right_only))));
    }
    if (!left_keys.empty()) {
      ExprPtr res = residual.empty() ? nullptr
                                     : Expr::MakeAnd(std::move(residual));
      std::shared_ptr<SharedJoinBuild> build = SharedBuild(node, right_keys);
      return OperatorPtr(new HashJoinOp(
          std::move(left), std::move(right), std::move(left_keys),
          std::move(right_keys), std::move(res), std::move(build)));
    }
    OperatorPtr join(
        new NestedLoopProductOp(std::move(left), std::move(right)));
    if (residual.empty()) return join;
    return OperatorPtr(
        new FilterOp(std::move(join), Expr::MakeAnd(std::move(residual))));
  }

  Result<OperatorPtr> LowerExists(const ExistsNode& node) {
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr outer, Lower(node.outer()));
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr inner, Lower(node.sub()));
    size_t outer_width = node.outer()->schema().num_columns();
    if (options_.join == PhysicalOptions::JoinStrategy::kHash) {
      std::vector<size_t> outer_keys;
      std::vector<size_t> inner_keys;
      std::vector<ExprPtr> residual;
      for (const ExprPtr& conj : FlattenAnd(node.correlation())) {
        size_t oc = 0;
        size_t ic = 0;
        if (ExtractEquiPair(conj, outer_width, &oc, &ic)) {
          outer_keys.push_back(oc);
          inner_keys.push_back(ic);
        } else {
          residual.push_back(conj);
        }
      }
      if (!outer_keys.empty()) {
        ExprPtr res = residual.empty() ? nullptr
                                       : Expr::MakeAnd(std::move(residual));
        std::shared_ptr<SharedJoinBuild> build = SharedBuild(node, inner_keys);
        return OperatorPtr(new HashSemiJoinOp(
            std::move(outer), std::move(inner), std::move(outer_keys),
            std::move(inner_keys), std::move(res), node.negated(),
            std::move(build)));
      }
    }
    return OperatorPtr(new NestedLoopSemiJoinOp(std::move(outer),
                                                std::move(inner),
                                                node.correlation(),
                                                node.negated()));
  }

  Result<OperatorPtr> LowerSetOp(const SetOpNode& node) {
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr left, Lower(node.left()));
    UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr right, Lower(node.right()));
    if (options_.sort_merge_intersect &&
        node.op() == SetOpAlgebra::kIntersect &&
        node.mode() == DuplicateMode::kDist) {
      return OperatorPtr(
          new SortMergeIntersectOp(std::move(left), std::move(right)));
    }
    return OperatorPtr(
        new SetOpOp(node.op(), node.mode(), std::move(left),
                    std::move(right)));
  }

  /// The build the workers of a parallel lowering share for the join
  /// `node` lowers to; nullptr for a serial lowering, whose join builds
  /// its own. All worker lowerings hit `node` (pointer identity — plan
  /// nodes are shared, not copied, across lowerings), so the first one
  /// creates the build and the rest reuse it.
  std::shared_ptr<SharedJoinBuild> SharedBuild(
      const PlanNode& node, const std::vector<size_t>& build_keys) {
    if (hooks_ == nullptr) return nullptr;
    std::shared_ptr<SharedJoinBuild>& build = hooks_->shared_builds[&node];
    if (build == nullptr) {
      build = std::make_shared<SharedJoinBuild>(build_keys,
                                                hooks_->build_partitions);
    }
    return build;
  }

  /// Rebases a right-side-only conjunct from product coordinates into the
  /// right child's own coordinates.
  static ExprPtr ShiftColumnsDown(const ExprPtr& expr, size_t left_width) {
    size_t max_col = expr->MaxColumnIndexPlusOne();
    std::vector<size_t> mapping(max_col, 0);
    for (size_t i = left_width; i < max_col; ++i) mapping[i] = i - left_width;
    return RemapColumns(expr, mapping);
  }

  const Database& db_;
  const PhysicalOptions& options_;
  ExecProfile* profile_;
  ParallelLoweringHooks* hooks_;
  int depth_ = 0;
};

}  // namespace

Result<OperatorPtr> CreatePhysicalPlan(const PlanPtr& plan,
                                       const Database& db,
                                       const PhysicalOptions& options,
                                       ExecProfile* profile,
                                       ParallelLoweringHooks* hooks) {
  Lowering lowering(db, options, profile, hooks);
  return lowering.Lower(plan);
}

Result<std::vector<Row>> ExecutePlan(const PlanPtr& plan, const Database& db,
                                     ExecContext* ctx,
                                     const PhysicalOptions& options,
                                     ExecProfile* profile) {
  if (options.dop > 1) {
    UNIQOPT_ASSIGN_OR_RETURN(
        std::optional<std::vector<Row>> parallel,
        TryParallelExecute(plan, db, ctx, options, profile));
    if (parallel.has_value()) return std::move(*parallel);
    // Unsupported plan shape: fall through to the serial executor.
  }
  UNIQOPT_ASSIGN_OR_RETURN(OperatorPtr root,
                           CreatePhysicalPlan(plan, db, options, profile));
  return ExecuteToVector(root.get(), ctx);
}

}  // namespace uniqopt
