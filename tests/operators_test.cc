// Direct operator-level tests for the batch executor: edge cases that
// SQL-level tests reach only indirectly (NULL join keys, residual
// predicates, re-Open behaviour, empty inputs).

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "test_util.h"

namespace uniqopt {
namespace {

Schema OneIntColumn(const char* name) {
  return Schema({{"T", name, TypeId::kInteger, true}});
}

/// Materialized-rows source for operator tests.
class VectorSourceOp final : public Operator {
 public:
  VectorSourceOp(Schema schema, std::vector<Row> rows)
      : Operator(std::move(schema)), rows_(std::move(rows)) {}

  Status Open(ExecContext*) override {
    pos_ = 0;
    ++opens_;
    return Status::OK();
  }
  Result<bool> NextBatch(ExecContext*, RowBatch* out) override {
    out->Reset();
    if (pos_ >= rows_.size()) return false;
    size_t n = std::min(out->capacity(), rows_.size() - pos_);
    out->Borrow(rows_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  void Close() override {}
  std::string name() const override { return "VectorSource"; }

  int opens() const { return opens_; }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
  int opens_ = 0;
};

OperatorPtr IntSource(const char* name, std::vector<int64_t> values,
                      std::vector<size_t> null_positions = {}) {
  std::vector<Row> rows;
  for (size_t i = 0; i < values.size(); ++i) {
    bool is_null = false;
    for (size_t p : null_positions) is_null = is_null || p == i;
    std::vector<Value> cells;
    cells.push_back(is_null ? Value::Null(TypeId::kInteger)
                            : Value::Integer(values[i]));
    rows.push_back(Row(std::move(cells)));
  }
  return OperatorPtr(new VectorSourceOp(OneIntColumn(name),
                                        std::move(rows)));
}

TEST(OperatorsTest, FilterRejectsUnknown) {
  // x > 1 over {0, 2, NULL}: only 2 passes (UNKNOWN rejects).
  OperatorPtr src = IntSource("X", {0, 2, 0}, {2});
  ExprPtr pred = Expr::Compare(CompareOp::kGt,
                               Expr::ColumnRef(0, "X", TypeId::kInteger),
                               Expr::Literal(Value::Integer(1)));
  FilterOp filter(std::move(src), pred);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecuteToVector(&filter, &ctx));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInteger(), 2);
}

TEST(OperatorsTest, HashJoinSkipsNullKeys) {
  // NULL keys never match under 3VL `=`.
  OperatorPtr left = IntSource("L", {1, 2, 0}, {2});
  OperatorPtr right = IntSource("R", {2, 3, 0}, {2});
  HashJoinOp join(std::move(left), std::move(right), {0}, {0}, nullptr);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&join, &ctx));
  ASSERT_EQ(rows.size(), 1u);  // only 2 = 2
  EXPECT_EQ(rows[0][0].AsInteger(), 2);
  EXPECT_EQ(rows[0][1].AsInteger(), 2);
}

TEST(OperatorsTest, HashJoinResidualPredicate) {
  OperatorPtr left = IntSource("L", {1, 1, 2});
  OperatorPtr right = IntSource("R", {1, 2});
  // Join on equality plus residual L < 2 ⇒ rows with L = 1 only.
  ExprPtr residual = Expr::Compare(CompareOp::kLt,
                                   Expr::ColumnRef(0, "L", TypeId::kInteger),
                                   Expr::Literal(Value::Integer(2)));
  HashJoinOp join(std::move(left), std::move(right), {0}, {0}, residual);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&join, &ctx));
  EXPECT_EQ(rows.size(), 2u);  // two L=1 rows match R=1
}

TEST(OperatorsTest, HashJoinDuplicateBuildKeys) {
  OperatorPtr left = IntSource("L", {7});
  OperatorPtr right = IntSource("R", {7, 7, 7});
  HashJoinOp join(std::move(left), std::move(right), {0}, {0}, nullptr);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&join, &ctx));
  EXPECT_EQ(rows.size(), 3u);
}

TEST(OperatorsTest, SemiJoinEmitsOuterOncePerMatch) {
  OperatorPtr outer = IntSource("L", {1, 2, 3});
  OperatorPtr inner = IntSource("R", {2, 2, 3, 3});
  HashSemiJoinOp semi(std::move(outer), std::move(inner), {0}, {0}, nullptr,
                      /*negated=*/false);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&semi, &ctx));
  EXPECT_EQ(rows.size(), 2u);  // 2 and 3 once each, 1 dropped
}

TEST(OperatorsTest, AntiJoinKeepsNullKeyedOuter) {
  // NULL outer key never matches ⇒ NOT EXISTS keeps the row.
  OperatorPtr outer = IntSource("L", {1, 0}, {1});
  OperatorPtr inner = IntSource("R", {1});
  HashSemiJoinOp anti(std::move(outer), std::move(inner), {0}, {0}, nullptr,
                      /*negated=*/true);
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&anti, &ctx));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());
}

TEST(OperatorsTest, NestedLoopSemiJoinMatchesHashVariant) {
  auto make_pair = [] {
    return std::make_pair(IntSource("L", {1, 2, 3, 0}, {3}),
                          IntSource("R", {2, 3}));
  };
  ExprPtr corr = Expr::Compare(CompareOp::kEq,
                               Expr::ColumnRef(0, "L", TypeId::kInteger),
                               Expr::ColumnRef(1, "R", TypeId::kInteger));
  auto [o1, i1] = make_pair();
  NestedLoopSemiJoinOp nl(std::move(o1), std::move(i1), corr, false);
  auto [o2, i2] = make_pair();
  HashSemiJoinOp hash(std::move(o2), std::move(i2), {0}, {0}, nullptr,
                      false);
  ExecContext c1;
  ExecContext c2;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> a, ExecuteToVector(&nl, &c1));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b, ExecuteToVector(&hash, &c2));
  EXPECT_TRUE(MultisetEquals(a, b));
  EXPECT_EQ(a.size(), 2u);
}

TEST(OperatorsTest, SortDistinctStableAcrossReopen) {
  SortDistinctOp distinct(IntSource("X", {3, 1, 3, 2, 1}));
  for (int round = 0; round < 2; ++round) {
    ExecContext ctx;
    ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                         ExecuteToVector(&distinct, &ctx));
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0].AsInteger(), 1);
    EXPECT_EQ(rows[2][0].AsInteger(), 3);
  }
}

TEST(OperatorsTest, HashDistinctCollapsesNulls) {
  HashDistinctOp distinct(IntSource("X", {0, 0, 1}, {0, 1}));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecuteToVector(&distinct, &ctx));
  EXPECT_EQ(rows.size(), 2u);  // NULL collapses with NULL
}

TEST(OperatorsTest, ProductOfEmptyInput) {
  NestedLoopProductOp product(IntSource("L", {}), IntSource("R", {1, 2}));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecuteToVector(&product, &ctx));
  EXPECT_TRUE(rows.empty());
  NestedLoopProductOp product2(IntSource("L", {1}), IntSource("R", {}));
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows2,
                       ExecuteToVector(&product2, &ctx));
  EXPECT_TRUE(rows2.empty());
}

TEST(OperatorsTest, SetOpCountsAreExact) {
  // L = {1×3, 2×1}, R = {1×1, 2×2}: ∩All = {1×1, 2×1}, −All = {1×2}.
  auto L = [] { return IntSource("X", {1, 1, 1, 2}); };
  auto R = [] { return IntSource("X", {1, 2, 2}); };
  ExecContext ctx;
  SetOpOp i_all(SetOpAlgebra::kIntersect, DuplicateMode::kAll, L(), R());
  ASSERT_OK_AND_ASSIGN(std::vector<Row> a, ExecuteToVector(&i_all, &ctx));
  EXPECT_EQ(a.size(), 2u);
  SetOpOp e_all(SetOpAlgebra::kExcept, DuplicateMode::kAll, L(), R());
  ASSERT_OK_AND_ASSIGN(std::vector<Row> b, ExecuteToVector(&e_all, &ctx));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0][0].AsInteger(), 1);
  SetOpOp i_dist(SetOpAlgebra::kIntersect, DuplicateMode::kDist, L(), R());
  ASSERT_OK_AND_ASSIGN(std::vector<Row> c, ExecuteToVector(&i_dist, &ctx));
  EXPECT_EQ(c.size(), 2u);
  SetOpOp e_dist(SetOpAlgebra::kExcept, DuplicateMode::kDist, L(), R());
  ASSERT_OK_AND_ASSIGN(std::vector<Row> d, ExecuteToVector(&e_dist, &ctx));
  EXPECT_TRUE(d.empty());
}

TEST(OperatorsTest, SortMergeIntersectHandlesNulls) {
  SortMergeIntersectOp intersect(IntSource("X", {1, 0}, {1}),
                                 IntSource("X", {0, 2}, {0}));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows,
                       ExecuteToVector(&intersect, &ctx));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_null());  // NULL =! NULL in set operations
}

TEST(OperatorsTest, EmptySourceProducesNothing) {
  EmptySourceOp empty(OneIntColumn("X"));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> rows, ExecuteToVector(&empty, &ctx));
  EXPECT_TRUE(rows.empty());
}

TEST(OperatorsTest, ProjectReordersColumns) {
  std::vector<Row> rows = {Row({Value::Integer(1), Value::String("a")})};
  Schema schema({{"T", "X", TypeId::kInteger, false},
                 {"T", "Y", TypeId::kString, false}});
  ProjectOp project(
      OperatorPtr(new VectorSourceOp(schema, std::move(rows))), {1, 0, 1});
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(std::vector<Row> out, ExecuteToVector(&project, &ctx));
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].size(), 3u);
  EXPECT_EQ(out[0][0].AsString(), "a");
  EXPECT_EQ(out[0][1].AsInteger(), 1);
  EXPECT_EQ(out[0][2].AsString(), "a");
}

}  // namespace
}  // namespace uniqopt
