// Batch-boundary tests for the operators that emit rows one batch at a
// time without a tuple-at-a-time fallback: NestedLoopProduct,
// NestedLoopSemiJoin and HashSemiJoin (semi and anti), SetOp (all four
// modes), IndexLookup, UniqueIndexJoin and EmptySource. Each runs at 0,
// 1, 1023, 1024 and 1025 input rows (RowBatch::kDefaultBatchSize is
// 1024) and is compared against the naive reference interpreter, with
// NULL join keys, probe rows that match more than a batch of rows, and
// index lookups that miss.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/batch.h"
#include "reference_interpreter.h"
#include "test_util.h"

namespace uniqopt {
namespace {

constexpr size_t kBatch = RowBatch::kDefaultBatchSize;

class BatchBoundaryTest : public ::testing::TestWithParam<size_t> {
 protected:
  /// L and R: n rows each, ID = 1..n (primary key) and a nullable K with
  /// duplicates; R.C is 1 on almost every row, so one probe matches
  /// more than a batch of rows at n = 1025. ONE is the single row
  /// (X = 1, Y = n); TWO holds 1 and NULL.
  void SetUp() override {
    const int64_t n = static_cast<int64_t>(GetParam());
    ASSERT_OK(db_.ExecuteDdl(
        "CREATE TABLE L (ID INTEGER NOT NULL, K INTEGER, PRIMARY KEY (ID))"));
    ASSERT_OK(db_.ExecuteDdl(
        "CREATE TABLE R (ID INTEGER NOT NULL, K INTEGER, C INTEGER, "
        "PRIMARY KEY (ID))"));
    ASSERT_OK(db_.ExecuteDdl("CREATE TABLE ONE (X INTEGER, Y INTEGER)"));
    ASSERT_OK(db_.ExecuteDdl("CREATE TABLE TWO (X INTEGER)"));
    ASSERT_OK_AND_ASSIGN(Table * l, db_.GetTable("L"));
    ASSERT_OK_AND_ASSIGN(Table * r, db_.GetTable("R"));
    ASSERT_OK_AND_ASSIGN(Table * one, db_.GetTable("ONE"));
    ASSERT_OK_AND_ASSIGN(Table * two, db_.GetTable("TWO"));
    auto key = [](bool null, int64_t v) {
      return null ? Value::Null(TypeId::kInteger) : Value::Integer(v);
    };
    for (int64_t i = 1; i <= n; ++i) {
      ASSERT_OK(l->InsertValues({Value::Integer(i), key(i % 7 == 3, i % 5)}));
      ASSERT_OK(r->InsertValues({Value::Integer(i), key(i % 11 == 4, i % 3),
                                 key(i % 13 == 5, 1)}));
    }
    ASSERT_OK(one->InsertValues({Value::Integer(1), Value::Integer(n)}));
    ASSERT_OK(two->InsertValues({Value::Integer(1)}));
    ASSERT_OK(two->InsertValues({Value::Null(TypeId::kInteger)}));
  }

  /// Runs `sql` through the executor (profiled) and the reference
  /// interpreter; the rows must agree as multisets and the plan must
  /// contain an operator whose name starts with `op`. Returns that
  /// operator's profile slot.
  OpProfile Check(const std::string& sql, const std::string& op,
                  const PhysicalOptions& physical = {}) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(sql);
    EXPECT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    if (!bound.ok()) return {};
    ExecContext ctx;
    ExecProfile profile;
    auto rows = ExecutePlan(bound->plan, db_, &ctx, physical, &profile);
    EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status().ToString();
    auto reference = ReferenceInterpreter(db_, {}).Run(bound->plan);
    EXPECT_TRUE(reference.ok()) << reference.status().ToString();
    if (!rows.ok() || !reference.ok()) return {};
    EXPECT_TRUE(MultisetEquals(*reference, *rows))
        << sql << " at n=" << GetParam() << ": executor "
        << rows->size() << " rows, reference " << reference->size();
    EXPECT_EQ(ctx.stats.rows_output, rows->size()) << sql;
    for (const OpProfile& slot : profile.ops()) {
      if (slot.name.rfind(op, 0) == 0) return slot;
    }
    ADD_FAILURE() << sql << " lowered without a " << op << " operator:\n"
                  << profile.ToText();
    return {};
  }

  /// NextBatch calls a root that fills every batch to capacity takes for
  /// `rows` rows: full batches, the remainder, then end of stream.
  static uint64_t FullBatchCalls(uint64_t rows) {
    return (rows + kBatch - 1) / kBatch + 1;
  }

  Database db_;
};

TEST_P(BatchBoundaryTest, NestedLoopProduct) {
  // One left row meets the whole right side: the product resumes
  // mid-right-side so every batch but the last is full.
  OpProfile one_left = Check("SELECT * FROM ONE, R", "NestedLoopProduct");
  EXPECT_EQ(one_left.rows_out, GetParam());
  EXPECT_EQ(one_left.next_calls, FullBatchCalls(GetParam()));
  // Two right rows per left row: resumes mid-left-batch.
  OpProfile two_right = Check("SELECT * FROM L, TWO", "NestedLoopProduct");
  EXPECT_EQ(two_right.rows_out, 2 * GetParam());
  EXPECT_EQ(two_right.next_calls, FullBatchCalls(2 * GetParam()));
  Check("SELECT * FROM R, ONE", "NestedLoopProduct");
}

TEST_P(BatchBoundaryTest, HashSemiAndAntiJoin) {
  // NULL keys on both sides, with and without a residual. The probe on
  // R.C meets more than a batch of build rows at n = 1025, and its
  // residual holds only for the last one (ID = n).
  for (const char* neg : {"", "NOT "}) {
    std::string op = *neg ? "HashAntiJoin" : "HashSemiJoin";
    Check(std::string("SELECT * FROM L WHERE ") + neg +
              "EXISTS (SELECT * FROM R WHERE R.K = L.K)",
          op);
    Check(std::string("SELECT * FROM L WHERE ") + neg +
              "EXISTS (SELECT * FROM R WHERE R.K = L.K AND R.ID > L.ID)",
          op);
    Check(std::string("SELECT * FROM ONE WHERE ") + neg +
              "EXISTS (SELECT * FROM R WHERE R.C = ONE.X AND R.ID >= ONE.Y)",
          op);
  }
}

TEST_P(BatchBoundaryTest, NestedLoopSemiAndAntiJoin) {
  PhysicalOptions nested;
  nested.join = PhysicalOptions::JoinStrategy::kNestedLoop;
  for (const char* neg : {"", "NOT "}) {
    std::string op = *neg ? "NestedLoopAntiJoin" : "NestedLoopSemiJoin";
    Check(std::string("SELECT * FROM L WHERE ") + neg +
              "EXISTS (SELECT * FROM TWO WHERE TWO.X = L.K)",
          op, nested);
    Check(std::string("SELECT * FROM ONE WHERE ") + neg +
              "EXISTS (SELECT * FROM R WHERE R.C = ONE.X AND R.ID >= ONE.Y)",
          op, nested);
  }
}

TEST_P(BatchBoundaryTest, SetOpAllFourModes) {
  // K carries duplicates and NULLs, which match each other under `=!`.
  for (const char* mode : {"INTERSECT", "INTERSECT ALL", "EXCEPT",
                           "EXCEPT ALL"}) {
    Check(std::string("SELECT K FROM L ") + mode + " SELECT K FROM R",
          "SetOp");
    Check(std::string("SELECT K FROM R ") + mode + " SELECT K FROM L",
          "SetOp");
  }
}

TEST_P(BatchBoundaryTest, IndexLookupHitsAndMisses) {
  for (const char* id : {"1", "1023", "1024", "1025", "100000"}) {
    OpProfile lookup =
        Check(std::string("SELECT * FROM L WHERE ID = ") + id, "IndexLookup");
    EXPECT_EQ(lookup.rows_out,
              std::stoul(id) <= GetParam() ? 1u : 0u) << "ID = " << id;
  }
  Check("SELECT * FROM L WHERE ID = 3 AND K IS NULL", "IndexLookup");
}

TEST_P(BatchBoundaryTest, UniqueIndexJoin) {
  // Every left row finds its partner: the join resumes mid-left-batch,
  // so every batch but the last is full.
  OpProfile all = Check("SELECT * FROM L, R WHERE L.ID = R.ID",
                        "UniqueIndexJoin");
  EXPECT_EQ(all.rows_out, GetParam());
  EXPECT_EQ(all.next_calls, FullBatchCalls(GetParam()));
  // NULL probe keys and misses (L.K = 0 has no R.ID).
  Check("SELECT * FROM L, R WHERE L.K = R.ID", "UniqueIndexJoin");
  Check("SELECT * FROM L, R WHERE L.K = R.ID AND R.K IS NOT NULL",
        "UniqueIndexJoin");
}

TEST_P(BatchBoundaryTest, EmptySource) {
  OpProfile empty = Check("SELECT * FROM L WHERE FALSE", "EmptySource");
  EXPECT_EQ(empty.rows_out, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchBoundaryTest,
                         ::testing::Values(0u, 1u, kBatch - 1, kBatch,
                                           kBatch + 1));

}  // namespace
}  // namespace uniqopt
