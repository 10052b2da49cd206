// Tests for the cost model and cost-based strategy choice — the piece
// the paper leaves to "the optimizer's cost model" (§5).

#include <atomic>
#include <thread>
#include <unordered_set>

#include <gtest/gtest.h>

#include "exec/cost_model.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "txn/dml_executor.h"
#include "uniqopt/uniqopt.h"
#include "workload/supplier_schema.h"

namespace uniqopt {
namespace {

// PARTS column ordinals (workload/supplier_schema.cc).
constexpr size_t kPartsPno = 1;
constexpr size_t kPartsColor = 4;

uint64_t NdvScans() {
  return obs::MetricsRegistry::Global().GetCounter("cost.ndv.scans").value();
}

uint64_t NdvKeyShortcuts() {
  return obs::MetricsRegistry::Global()
      .GetCounter("cost.ndv.key_shortcuts")
      .value();
}

/// The reference count: every value of `column` in `snap`, deduplicated
/// under `=!` by a plain set, with no statistics involved.
size_t ScanDistinct(const TableSnapshot& snap, size_t column) {
  std::unordered_set<Row, RowHash, RowNullSafeEqual> values;
  for (const Row& row : snap->rows) values.insert(Row({row[column]}));
  return values.size();
}

TableSnapshot Pin(const Database& db, const std::string& table) {
  auto t = db.GetTable(table);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return (*t)->Snapshot();
}

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(CreateSupplierSchema(&db_));
    SupplierDataOptions data;
    data.num_suppliers = 200;
    data.parts_per_supplier = 10;
    ASSERT_OK(PopulateSupplierDatabase(&db_, data));
    estimator_ = std::make_unique<CostEstimator>(&db_);
  }

  PlanPtr Bind(const std::string& sql) {
    Binder binder(&db_.catalog());
    auto bound = binder.BindSql(sql);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return bound->plan;
  }

  Database db_;
  std::unique_ptr<CostEstimator> estimator_;
};

TEST_F(CostModelTest, BaseTableCardinalities) {
  EXPECT_DOUBLE_EQ(estimator_->EstimateRows(Bind("SELECT * FROM SUPPLIER")),
                   200.0);
  EXPECT_DOUBLE_EQ(estimator_->EstimateRows(Bind("SELECT * FROM PARTS")),
                   2000.0);
}

TEST_F(CostModelTest, DistinctCountsFromLiveData) {
  // SNO is the key: 200 distinct. PARTS.PNO has 10 distinct values.
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("SUPPLIER", 0), 200.0);
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("PARTS", 1), 10.0);
}

TEST_F(CostModelTest, KeyEqualitySelectsOneRow) {
  double rows = estimator_->EstimateRows(
      Bind("SELECT * FROM SUPPLIER WHERE SNO = 7"));
  EXPECT_NEAR(rows, 1.0, 0.01);
}

TEST_F(CostModelTest, JoinCardinalityTracksKeys) {
  // S ⋈ P on SNO: |P| rows expected (each part one supplier).
  double rows = estimator_->EstimateRows(
      Bind("SELECT * FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO"));
  EXPECT_NEAR(rows, 2000.0, 100.0);
}

TEST_F(CostModelTest, HashJoinCheaperThanNestedLoop) {
  PlanPtr plan =
      Bind("SELECT * FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
  PhysicalOptions hash;
  hash.join = PhysicalOptions::JoinStrategy::kHash;
  PhysicalOptions nl;
  nl.join = PhysicalOptions::JoinStrategy::kNestedLoop;
  EXPECT_LT(estimator_->Estimate(plan, hash).cost,
            estimator_->Estimate(plan, nl).cost);
}

TEST_F(CostModelTest, EmptySelectionIsFree) {
  PlanPtr plan = Bind("SELECT * FROM SUPPLIER WHERE SNO = 600");
  auto rewritten = RewritePlan(plan);
  ASSERT_TRUE(rewritten.ok());
  PlanEstimate e = estimator_->Estimate(rewritten->plan, {});
  EXPECT_LT(e.cost, 10.0);
}

TEST_F(CostModelTest, DistinctRemovalLowersCost) {
  PlanPtr with = Bind(
      "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO");
  auto rewritten = RewritePlan(with);
  ASSERT_TRUE(rewritten.ok());
  ASSERT_TRUE(rewritten->Applied(RewriteRuleId::kRemoveRedundantDistinct));
  PhysicalOptions sort;
  sort.distinct = PhysicalOptions::DistinctStrategy::kSort;
  EXPECT_LT(estimator_->Estimate(rewritten->plan, sort).cost,
            estimator_->Estimate(with, sort).cost);
}

TEST_F(CostModelTest, ChooserPrefersRewrittenExistsAtScale) {
  PlanPtr original = Bind(
      "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS "
      "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 3)");
  auto rewritten = RewritePlan(original);
  ASSERT_TRUE(rewritten.ok());
  std::vector<PlanAlternative> alts =
      StandardAlternatives(original, rewritten->plan);
  size_t best = ChooseBestAlternative(*estimator_, &alts);
  // The winner must not be a nested-loop plan.
  EXPECT_EQ(alts[best].label.find("nested-loop"), std::string::npos)
      << alts[best].label;
}

TEST_F(CostModelTest, OptimizerFacadeCostBased) {
  Optimizer optimizer(&db_, RewriteOptions{}, /*use_cost_model=*/true);
  auto prepared = optimizer.Prepare(
      "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE(prepared->cost_based);
  EXPECT_FALSE(prepared->chosen_label.empty());
  EXPECT_GT(prepared->chosen_estimate.cost, 0.0);
  EXPECT_NE(prepared->Explain().find("cost-based choice"),
            std::string::npos);
  // Executing uses the pinned strategy and produces correct results.
  auto rows = optimizer.Execute(*prepared);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2000u);
}

TEST_F(CostModelTest, EstimatesAreOrderOfMagnitudeSane) {
  // Compare estimated vs actual cardinalities across several queries;
  // heuristics should land within ~4x.
  const char* queries[] = {
      "SELECT * FROM SUPPLIER WHERE SCITY = 'Toronto'",
      "SELECT DISTINCT SNAME FROM SUPPLIER",
      "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
      "SELECT SNO FROM PARTS INTERSECT SELECT SNO FROM SUPPLIER",
  };
  for (const char* sql : queries) {
    PlanPtr plan = Bind(sql);
    double estimated = estimator_->EstimateRows(plan);
    ExecContext ctx;
    auto rows = ExecutePlan(plan, db_, &ctx);
    ASSERT_TRUE(rows.ok()) << sql;
    double actual = std::max<double>(1.0, static_cast<double>(rows->size()));
    EXPECT_LT(estimated / actual, 4.0) << sql;
    EXPECT_GT(estimated / actual, 0.25) << sql;
  }
}

TEST_F(CostModelTest, ConcurrentDistinctCountIsRaceFree) {
  // Eight readers fill the statistics of whatever PARTS version they
  // pin — many of them the same shared version — while a writer keeps
  // committing DML that publishes new versions. Run under TSan
  // (scripts/check.sh --tsan) this is the race test for ColumnStats;
  // every reader also checks that the count it was served is the exact
  // count of the version it pinned.
  std::atomic<bool> mismatch{false};
  std::atomic<bool> writer_failed{false};
  auto reader = [&] {
    for (int round = 0; round < 15; ++round) {
      TableSnapshot snap = Pin(db_, "PARTS");
      for (size_t column : {kPartsPno, kPartsColor}) {
        if (snap->DistinctCount(column) != ScanDistinct(snap, column)) {
          mismatch.store(true);
        }
      }
      if (estimator_->DistinctCount("SUPPLIER", 0) != 200.0 ||
          estimator_->DistinctCount("PARTS", kPartsPno) < 10.0) {
        mismatch.store(true);
      }
    }
  };
  auto writer = [&] {
    txn::DmlExecutor dml(&db_);
    for (int i = 0; i < 12; ++i) {
      const std::string pno = std::to_string(100 + i);
      const std::string statements[] = {
          "INSERT INTO PARTS VALUES (1, " + pno + ", 'NEW', " +
              std::to_string(90000 + i) + ", 'BLUE')",
          "UPDATE PARTS SET COLOR = 'RED' WHERE PNO = " + pno,
          "DELETE FROM PARTS WHERE SNO = " + std::to_string(200 - i) +
              " AND PNO = 10"};
      for (const std::string& sql : statements) {
        if (!dml.ExecuteSql(sql).ok()) writer_failed.store(true);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.emplace_back(writer);
  for (int t = 0; t < 7; ++t) pool.emplace_back(reader);
  reader();
  for (std::thread& t : pool) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_FALSE(writer_failed.load());
}

TEST_F(CostModelTest, KeyColumnDistinctCountIsTheRowCount) {
  // SUPPLIER.SNO is a NOT NULL primary key: its count is read off the
  // version's row count, never scanned.
  const uint64_t scans = NdvScans();
  const uint64_t shortcuts = NdvKeyShortcuts();
  TableSnapshot snap = Pin(db_, "SUPPLIER");
  EXPECT_EQ(snap->DistinctCount(0), ScanDistinct(snap, 0));
  EXPECT_EQ(snap->DistinctCount(0), 200u);
  EXPECT_EQ(NdvScans() - scans, 0u);
  EXPECT_EQ(NdvKeyShortcuts() - shortcuts, 1u);
}

TEST_F(CostModelTest, NullableUniqueColumnShortcutCountsItsOneNull) {
  // UNIQUE (B) admits one NULL under `=!`, which is one more distinct
  // value — so the row count is still exact. C is only part of the
  // composite key (C, D) and must be scanned.
  Database db;
  ASSERT_OK(db.ExecuteDdl(
      "CREATE TABLE T (A INTEGER NOT NULL, B INTEGER, C INTEGER, "
      "D INTEGER, PRIMARY KEY (A), UNIQUE (B), UNIQUE (C, D))"));
  ASSERT_OK_AND_ASSIGN(Table * t, db.GetTable("T"));
  for (int64_t i = 1; i <= 50; ++i) {
    ASSERT_OK(t->InsertValues(
        {Value::Integer(i),
         i == 7 ? Value::Null(TypeId::kInteger) : Value::Integer(i * 3),
         Value::Integer(i % 5), Value::Integer(i)}));
  }
  TableSnapshot snap = t->Snapshot();
  uint64_t scans = NdvScans();
  uint64_t shortcuts = NdvKeyShortcuts();
  EXPECT_EQ(snap->DistinctCount(1), 50u);
  EXPECT_EQ(snap->DistinctCount(1), ScanDistinct(snap, 1));
  EXPECT_EQ(NdvScans() - scans, 0u);
  EXPECT_EQ(NdvKeyShortcuts() - shortcuts, 1u);

  scans = NdvScans();
  shortcuts = NdvKeyShortcuts();
  EXPECT_EQ(snap->DistinctCount(2), 5u);
  EXPECT_EQ(snap->DistinctCount(2), ScanDistinct(snap, 2));
  EXPECT_EQ(NdvScans() - scans, 1u);
  EXPECT_EQ(NdvKeyShortcuts() - shortcuts, 0u);
}

TEST_F(CostModelTest, DistinctCountsFollowDmlCommits) {
  txn::DmlExecutor dml(&db_);
  auto expect_current = [&](size_t column, double expected) {
    EXPECT_DOUBLE_EQ(estimator_->DistinctCount("PARTS", column), expected);
    EXPECT_EQ(estimator_->DistinctCount("PARTS", column),
              static_cast<double>(ScanDistinct(Pin(db_, "PARTS"), column)));
  };
  expect_current(kPartsPno, 10);
  expect_current(kPartsColor, 4);
  ASSERT_OK(dml.ExecuteSql(
                   "INSERT INTO PARTS VALUES (1, 11, 'NEW', 90001, 'RED')")
                .status());
  expect_current(kPartsPno, 11);
  ASSERT_OK(dml.ExecuteSql("UPDATE PARTS SET COLOR = 'RED'").status());
  expect_current(kPartsColor, 1);
  ASSERT_OK(dml.ExecuteSql("DELETE FROM PARTS WHERE PNO > 5").status());
  expect_current(kPartsPno, 5);
}

TEST_F(CostModelTest, DistinctCountsFollowCreateUniqueIndex) {
  // The index publishes a new version with the same rows: its count is
  // recomputed (now through the key shortcut), not carried over.
  ASSERT_OK(db_.ExecuteDdl("CREATE TABLE T (A INTEGER, B INTEGER)"));
  ASSERT_OK_AND_ASSIGN(Table * t, db_.GetTable("T"));
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_OK(t->InsertValues({Value::Integer(i % 3), Value::Integer(i)}));
  }
  uint64_t scans = NdvScans();
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("T", 1), 30.0);
  EXPECT_EQ(NdvScans() - scans, 1u);
  ASSERT_OK(db_.CreateUniqueIndex("T", "uq_t_b", {"B"}).status());
  scans = NdvScans();
  const uint64_t shortcuts = NdvKeyShortcuts();
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("T", 1), 30.0);
  EXPECT_EQ(NdvScans() - scans, 0u);
  EXPECT_EQ(NdvKeyShortcuts() - shortcuts, 1u);
}

TEST_F(CostModelTest, DistinctCountsFollowClear) {
  ASSERT_OK_AND_ASSIGN(Table * parts, db_.GetTable("PARTS"));
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("PARTS", kPartsPno), 10.0);
  parts->Clear();
  EXPECT_EQ(Pin(db_, "PARTS")->DistinctCount(kPartsPno), 0u);
  ASSERT_OK(parts->InsertValues({Value::Integer(1), Value::Integer(1),
                                 Value::String("A"), Value::Integer(1),
                                 Value::String("RED")}));
  ASSERT_OK(parts->InsertValues({Value::Integer(1), Value::Integer(2),
                                 Value::String("B"), Value::Integer(2),
                                 Value::String("RED")}));
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("PARTS", kPartsPno), 2.0);
}

TEST_F(CostModelTest, DistinctCountsFollowInPlaceBulkInsert) {
  // With no snapshot pinned, Table::Insert appends to the current
  // version in place instead of publishing a new one — the counts
  // filled before the append must not survive it.
  ASSERT_OK_AND_ASSIGN(Table * parts, db_.GetTable("PARTS"));
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("PARTS", kPartsPno), 10.0);
  const TableVersion* before = parts->Snapshot().get();
  ASSERT_OK(parts->InsertValues({Value::Integer(1), Value::Integer(11),
                                 Value::String("NEW"), Value::Integer(90001),
                                 Value::String("RED")}));
  ASSERT_EQ(parts->Snapshot().get(), before) << "expected the in-place path";
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("PARTS", kPartsPno), 11.0);
}

TEST_F(CostModelTest, PinnedSnapshotKeepsItsOwnCounts) {
  TableSnapshot pinned = Pin(db_, "PARTS");
  EXPECT_EQ(pinned->DistinctCount(kPartsPno), 10u);
  txn::DmlExecutor dml(&db_);
  ASSERT_OK(dml.ExecuteSql(
                   "INSERT INTO PARTS VALUES (1, 11, 'NEW', 90001, 'RED')")
                .status());
  EXPECT_EQ(pinned->DistinctCount(kPartsPno), 10u);
  EXPECT_EQ(pinned->DistinctCount(kPartsPno), ScanDistinct(pinned, kPartsPno));
  EXPECT_DOUBLE_EQ(estimator_->DistinctCount("PARTS", kPartsPno), 11.0);
}

TEST_F(CostModelTest, RepeatedCostBasedPrepareScansOnlyChangedTables) {
  Optimizer optimizer(&db_, RewriteOptions{}, /*use_cost_model=*/true);
  const std::string sql =
      "SELECT DISTINCT S.SNAME, P.COLOR FROM SUPPLIER S, PARTS P "
      "WHERE S.SNO = P.SNO AND P.PNO = 3";
  auto prepare_scans = [&]() -> uint64_t {
    const uint64_t before = NdvScans();
    auto prepared = optimizer.Prepare(sql);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_TRUE(prepared.ok() && prepared->cost_based);
    return NdvScans() - before;
  };
  const uint64_t first = prepare_scans();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(prepare_scans(), 0u) << "unchanged db: every count is served";

  // A commit to PARTS rescans PARTS columns only, one to SUPPLIER only
  // SUPPLIER's; together they redo exactly the first prepare's scans.
  txn::DmlExecutor dml(&db_);
  ASSERT_OK(dml.ExecuteSql(
                   "INSERT INTO PARTS VALUES (1, 11, 'NEW', 90001, 'RED')")
                .status());
  const uint64_t parts_rescans = prepare_scans();
  ASSERT_OK(dml.ExecuteSql("INSERT INTO SUPPLIER VALUES (201, 'NEWCO', "
                           "'Toronto', 5.0, 'Active')")
                .status());
  const uint64_t supplier_rescans = prepare_scans();
  EXPECT_GT(parts_rescans, 0u);
  EXPECT_GT(supplier_rescans, 0u);
  EXPECT_EQ(parts_rescans + supplier_rescans, first);
  EXPECT_EQ(prepare_scans(), 0u);
}

TEST_F(CostModelTest, ParallelAlternativeWinsOnlyForLargeWork) {
  // dop > 1 adds per-worker startup + gather cost: a big join should
  // prefer the parallel lowering, a one-row point lookup should not.
  PlanPtr big = Bind(
      "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
  std::vector<PlanAlternative> alts = StandardAlternatives(big, big, 8);
  size_t best = ChooseBestAlternative(*estimator_, &alts);
  EXPECT_EQ(alts[best].physical.dop, 8u) << alts[best].label;

  PlanPtr small = Bind("SELECT * FROM SUPPLIER WHERE SNO = 7");
  std::vector<PlanAlternative> small_alts =
      StandardAlternatives(small, small, 8);
  size_t small_best = ChooseBestAlternative(*estimator_, &small_alts);
  EXPECT_EQ(small_alts[small_best].physical.dop, 1u)
      << small_alts[small_best].label;
}

TEST_F(CostModelTest, ParallelCandidateOnlyWhereThePlanRunsInParallel) {
  // A GROUP BY binds to a projection over the aggregation: the morsel
  // executor finds no driving scan below the projection and runs it
  // serially, so no parallel candidate may be offered (or labelled).
  PlanPtr grouped =
      Bind("SELECT SCITY, COUNT(*) FROM SUPPLIER GROUP BY SCITY");
  ASSERT_EQ(grouped->kind(), PlanKind::kProject);
  ASSERT_EQ(grouped->child(0)->kind(), PlanKind::kAggregate);
  EXPECT_FALSE(SupportsParallelExecution(grouped));
  for (const PlanAlternative& alt :
       StandardAlternatives(grouped, grouped, 4)) {
    EXPECT_EQ(alt.physical.dop, 1u) << alt.label;
  }
  PhysicalOptions dop4;
  dop4.dop = 4;
  ExecContext grouped_ctx;
  ASSERT_OK(ExecutePlan(grouped, db_, &grouped_ctx, dop4).status());
  EXPECT_EQ(grouped_ctx.stats.morsels_claimed, 0u);

  // A keyed join runs in parallel: exactly one parallel candidate.
  PlanPtr join =
      Bind("SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
  EXPECT_TRUE(SupportsParallelExecution(join));
  std::vector<std::string> parallel_labels;
  for (const PlanAlternative& alt : StandardAlternatives(join, join, 4)) {
    if (alt.physical.dop > 1) parallel_labels.push_back(alt.label);
  }
  EXPECT_EQ(parallel_labels,
            std::vector<std::string>{"original/parallel-dop4"});
  ExecContext join_ctx;
  ASSERT_OK(ExecutePlan(join, db_, &join_ctx, dop4).status());
  EXPECT_GT(join_ctx.stats.morsels_claimed, 0u);
}

}  // namespace
}  // namespace uniqopt
